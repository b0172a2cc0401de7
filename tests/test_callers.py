"""Every public name in the package has a caller in the program.

The program is src/ and perfbench/.  A public module-level function, class
or constant, or a public method, that only the tests reach belongs in
tests/helpers.py, not in the package.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays without a program caller
ALLOWED = {
    "check_confluence": "acceptance criterion 9: the bounded confluence search, "
                        "run by the tests only to show the axioms imply it",
}


def _trees(*dirs):
    return [ast.parse(p.read_text()) for d in dirs for p in sorted((ROOT / d).rglob("*.py"))]


def _public(tree):
    """(qualified name, name) of each public module-level function, class
    and constant, and of each public method, that tree defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            for item in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, name.id


def _references(tree):
    """The names tree reads: loaded names and attributes, and the string
    constants that are identifiers (the tracer's tables, argparse's handler
    names).  Docstrings and the __all__ re-export list are not reads."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None:
            skip.add(id(node.body[0].value))
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            skip.update(map(id, ast.walk(node.value)))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def test_every_public_name_has_a_program_caller():
    used = {name for tree in _trees("src", "perfbench") for name in _references(tree)}
    public = [found for tree in _trees("src/b2crystal") for found in _public(tree)]
    assert len(public) > 100
    assert sorted(qual for qual, name in public if name not in used and name not in ALLOWED) == []
    # each allowed name is public and still without a caller
    assert {name for _, name in public if name in ALLOWED and name not in used} == set(ALLOWED)
