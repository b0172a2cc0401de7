"""Every public name in the package has a caller in the program, and so
has every defaulted parameter.

The program is src/ and perfbench/.  A public module-level function, class
or constant, or a public method, that only the tests reach belongs in
tests/helpers.py, not in the package; a defaulted parameter that no program
call passes is a setting nothing sets, and goes.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays without a program caller
ALLOWED = {
    "check_confluence": "acceptance criterion 9: the bounded confluence search, "
                        "run by the tests only to show the axioms imply it",
}

# function.parameter -> why it stays without a program caller that passes it
ALLOWED_PARAMETERS = {
    "generate.membership": "acceptance criterion 8: the tests generate under each "
                           "candidate membership rule to pin the one in use",
    "verify_lemmas.transfer": "the test seam that injects a broken transfer map",
    "verify_lemmas.transfer_inv": "the test seam that injects a broken inverse map",
}


# A read of a bare name cannot tell which definition of that name it
# reaches.  So each public definition whose name another public definition,
# a field or a method of a builtin type shares names a program function that
# calls it (module.function or module.Class.method).
SHARED = {
    "GCM.a": "cartan.classify_pair",
    "GCM.pairs": "cartan.classify_all_pairs",
    "UnionFind.add": "builder.synthesize",
    "UnionFind.find": "builder.UnionFind.union",
    "UnionFind.union": "builder._collect_merges",
    "VerificationReport.add": "oracle.verify_reversal",
    "VerificationReport.passed": "cli.cmd_verify_paper",
    "CheckReport.passed": "cli.cmd_check",
    "CheckReport.to_dict": "cli.cmd_check",
    "Violation.to_dict": "axioms.CheckReport.to_dict",
    "ColoredGraph.reverse": "oracle.verify_reversal",
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


def _shared(trees):
    """The qualified names of the public definitions whose name another
    public definition, a field (an annotated class attribute or an attribute
    set on self) or a method of a builtin type also names."""
    public = [found for tree in trees for found in _public(tree)]
    fields = set()
    for cls in (node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                fields.add(node.target.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
                    and getattr(node.value, "id", None) == "self":
                fields.add(node.attr)
    builtin = {name for t in (bool, bytes, dict, float, frozenset, int, list, set, str, tuple) for name in dir(t)}
    count = Counter(name for _, name in public)
    return {qual for qual, name in public if count[name] > 1 or name in fields or name in builtin}


def _functions(path):
    """module.function and module.Class.method -> node, for each function
    and method that the file at path defines, module being its stem."""
    out = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            out[f"{path.stem}.{node.name}"] = node
        elif isinstance(node, ast.ClassDef):
            out.update((f"{path.stem}.{node.name}.{item.name}", item)
                       for item in node.body if isinstance(item, ast.FunctionDef))
    return out


def test_every_shared_name_lists_a_caller_of_each_definition():
    assert _shared(_trees("src/b2crystal")) == set(SHARED)
    functions = {}
    for path in (p for d in ("src", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))):
        functions.update(_functions(path))
    for qual, caller in SHARED.items():
        name = qual.rsplit(".", 1)[1]
        reads = {node.attr for node in ast.walk(functions[caller])
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        assert name in reads, (qual, caller)


def _defaulted(tree):
    """(callee name, qualified parameter name, position) of each defaulted
    parameter of each public function and method that tree defines, and of
    __init__, which is called by the class name.  The position counts the
    arguments a call passes before it (None for keyword-only)."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef):
            functions = [(node.name, node.name, node, 0)]
        else:
            functions = [(node.name if item.name == "__init__" else item.name, f"{node.name}.{item.name}", item, 1)
                         for item in node.body if isinstance(item, ast.FunctionDef)
                         and (item.name == "__init__" or not item.name.startswith("_"))]
        for callee, qual, fn, bound in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            for k in range(len(positional) - len(args.defaults), len(positional)):
                yield callee, f"{qual}.{positional[k].arg}", k - bound
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield callee, f"{qual}.{arg.arg}", None


def _passed(tree):
    """(callee name, position or keyword) of each argument a call in tree
    passes, the callee matched by its bare name; a *args or **kwargs
    argument passes every position or every keyword ("*" / "**")."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for k, arg in enumerate(node.args):
            yield callee, "*" if isinstance(arg, ast.Starred) else k
        for kw in node.keywords:
            yield callee, kw.arg or "**"


def test_every_defaulted_parameter_has_a_program_caller():
    passed = {found for tree in _trees("src", "perfbench") for found in _passed(tree)}
    defaulted = [found for tree in _trees("src/b2crystal") for found in _defaulted(tree)]
    assert len(defaulted) > 20

    def used(callee, qual, k):
        ways = {qual.rsplit(".", 1)[1], "**"} | ({k, "*"} if k is not None else set())
        return any((callee, way) in passed for way in ways)

    missing = {qual for callee, qual, k in defaulted if callee not in ALLOWED and not used(callee, qual, k)}
    assert sorted(missing - set(ALLOWED_PARAMETERS)) == []
    # each allowed parameter is still defaulted and still without a caller
    assert missing & set(ALLOWED_PARAMETERS) == set(ALLOWED_PARAMETERS)
