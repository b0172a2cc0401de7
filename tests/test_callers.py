"""Every public name in the package has a caller in the program, and every
defaulted parameter has a program call that passes it and one that omits it.

The program is src/ and perfbench/.  A public module-level function, class
or constant, or a public method, that only the tests reach belongs in
tests/helpers.py, not in the package; a defaulted parameter that no program
call passes is a setting nothing sets, and goes; one that every program
call passes has a default nothing reaches, and is required.  A public name
that only perfbench/ reaches is listed in BENCHMARK_ONLY, so that what
leaves src/ with the next change to the benchmark is known.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays without a program caller
ALLOWED = {}

# qualified name -> why it stays though only perfbench/ reaches it
BENCHMARK_ONLY = {
    "ColoredGraph.wt_assign": "perfbench/tracing.py spans it and perfbench/stages.py times it; "
                              "the program reads weight_codes",
    "verify_kakunin1": "perfbench/tracing.py spans it; verify_forks runs the fork checks",
    "verify_kakunin2": "perfbench/tracing.py spans it; verify_forks runs the fork checks",
    "verify_kakunin3": "perfbench/tracing.py spans it; verify_forks runs the fork checks",
    "classify_all_pairs": "perfbench/tracing.py counts it; no program path calls it",
    "graph_to_doc": "the benchmark's set-up builds and permutes its dict documents with it, and "
                    "perfbench/tracing.py spans it; gen writes graph_to_json's text",
    "dump_doc": "the benchmark's set-up writes its dict documents with it, and perfbench/tracing.py "
                "spans it; gen writes graph_to_json's text",
}

# function.parameter -> why it stays without a program caller that passes it
ALLOWED_PARAMETERS = {
    "verify_lemmas.transfer": "the test seam that injects a broken transfer map",
    "verify_lemmas.transfer_inv": "the test seam that injects a broken inverse map",
}

# function.parameter -> why its default stays though every program call passes it
ALLOWED_DEFAULTS = {
    "GCM.__init__.index_set": "_load_gcm passes a document's index set through, None where it has none",
    "kashiwara_step.lam": "None is the unbounded crystal, which only the tests navigate",
    "elem_walk.lam": "None is the unbounded crystal, which only the tests navigate",
    "elem_delta.lam": "None is the unbounded crystal, which only the tests navigate",
}


# A read of a bare name cannot tell which definition of that name it
# reaches.  So each public definition whose name another public definition,
# a field or a method of a builtin type shares names a program function that
# calls it (module.function or module.Class.method).
SHARED = {
    "GCM.a": "cartan.classify_pair",
    "GCM.pairs": "cli.cmd_iso",
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


def test_benchmark_only_names_are_listed():
    # a public name that only perfbench/ reaches is listed; a listed name
    # that gains a caller in src/, or leaves the package or the benchmark,
    # is no longer benchmark-only and leaves the list
    src = {name for tree in _trees("src") for name in _references(tree)}
    bench = {name for tree in _trees("perfbench") for name in _references(tree)}
    public = [found for tree in _trees("src/b2crystal") for found in _public(tree)]
    assert sorted(qual for qual, name in public if name in bench - src) == sorted(BENCHMARK_ONLY)


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


def _calls(tree):
    """(callee name, the positions and keywords it passes) of each call in
    tree, the callee matched by its bare name; a *args or **kwargs argument
    passes every position or every keyword ("*" / "**")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            ways = {"*" if isinstance(arg, ast.Starred) else k for k, arg in enumerate(node.args)}
            yield callee, ways | {kw.arg or "**" for kw in node.keywords}


def _program_calls():
    """qualified parameter name -> (whether some program call passes it,
    whether some program call omits it), for each defaulted parameter."""
    calls = [found for tree in _trees("src", "perfbench") for found in _calls(tree)]
    defaulted = [found for tree in _trees("src/b2crystal") for found in _defaulted(tree)]
    assert len(defaulted) >= 19
    out = {}
    for callee, qual, k in defaulted:
        if callee not in ALLOWED:
            ways = {qual.rsplit(".", 1)[1], "**"} | ({k, "*"} if k is not None else set())
            hits = [bool(ways & passed) for name, passed in calls if name == callee]
            out[qual] = any(hits), not all(hits)
    return out


def test_every_defaulted_parameter_has_a_program_caller():
    missing = {qual for qual, (passed, _) in _program_calls().items() if not passed}
    assert sorted(missing - set(ALLOWED_PARAMETERS)) == []
    # each allowed parameter is still defaulted and still without a caller
    assert missing & set(ALLOWED_PARAMETERS) == set(ALLOWED_PARAMETERS)


def test_every_default_is_reached_by_a_program_call():
    unreached = {qual for qual, (_, omitted) in _program_calls().items() if not omitted}
    assert sorted(unreached - set(ALLOWED_DEFAULTS)) == []
    # each allowed default is still there and still unreached
    assert unreached & set(ALLOWED_DEFAULTS) == set(ALLOWED_DEFAULTS)
