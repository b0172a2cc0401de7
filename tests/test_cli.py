import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from b2crystal import axioms, builder, cli, kernel, oracle, pbw
from b2crystal.cartan import B3_MATRIX_ROWS, GCM, b2_gcm
from b2crystal.cli import (
    doc_to_graph,
    dump_doc,
    graph_to_doc,
    graph_to_dot,
    graph_to_json,
    load_doc,
    main,
)
from b2crystal.errors import BudgetExceeded, MembershipViolation
from b2crystal.pbw import PbwElement
from helpers import (
    C3_MATRIX_ROWS,
    SYNTHESIS_CASES,
    build_graph,
    copy_mutable,
    reference_build_isomorphism,
    reference_check_all,
    reference_graph_to_doc,
    reference_load,
    relabelled,
    renaming,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, args in {
        "pbw11": ["gen", "--gcm", "b2", "--hw", "1,1", "--method", "pbw"],
        "syn11": ["gen", "--gcm", "b2", "--hw", "1,1", "--method", "axioms"],
        "pbw30": ["gen", "--gcm", "b2", "--hw", "3,0", "--method", "pbw"],
    }.items():
        out = tmp_path / f"{name}.json"
        assert main(args + ["--out", str(out)]) == 0
        paths[name] = str(out)
    return paths


def test_gen_writes_documents(docs):
    doc = json.load(open(docs["pbw11"]))
    assert len(doc["vertices"]) == 16
    assert doc["cartan"] == [[2, -2], [-1, 2]]
    assert doc["max"] == 0
    labels = pbw.generate((1, 1)).labels
    assert [(v["a"], v["x"]) for v in doc["vertices"]] == [(list(m.a), list(m.x)) for m in labels]
    syn = json.load(open(docs["syn11"]))
    assert all("wt" in v and "eps" in v and "phi" in v for v in syn["vertices"])


def test_gen_single_vertex(tmp_path):
    out = tmp_path / "one.json"
    assert main(["gen", "--gcm", "b2", "--hw", "0,0", "--method", "axioms", "--out", str(out)]) == 0
    doc = json.load(open(out))
    assert len(doc["vertices"]) == 1 and doc["edges"] == []


def test_gen_large_finite_type_matrix(tmp_path, capsys):
    # B65 has 4,225 positive roots; its crystal at the zero weight is one
    # vertex, which the Weyl dimension's root closure must not refuse
    n = 65
    rows = [[2 if p == q else -1 if abs(p - q) == 1 else 0 for q in range(n)] for p in range(n)]
    rows[n - 2][n - 1] = -2
    spec, out = tmp_path / "b65.json", tmp_path / "b65crystal.json"
    spec.write_text(json.dumps({"cartan": rows}))
    argv = ["gen", "--gcm", f"custom:{spec}", "--hw", ",".join(["0"] * n), "--method", "axioms", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote {out}: 1 vertices, 0 edges\n"
    assert len(load_doc(out)["vertices"]) == 1


def test_gen_rejects_pbw_on_rank3(tmp_path):
    out = tmp_path / "x.json"
    assert main(["gen", "--gcm", "b3", "--hw", "1,0,0", "--method", "pbw", "--out", str(out)]) == 2
    assert main(["gen", "--gcm", "b3", "--hw", "1,0", "--method", "axioms", "--out", str(out)]) == 2
    assert main(["gen", "--gcm", "b3", "--hw", "1,0,0", "--method", "axioms", "--out", str(out)]) == 0


def test_gen_budget_exit(tmp_path, monkeypatch):
    monkeypatch.setenv("CRYSTAL_BUDGET", "5")
    out = tmp_path / "big.json"
    assert main(["gen", "--gcm", "b2", "--hw", "3,3", "--method", "pbw", "--out", str(out)]) == 3


@pytest.mark.parametrize("gcm, hw, dim", [("b2", "3,3", 256), ("b3", "1,1,1", 512), ("b2", "0,0", 1)])
def test_gen_axioms_budget_at_the_dimension(tmp_path, monkeypatch, gcm, hw, dim):
    # exit 3 one vertex short, by the Weyl dimension before synthesis; the
    # top vertex counts, so a budget of 0 refuses even one vertex
    out = tmp_path / "g.json"
    argv = ["gen", "--gcm", gcm, "--hw", hw, "--method", "axioms", "--out", str(out)]
    monkeypatch.setenv("CRYSTAL_BUDGET", str(dim - 1))
    assert main(argv) == 3 and not out.exists()
    monkeypatch.setenv("CRYSTAL_BUDGET", str(dim))
    assert main(argv) == 0 and len(load_doc(out)["vertices"]) == dim


@pytest.mark.parametrize("hw, dim", [("3,3", 256), ("0,0", 1)])
def test_gen_pbw_budget_at_the_dimension(tmp_path, monkeypatch, hw, dim):
    out = tmp_path / "g.json"
    argv = ["gen", "--hw", hw, "--method", "pbw", "--out", str(out)]
    monkeypatch.setenv("CRYSTAL_BUDGET", str(dim - 1))
    assert main(argv) == 3 and not out.exists()
    monkeypatch.setenv("CRYSTAL_BUDGET", str(dim))
    assert main(argv) == 0 and len(load_doc(out)["vertices"]) == dim


def test_gen_pbw_over_budget_refuses_before_generating(tmp_path, capsys, monkeypatch):
    # the Weyl dimension is the vertex count, so a crystal over the budget
    # is refused before any vertex is built
    out = tmp_path / "g.json"
    monkeypatch.setenv("CRYSTAL_BUDGET", "1000000")
    monkeypatch.setattr(cli, "generate", lambda *args, **kwargs: pytest.fail("crystal generated over budget"))
    assert main(["gen", "--hw", "200,200", "--method", "pbw", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("budget exceeded: the crystal at (200, 200) has 1632240801 vertices, "
                            "over the budget 1000000\n")


def test_gen_axioms_over_budget_refuses_before_synthesis(tmp_path, capsys, monkeypatch):
    # a finite-type matrix has the Weyl dimension as its vertex count, so a
    # crystal over the budget is refused before synthesis, as gen --method
    # pbw refuses; an affine matrix has none and grows to the budget, and
    # an unsupported pair stays an input error over the budget too
    out, c21, g2 = tmp_path / "g.json", tmp_path / "c21.json", tmp_path / "g2.json"
    c21.write_text(json.dumps({"cartan": [[2, -1, 0], [-2, 2, -2], [0, -1, 2]]}))
    g2.write_text(json.dumps({"cartan": [[2, -3], [-1, 2]]}))
    monkeypatch.setenv("CRYSTAL_BUDGET", "3000")
    synthesize = builder.synthesize
    monkeypatch.setattr(cli, "synthesize", lambda *args, **kwargs: pytest.fail("crystal synthesized over budget"))
    for argv, code, err in (
            (["--gcm", "b3", "--hw", "3,3,3"], 3,
             "budget exceeded: the crystal at (3, 3, 3) has 262144 vertices, over the budget 3000\n"),
            (["--gcm", f"custom:{g2}", "--hw", "300,300"], 2,
             "input error: UnsupportedPair: pair (1,2) has off-diagonal entries (-3, -1)\n")):
        capsys.readouterr()
        assert main(["gen", *argv, "--method", "axioms", "--out", str(out)]) == code
        assert capsys.readouterr() == ("", err) and not out.exists()
    monkeypatch.setattr(cli, "synthesize", synthesize)
    assert main(["gen", "--gcm", f"custom:{c21}", "--hw", "1,0,0", "--method", "axioms", "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", "budget exceeded: vertex budget 3000 exceeded\n") and not out.exists()


def test_a_refused_gen_stays_in_bounded_memory(tmp_path, monkeypatch):
    # refused by its Weyl dimension, 262,144 vertices over a budget of
    # 100,000, before anything is built: a gen that built to the budget
    # first would trace tens of MB, at about 0.4 KB a vertex
    out = tmp_path / "g.json"
    monkeypatch.setenv("CRYSTAL_BUDGET", "100000")
    tracemalloc.start()
    try:
        assert main(["gen", "--gcm", "b3", "--hw", "3,3,3", "--method", "axioms", "--out", str(out)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20 and not out.exists()


@pytest.mark.parametrize("value", ["-1", "x"])
def test_budget_must_be_a_nonnegative_integer(docs, tmp_path, capsys, monkeypatch, value):
    # a budget that is not a count is an input error of every command, named
    # by its variable, not an int() error or an empty crystal
    out = tmp_path / "out"
    monkeypatch.setenv("CRYSTAL_BUDGET", value)
    for argv in (["gen", "--hw", "0,0", "--method", "pbw", "--out", str(out)],
                 ["gen", "--hw", "0,0", "--method", "axioms", "--out", str(out)],
                 ["check", "--in", docs["pbw11"]], ["iso", docs["pbw11"], docs["pbw11"]],
                 ["export-dot", "--in", docs["pbw11"], "--out", str(out)],
                 ["verify-paper", "--max-hw", "0", "--max-box", "0"]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        out_text, err = capsys.readouterr()
        assert f"CRYSTAL_BUDGET must be a nonnegative integer, not '{value}'" in err and out_text == "", argv
        assert not out.exists()


def test_check_pass_and_fail(docs, tmp_path):
    rep = tmp_path / "rep.json"
    assert main(["check", "--in", docs["pbw11"], "--report", str(rep)]) == 0
    data = json.load(open(rep))
    assert data["pass"] is True and data["violations"] == []

    doc = json.load(open(docs["pbw11"]))
    del doc["edges"][7]
    broken = tmp_path / "broken.json"
    json.dump(doc, open(broken, "w"))
    assert main(["check", "--in", str(broken), "--report", str(rep)]) == 1
    data = json.load(open(rep))
    assert data["pass"] is False and data["violations"]


def test_check_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["check", "--in", str(bad)]) == 2
    assert main(["check", "--in", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command", [
    ["check", "--in", "{doc}"],
    ["iso", "{doc}", "{doc}"],
    ["export-dot", "--in", "{doc}", "--out", "{out}"],
    ["gen", "--gcm", "custom:{doc}", "--hw", "1,1", "--out", "{out}"],
])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, command):
    # nesting past the interpreter's recursion limit is a malformed file
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 200_000)
    capsys.readouterr()
    assert main([arg.format(doc=doc, out=tmp_path / "out") for arg in command]) == 2
    out, err = capsys.readouterr()
    assert str(doc) in err and "nested too deeply" in err
    assert "Traceback" not in out + err and "RecursionError" not in out + err


@pytest.mark.parametrize("contents, reason", [
    (b'{"index_set":[1,2],"cartan"', "Expecting ':' delimiter"),
    (b"\xff\xfe", "can't decode byte 0xff"),
])
def test_unreadable_json_names_the_file(docs, tmp_path, capsys, contents, reason):
    # a truncated file and one that is not UTF-8 are refused by path, in
    # either position of iso
    bad = tmp_path / "bad.json"
    bad.write_bytes(contents)
    for argv in (["check", "--in", bad], ["iso", bad, docs["pbw11"]], ["iso", docs["pbw11"], bad]):
        capsys.readouterr()
        assert main(list(map(str, argv))) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith(f"input error: ValueError: {bad}: ") and reason in err and out == "", (argv, err)


def test_missing_files_are_named(docs, tmp_path, capsys):
    # an input error prints its type and message, and a missing file's
    # message holds its path
    missing, out_path = tmp_path / "missing.json", tmp_path / "nodir" / "g.json"
    for argv, path in ((["check", "--in", missing], missing), (["iso", missing, docs["pbw11"]], missing),
                       (["iso", docs["pbw11"], missing], missing),
                       (["gen", "--hw", "1,1", "--out", out_path], out_path)):
        capsys.readouterr()
        assert main(list(map(str, argv))) == 2, argv
        out, err = capsys.readouterr()
        assert err.startswith("input error: FileNotFoundError: ") and repr(str(path)) in err and out == "", (argv, err)


def test_iso_cross_construction(docs, tmp_path):
    mapping = tmp_path / "map.json"
    assert main(["iso", docs["pbw11"], docs["syn11"], "--out", str(mapping)]) == 0
    pairs = json.load(open(mapping))
    assert len(pairs) == 16
    assert sorted(p[0] for p in pairs) == list(range(16))
    assert sorted(p[1] for p in pairs) == list(range(16))
    # the map is unique: against an id-permuted copy it is the permutation
    g = doc_to_graph(load_doc(docs["pbw11"]))
    permuted = tmp_path / "permuted.json"
    dump_doc(graph_to_doc(relabelled(g, 4)), permuted)
    name = renaming(g, 4)
    assert main(["iso", docs["pbw11"], str(permuted), "--out", str(mapping)]) == 0
    assert json.load(open(mapping)) == sorted([v, w] for v, w in name.items())
    assert main(["iso", str(permuted), docs["pbw11"], "--out", str(mapping)]) == 0
    assert json.load(open(mapping)) == sorted([w, v] for v, w in name.items())


def test_iso_identity(docs, tmp_path):
    assert main(["iso", docs["pbw11"], docs["pbw11"]]) == 0


def test_iso_mismatch(docs):
    assert main(["iso", docs["pbw11"], docs["pbw30"]]) == 1


def test_iso_precondition(docs, tmp_path, capsys):
    doc = json.load(open(docs["pbw11"]))
    del doc["edges"][0]
    broken = tmp_path / "b.json"
    json.dump(doc, open(broken, "w"))
    assert main(["iso", str(broken), docs["pbw11"]]) == 2
    capsys.readouterr()
    assert main(["iso", docs["syn11"], str(broken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: second graph fails certification: FAIL:")


def _passes_the_pre_check_only(g):
    """Graphs with g's clean degrees and one source that are not the
    crystal g: an i-string of g closed into a cycle away from the top, a
    detached monochromatic cycle, a vertex unreachable from the source (a
    two-color cycle), and a new top above g's, whose statistics differ."""
    n = len(g)
    x = next(x for x in range(1, n) if g.up[1][x] is None and g.down[1][x] is not None)
    t = x
    while g.down[1][t] is not None:
        t = g.down[1][t]
    for extra in ([(t, x, 1)], [(n, n + 1, 1), (n + 1, n, 1)], [(n, n + 1, 1), (n + 1, n, 2)], [(n, 0, 1)]):
        yield copy_mutable(g, extra_edges=extra)


def test_iso_certifies_the_second_document_like_check_all(tmp_path, monkeypatch, capsys):
    # a second document that passes the walk's pre-check but is not the
    # crystal gets the exit code, stdout and stderr of certifying both
    # documents first, in either order
    g = pbw.generate((1, 1))
    intact = tmp_path / "intact.json"
    dump_doc(graph_to_doc(g), intact)
    codes = set()
    for k, h in enumerate(_passes_the_pre_check_only(g)):
        assert not any(map(h.degree_violations, h.colors)) and len(h.sources()) == 1
        assert not axioms.check_all(h, g.cartan).passed
        path = tmp_path / f"h{k}.json"
        dump_doc(graph_to_doc(h), path)
        for pair in ((intact, path), (path, intact)):
            runs = []
            for build in (builder.build_isomorphism, reference_build_isomorphism):
                monkeypatch.setattr(cli, "build_isomorphism", build)
                capsys.readouterr()
                runs.append((main(["iso", *map(str, pair)]), *capsys.readouterr()))
            assert runs[0] == runs[1], (k, pair)
            codes.add(runs[0][0])
    assert codes == {2}


def test_iso_color_sets_differ(docs, tmp_path, capsys):
    b3 = tmp_path / "b3.json"
    assert main(["gen", "--gcm", "b3", "--hw", "1,0,0", "--method", "axioms", "--out", str(b3)]) == 0
    capsys.readouterr()
    # the first document supplies the matrix, so the second one mismatches
    for pair, colors, matrix in (((docs["pbw11"], str(b3)), "(1, 2, 3)", "(1, 2)"),
                                 ((str(b3), docs["pbw11"]), "(1, 2)", "(1, 2, 3)")):
        assert main(["iso", *pair]) == 2
        err = capsys.readouterr().err
        assert err == f"error: second graph has colors {colors} but the Cartan matrix has {matrix}\n"


def test_iso_refuses_mismatched_matrices(docs, tmp_path, capsys):
    # two documents that declare different matrices are an input error in
    # either order, not a certification under the first one's matrix; a
    # document without a matrix takes the other's
    doc = json.load(open(docs["pbw11"]))
    doc["cartan"] = [[2, -1], [-2, 2]]
    other = tmp_path / "transposed.json"
    json.dump(doc, open(other, "w"))
    capsys.readouterr()
    assert main(["check", "--in", str(other)]) == 1
    mine, theirs = "GCM([[2, -2], [-1, 2]], index_set=[1, 2])", "GCM([[2, -1], [-2, 2]], index_set=[1, 2])"
    for a, b, ma, mb in ((docs["pbw11"], str(other), mine, theirs), (str(other), docs["pbw11"], theirs, mine)):
        capsys.readouterr()
        assert main(["iso", a, b]) == 2
        assert capsys.readouterr().err == f"error: {a} and {b} declare different matrices: {ma} vs {mb}\n"
    doc["cartan"] = None
    bare = tmp_path / "bare.json"
    json.dump(doc, open(bare, "w"))
    assert main(["iso", str(bare), docs["pbw11"]]) == main(["iso", docs["pbw11"], str(bare)]) == 0
    capsys.readouterr()
    assert main(["iso", str(bare), str(other)]) == 2
    assert capsys.readouterr().err.startswith("error: first graph fails certification: FAIL:")


def test_iso_accepts_a_reordered_index_set(docs, tmp_path, capsys):
    # the same matrix over the index set listed as [2, 1] is the same
    # crystal: iso maps it by the identity in either order
    doc = json.load(open(docs["pbw11"]))
    doc["index_set"], doc["cartan"] = [2, 1], [[2, -1], [-2, 2]]
    reordered, mapping = tmp_path / "reordered.json", tmp_path / "map.json"
    json.dump(doc, open(reordered, "w"))
    assert main(["check", "--in", str(reordered)]) == 0
    for pair in ((docs["pbw11"], str(reordered)), (str(reordered), docs["pbw11"])):
        capsys.readouterr()
        assert main(["iso", *pair, "--out", str(mapping)]) == 0
        assert capsys.readouterr().out == "isomorphic on 16 vertices\n"
        assert json.load(open(mapping)) == [[v, v] for v in range(16)]


@pytest.mark.parametrize("declared, message", [
    (9999, "max 9999 is not a declared vertex"),
    (3, "error: document declares max 3, but the maximum element is 0"),
    (0.5, "max 0.5 is not an integer"),
])
def test_check_validates_declared_max(docs, tmp_path, capsys, declared, message):
    doc = json.load(open(docs["pbw11"]))
    doc["max"] = declared
    path = tmp_path / "edited.json"
    json.dump(doc, open(path, "w"))
    capsys.readouterr()
    assert main(["check", "--in", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_each_graph_certified_once(docs, tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return axioms.check_all(*args, **kwargs)

    for mod in (cli, builder):
        monkeypatch.setattr(mod, "check_all", counted)
    # a passing iso runs check_all on the first document only: the walk
    # certifies the second, here an id-permuted copy
    g = doc_to_graph(load_doc(docs["pbw11"]))
    permuted = tmp_path / "permuted.json"
    dump_doc(graph_to_doc(relabelled(g, 4)), permuted)
    assert main(["iso", docs["pbw11"], str(permuted)]) == 0
    assert [h.edges() for h in calls] == [g.edges()]
    # a failing one runs it on the second document too, so no outcome costs
    # more than certifying both: a broken first document stops after one
    # call, a broken second one and two certified mismatched ones take two
    doc = json.load(open(docs["pbw11"]))
    del doc["edges"][0]
    broken = tmp_path / "broken.json"
    json.dump(doc, open(broken, "w"))
    for pair, code, n in (((str(broken), docs["pbw11"]), 2, 1), ((docs["pbw11"], str(broken)), 2, 2),
                          ((docs["pbw11"], docs["pbw30"]), 1, 2)):
        calls.clear()
        assert main(["iso", *pair]) == code
        assert len(calls) == n, pair
    calls.clear()
    out = tmp_path / "syn.json"
    assert main(["gen", "--gcm", "b2", "--hw", "2,1", "--method", "axioms", "--out", str(out)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("change, message", [
    ({"to": 99}, "endpoint 99 is not a declared vertex"),
    ({"color": 7}, "color 7 is not in index_set"),
    ({"color": 1.5}, "color 1.5 is not an integer"),
    ({"to": 3.9}, "to 3.9 is not an integer"),
    ({"from": True}, "from True is not an integer"),
])
def test_check_rejects_bad_edge(docs, tmp_path, capsys, change, message):
    doc = json.load(open(docs["pbw11"]))
    doc["edges"][3].update(change)
    path = tmp_path / "edited.json"
    json.dump(doc, open(path, "w"))
    capsys.readouterr()
    assert main(["check", "--in", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(doc["edges"][3]) in err and message in err


def test_check_integer_fields(docs, tmp_path, capsys):
    # a non-integral vertex id or index_set entry is refused; integral floats
    # and numeric strings are read as int() reads them
    doc = json.load(open(docs["pbw11"]))
    path = tmp_path / "edited.json"
    for edit, message in (({"vertices": [{"id": 0.5}] + doc["vertices"][1:]}, "id 0.5 is not an integer"),
                          ({"index_set": [1, 2.5]}, "index_set entry 2.5 is not an integer"),
                          ({"cartan": [[2, -2.5], [-1, 2]]}, "Cartan entry a[1,2] -2.5 is not an integer"),
                          ({"cartan": [[2, -2], [True, 2]]}, "Cartan entry a[2,1] True is not an integer")):
        json.dump({**doc, **edit}, open(path, "w"))
        capsys.readouterr()
        assert main(["check", "--in", str(path)]) == 2
        assert message in capsys.readouterr().err
    edges = [{"from": str(e["from"]), "to": float(e["to"]), "color": e["color"]} for e in doc["edges"]]
    json.dump({**doc, "edges": edges, "index_set": ["1", 2.0], "cartan": [[2.0, "-2"], [-1, 2]], "max": "0"},
              open(path, "w"))
    assert main(["check", "--in", str(path)]) == 0
    assert doc_to_graph(json.load(open(path))).edges() == doc_to_graph(doc).edges()


def _permuted_mutants(doc, rng):
    """The document with its ids renamed by a seeded permutation and its
    arrays shuffled, intact and with one arrow deleted, redirected onto a
    vertex that already has an arrow of that color, or recorded twice."""
    ids = [v["id"] for v in doc["vertices"]]
    image = dict(zip(ids, rng.sample(range(3, 3 + 5 * len(ids), 5), len(ids))))
    vertices = [{**v, "id": image[v["id"]]} for v in doc["vertices"]]
    edges = [{"from": image[e["from"]], "to": image[e["to"]], "color": e["color"]} for e in doc["edges"]]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    base = {**doc, "vertices": vertices, "edges": edges, "max": image[doc["max"]]}
    yield base
    for k in rng.sample(range(len(edges)), 6):
        yield {**base, "edges": edges[:k] + edges[k + 1:]}
        taken = [e["to"] for e in edges if e["color"] == edges[k]["color"] and e["to"] != edges[k]["to"]]
        yield {**base, "edges": edges[:k] + [{**edges[k], "to": rng.choice(taken)}] + edges[k + 1:]}
        yield {**base, "edges": edges + [edges[k]]}


def test_check_reports_match_reference(tmp_path):
    # the bulk loader and the list passes, end to end: each report equals
    # the reference checker's on the same document loaded arrow by arrow
    rng = random.Random(6)
    doc = graph_to_doc(pbw.generate((2, 2)))
    path, report = tmp_path / "doc.json", tmp_path / "report.json"
    for k, mutant in enumerate(_permuted_mutants(doc, rng)):
        json.dump(mutant, open(path, "w"))
        code = main(["check", "--in", str(path), "--report", str(report)])
        want = reference_check_all(reference_load(mutant, b2_gcm()), b2_gcm())
        assert json.load(open(report)) == json.loads(json.dumps(want.to_dict())), k
        assert code == (0 if want.passed else 1) and (k == 0) == want.passed


def _pinned_check_documents(tmp_path):
    """Deletion, redirect (onto a fresh vertex) and duplicate-arrow mutants
    of B2 (3,3) for every third arrow, and every deletion mutant of B3 and
    C3 (0,1,0) generated through custom matrix files."""
    path = tmp_path / "b2.json"
    assert main(["gen", "--hw", "3,3", "--out", str(path)]) == 0
    doc = load_doc(path)
    edges, fresh = doc["edges"], {"id": len(doc["vertices"])}
    for k in range(0, len(edges), 3):
        rest = edges[:k] + edges[k + 1:]
        yield {**doc, "edges": rest}
        yield {**doc, "vertices": doc["vertices"] + [fresh], "edges": rest + [{**edges[k], "to": fresh["id"]}]}
        yield {**doc, "edges": edges + [edges[k]]}
    for rows in (B3_MATRIX_ROWS, C3_MATRIX_ROWS):
        spec = tmp_path / "m.json"
        spec.write_text(json.dumps({"cartan": rows}))
        assert main(["gen", "--gcm", f"custom:{spec}", "--hw", "0,1,0", "--method", "axioms",
                     "--out", str(path)]) == 0
        doc = load_doc(path)
        edges = doc["edges"]
        for k in range(len(edges)):
            yield {**doc, "edges": edges[:k] + edges[k + 1:]}


def test_check_reports_pinned(tmp_path, capsys):
    # exit codes, summaries and --report bytes of a fixed mutant set,
    # pinned by sha256 so that a faster checker must report the same bytes
    path, report = tmp_path / "doc.json", tmp_path / "report.json"
    digest = hashlib.sha256()
    documents = list(_pinned_check_documents(tmp_path))
    capsys.readouterr()
    for doc in documents:
        dump_doc(doc, path)
        report.unlink(missing_ok=True)
        code = main(["check", "--in", str(path), "--report", str(report)])
        written = report.read_bytes() if report.exists() else b""
        digest.update(f"{code}\n{capsys.readouterr().out}".encode() + written)
    assert digest.hexdigest() == (
        "545da25ed0e84daada8145818fa9cb65618415f9c5ce5082d085d86ea5501d9b")


def test_synthesized_documents_bytes_pinned(tmp_path):
    # every byte `gen --method axioms` writes for B2 in [0,4]^2, B3 and C3 at
    # (1,0,0), (0,0,1) and (1,1,1), and A3 at (1,1,1), pinned by one sha256
    # so that a change to the synthesizer's layer loop must write the same
    # documents
    cases = [("b2", lam) for lam in product(range(5), repeat=2)]
    cases += [(rows, lam) for rows in (B3_MATRIX_ROWS, C3_MATRIX_ROWS)
              for lam in ((1, 0, 0), (0, 0, 1), (1, 1, 1))]
    cases.append(([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], (1, 1, 1)))
    spec, out = tmp_path / "m.json", tmp_path / "doc.json"
    digest = hashlib.sha256()
    for rows, lam in cases:
        if rows != "b2":
            spec.write_text(json.dumps({"cartan": rows}))
        gcm = rows if rows == "b2" else f"custom:{spec}"
        hw = ",".join(map(str, lam))
        assert main(["gen", "--gcm", gcm, "--hw", hw, "--method", "axioms", "--out", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == (
        "5e6beafb31c835d1df321ccd5cf201d2cdd60bd40053fb785c1ba65611e40a9f")


def test_export_dot(docs, tmp_path):
    out = tmp_path / "g.dot"
    assert main(["export-dot", "--in", docs["pbw11"], "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("digraph crystal {")
    assert "penwidth" in text  # heavy 1-arrows
    assert 'label="2"' in text
    # byte-identical on rerun
    out2 = tmp_path / "g2.dot"
    main(["export-dot", "--in", docs["pbw11"], "--out", str(out2)])
    assert out2.read_text() == text


def test_custom_gcm(tmp_path):
    spec = tmp_path / "a2.json"
    spec.write_text(json.dumps({"index_set": [1, 2], "cartan": [[2, -1], [-1, 2]]}))
    out = tmp_path / "a2crystal.json"
    assert main(["gen", "--gcm", f"custom:{spec}", "--hw", "1,1", "--method", "axioms",
                 "--out", str(out)]) == 0
    doc = json.load(open(out))
    assert len(doc["vertices"]) == 8
    assert main(["check", "--in", str(out)]) == 0


def test_custom_gcm_refuses_fractional_entry(tmp_path, capsys):
    # -1.5 would otherwise be truncated to the A2 matrix
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"index_set": [1, 2], "cartan": [[2, -1.5], [-1, 2]]}))
    out = tmp_path / "m_crystal.json"
    assert main(["gen", "--gcm", f"custom:{spec}", "--hw", "1,1", "--method", "axioms",
                 "--out", str(out)]) == 2
    assert "Cartan entry a[1,2] -1.5 is not an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("entry", [1.5, True])
def test_custom_gcm_refuses_non_integral_index_set(tmp_path, capsys, entry):
    # GCM would take these as colors and write a document check refuses
    spec = tmp_path / "m.json"
    spec.write_text(json.dumps({"index_set": [entry, 2], "cartan": [[2, -1], [-1, 2]]}))
    out = tmp_path / "m_crystal.json"
    assert main(["gen", "--gcm", f"custom:{spec}", "--hw", "1,1", "--method", "axioms",
                 "--out", str(out)]) == 2
    assert f"index_set entry {entry} is not an integer" in capsys.readouterr().err
    assert not out.exists()


def test_verify_paper_cli(capsys):
    assert main(["verify-paper", "--max-hw", "1", "--max-box", "3"]) == 0
    out = capsys.readouterr().out
    assert "suites pass" in out
    # the claim texts, domain sizes and row order, pinned byte for byte
    assert main(["verify-paper", "--max-hw", "2", "--max-box", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e3c22a961155ac741f9c552aed017c698889fd05455ba5ab87472adc90dc3611")


@pytest.mark.parametrize("flag", ["--max-hw", "--max-box"])
def test_verify_paper_rejects_negative_bounds(capsys, flag):
    assert main(["verify-paper", flag, "-1"]) == 2
    out, err = capsys.readouterr()
    assert err == f"error: {flag} must be nonnegative\n" and out == ""


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["check", "--in", "{bare}"], 2, "", "error: document has no cartan matrix\n"),
    (["iso", "{bare}", "{bare}"], 2, "", "error: neither document has a cartan matrix\n"),
    (["iso", "{pbw11}", "{pbw30}"], 1, "not isomorphic: top statistics differ: {1: 1, 2: 1} vs {1: 3, 2: 0}\n", ""),
    (["gen", "--hw", "1,-1", "--out", "{out}"], 2, "", "error: --hw entries must be nonnegative\n"),
    (["gen", "--hw", "1", "--out", "{out}"], 2, "", "error: --hw needs 2 entries\n"),
    (["gen", "--gcm", "b3", "--hw", "1,0,0", "--out", "{out}"], 2, "",
     "error: the pbw method exists only for the b2 matrix\n"),
    (["gen", "--gcm", "nope", "--hw", "1,1", "--out", "{out}"], 2, "",
     "input error: ValueError: unknown matrix 'nope' (use b2, b3 or custom:<path>)\n"),
    (["gen", "--gcm", "custom:{empty}", "--hw", "1,1", "--out", "{out}"], 2, "",
     "input error: ValueError: empty Cartan matrix\n"),
    (["check", "--in", "{twice}"], 2, "",
     "input error: ValueError: colors must be a nonempty list of distinct labels\n"),
])
def test_refusals_pinned(docs, tmp_path, capsys, argv, code, stdout, stderr):
    # each refusal's exit code and its one line, byte for byte: a gen
    # document whose cartan is null (read directly), the same with a
    # repeated index_set (read as JSON), and a custom matrix with no rows
    text = Path(docs["pbw11"]).read_text().replace('"cartan":[[2,-2],[-1,2]]', '"cartan":null')
    paths = {**docs, "out": tmp_path / "out.json"}
    for name, contents in (("bare", text), ("twice", json.dumps({**json.loads(text), "index_set": [1, 1]})),
                           ("empty", json.dumps({"cartan": []}))):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(contents)
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == code
    assert capsys.readouterr() == (stdout, stderr)
    assert not paths["out"].exists()


def test_verify_paper_prints_a_failing_suite(capsys, monkeypatch):
    # a dimension formula that reads 0 fails the vertex-count suite: its
    # row is FAIL with the number of counterexamples, the first notes follow
    # it indented, the tally counts it, and the exit code is 1
    monkeypatch.setattr(oracle, "weyl_dim_general", lambda A, lam: 0)
    assert main(["verify-paper", "--max-hw", "1", "--max-box", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    row = next(k for k, line in enumerate(lines) if line.startswith("vertex counts vs dimension formula [0,1]^2"))
    assert lines[row].endswith("FAIL(4)")
    assert lines[row + 1] == "    (0, 0): general product 0, rank-2 formula 1"
    assert lines[-1] == "20/21 suites pass"


def test_library_refusals_pinned(monkeypatch):
    # the vertex budget counts the top vertex, so synthesis under a budget
    # of 0 refuses before its first layer; a transfer map that raises x4
    # lowers out of the crystal, and generate names the vertex
    with pytest.raises(BudgetExceeded, match=r"^vertex budget 0 exceeded$"):
        builder.synthesize(b2_gcm(), (1, 1), budget_vertices=0)
    transfer = kernel.r_transfer
    monkeypatch.setattr(kernel, "r_transfer", lambda a: (*transfer(a)[:3], transfer(a)[3] + 1))
    with pytest.raises(MembershipViolation, match=r"rejected by the x4 rule$"):
        pbw.generate((1, 1))


@pytest.mark.parametrize("command", [
    ["check", "--in", "{doc}"],
    ["iso", "{doc}", "{doc}"],
    ["export-dot", "--in", "{doc}", "--out", "{out}"],
])
def test_budget_bounds_every_command(docs, tmp_path, capsys, monkeypatch, command):
    # a 16-vertex document against a budget of 15 and of 16: refused with
    # exit 3 before any graph is built, then run
    argv = [arg.format(doc=docs["pbw11"], out=tmp_path / "out.dot") for arg in command]
    monkeypatch.setattr(cli, "doc_to_graph", lambda doc: pytest.fail("graph built over budget"))
    monkeypatch.setenv("CRYSTAL_BUDGET", "15")
    capsys.readouterr()
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("budget exceeded: ")
    assert not (tmp_path / "out.dot").exists()
    monkeypatch.undo()
    monkeypatch.setenv("CRYSTAL_BUDGET", "16")
    assert main(argv) == 0


def test_verify_paper_budget_bounds_box_and_crystals(capsys, monkeypatch):
    # --max-hw 0 --max-box 1 scans the 2^4-point lemma box and builds the
    # 1-vertex crystal (0,0) and the 625-vertex default extra crystal (4,4)
    argv = ["verify-paper", "--max-hw", "0", "--max-box", "1"]
    for budget, code, err in (
        (15, 3, "budget exceeded: the lemma box [0,1]^4 exceeds the budget 15\n"),
        (624, 3, "budget exceeded: the crystal at (4, 4) has 625 vertices, over the budget 624\n"),
        (625, 0, ""),
    ):
        monkeypatch.setenv("CRYSTAL_BUDGET", str(budget))
        assert main(argv) == code
        out = capsys.readouterr()
        assert out.err == err and (out.out == "") == (code == 3)
    # the grid's largest crystal, (6,6) with 2,401 vertices, is refused
    # before any crystal is generated
    monkeypatch.setenv("CRYSTAL_BUDGET", "100")
    monkeypatch.setattr(pbw, "generate", lambda *args, **kwargs: pytest.fail("crystal generated over budget"))
    assert main(["verify-paper", "--max-hw", "6", "--max-box", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "(6, 6) has 2401 vertices" in out.err


def test_json_roundtrip_identity():
    g = pbw.generate((2, 1))
    doc = graph_to_doc(g)
    g2 = doc_to_graph(doc)
    assert g2.vertices() == g.vertices()
    assert g2.edges() == g.edges()
    assert graph_to_doc(g2) == {**doc, "vertices": [{"id": v} for v in g.ids]}  # labels are not loaded
    assert graph_to_dot(g2) == graph_to_dot(g)


def test_loader_ignores_labels(docs, tmp_path, capsys):
    # a/x are written by gen and read by no command: the loaded graph has no
    # labels, and a malformed a/x changes no output
    doc = load_doc(docs["pbw11"])
    assert doc_to_graph(doc).labels == [None] * 16
    vertices = [{**v} for v in doc["vertices"]]
    vertices[3]["x"], vertices[5]["a"], vertices[7]["a"] = "zz", 5, [9, 9, 9, 9]
    edited = tmp_path / "edited.json"
    dump_doc({**doc, "vertices": vertices}, edited)
    outputs = []
    for path in (docs["pbw11"], str(edited)):
        assert main(["check", "--in", path]) == 0
        assert main(["iso", path, docs["syn11"]]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_vertex_order_does_not_matter(docs, tmp_path):
    # the loader sorts the ids, so a document whose vertex list is reversed
    # or shuffled writes the same report, DOT text and mapping as the sorted one
    doc = load_doc(docs["pbw11"])
    rest = {**doc, "edges": doc["edges"][1:]}  # one violation at least
    shuffled = random.Random(3).sample(doc["vertices"], len(doc["vertices"]))
    assert shuffled != doc["vertices"]
    outputs = []
    for vertices in (doc["vertices"], doc["vertices"][::-1], shuffled):
        given, out = tmp_path / "given.json", tmp_path / "out"
        dump_doc({**doc, "vertices": vertices}, given)
        written = []
        for argv in (["check", "--in", given, "--report", out], ["export-dot", "--in", given, "--out", out],
                     ["iso", given, docs["syn11"], "--out", out]):
            assert main(list(map(str, argv))) == 0
            written.append(out.read_bytes())
        dump_doc({**rest, "vertices": vertices}, given)
        assert main(["check", "--in", str(given), "--report", str(out)]) == 1
        outputs.append(written + [out.read_bytes()])
    assert outputs[0] == outputs[1] == outputs[2]


def test_duplicate_ids_name_the_first_repeat(docs, tmp_path, capsys):
    # the first id seen twice in document order, whatever the sorted order
    doc = load_doc(docs["pbw11"])
    path = tmp_path / "dup.json"
    dump_doc({**doc, "vertices": [{"id": v} for v in (3, 1, 3, 1)], "edges": []}, path)
    capsys.readouterr()
    assert main(["check", "--in", str(path)]) == 2
    assert capsys.readouterr().err == "input error: ValueError: vertex 3 already present\n"


def _writer_cases():
    """(graph, stats) pairs that the direct writer must write as the
    reference tree's json.dumps text: generated and synthesized documents,
    colors listed out of order, a loaded mutant with no matrix and no
    maximum element, and integers past 64 bits."""
    for lam in ((0, 0), (2, 1), (4, 4)):
        yield pbw.generate(lam), False
    for M, lam in SYNTHESIS_CASES:
        yield builder.synthesize(M, lam), True
    yield builder.synthesize(GCM([[2, -1], [-2, 2]], index_set=[2, 1]), (2, 1)), True
    yield builder.synthesize(GCM(B3_MATRIX_ROWS, index_set=[5, 0, 3]), (1, 0, 1)), True
    doc = graph_to_doc(pbw.generate((1, 1)))
    mutant = doc_to_graph({**doc, "cartan": None, "edges": doc["edges"][1:]})
    assert mutant.cartan is None and mutant.maximum_elements() == []
    yield mutant, False
    big = PbwElement((2**70, 0, 1, 2**64), (3, 2**70, 0, 5))
    yield build_graph([1, 2], [7, 10**20], [(7, 10**20, 2)], labels=[big, None], cartan=b2_gcm()), False


def test_writer_matches_reference():
    # gen's direct formatting writes exactly the text of json.dumps on the
    # dict tree it replaced, key order, separators and big integers included
    for g, stats in _writer_cases():
        text = graph_to_json(g, stats)
        assert text == json.dumps(reference_graph_to_doc(g, stats), separators=(",", ":")), (g.colors, len(g))
        if not stats:
            assert graph_to_doc(g) == reference_graph_to_doc(g)
        if g.colors == (5, 0, 3):
            doc = json.loads(text)
            assert doc["index_set"] == [5, 0, 3] and list(doc["vertices"][0]["eps"]) == ["0", "3", "5"]


@pytest.mark.parametrize("method", ["pbw", "axioms"])
def test_gen_counts_the_edges_it_writes(tmp_path, capsys, method):
    # the printed count is read off the graph, not off a written document
    out = tmp_path / "g.json"
    capsys.readouterr()
    assert main(["gen", "--hw", "3,2", "--method", method, "--out", str(out)]) == 0
    doc = load_doc(out)
    assert capsys.readouterr().out == f"wrote {out}: {len(doc['vertices'])} vertices, {len(doc['edges'])} edges\n"
    assert len(doc["edges"]) > 0


def test_dump_load_roundtrip(tmp_path):
    syn = builder.synthesize(b2_gcm(), (2, 1))
    cases = {
        "pbw": graph_to_doc(pbw.generate((2, 1))),
        "axioms": reference_graph_to_doc(syn, stats=True),
    }
    for name, doc in cases.items():
        path = tmp_path / f"{name}.json"
        dump_doc(doc, str(path))
        assert load_doc(str(path)) == doc
        assert path.read_text().count("\n") == 1  # one compact line


_NOT_OBJECTS = ([1, 2], "doc", 7, None)
_NOT_ARRAYS = ("12", {"1": 0, "2": 0}, 12)


def _malformed_inputs(doc):
    """(file contents, the commands that read the file, text the error must
    hold): every non-object file; every field that must be an array replaced
    by a string, an object and a number, in a document and in a custom matrix
    file; missing fields and entries without an integer field; entries that
    are not objects, integer fields that hold an array or an object, and
    --hw entries that are not integers."""
    commands = (["check", "--in", "{f}"], ["iso", "{f}", "{f}"],
                ["export-dot", "--in", "{f}", "--out", "{out}"],
                ["gen", "--gcm", "custom:{f}", "--hw", "1,1", "--method", "axioms", "--out", "{out}"])
    for value in _NOT_OBJECTS:
        yield value, commands, "{f} must hold a JSON object"
    spec = {"index_set": [1, 2], "cartan": [[2, -1], [-1, 2]]}
    for value in _NOT_ARRAYS:
        for field in ("index_set", "cartan", "vertices", "edges"):
            yield {**doc, field: value}, commands[:3], f"{field} is not an array"
        yield {**doc, "cartan": [value, [-1, 2]]}, commands[:3], "cartan row 1 is not an array"
        for field in ("index_set", "cartan"):
            yield {**spec, field: value}, commands[3:], f"{field} is not an array"
        yield {**spec, "cartan": [[2, -1], value]}, commands[3:], "cartan row 2 is not an array"
    edge = {**doc["edges"][0], "from": {}}
    nameless, headless = {"idx": 1}, {k: v for k, v in doc["edges"][0].items() if k != "to"}
    for field in ("index_set", "vertices", "edges"):
        yield {k: v for k, v in doc.items() if k != field}, commands[:3], f"document has no {field} field"
    yield {k: v for k, v in spec.items() if k != "cartan"}, commands[3:], "{f} has no cartan field"
    for edit, message in ((("vertices", [{"id": 0}, nameless]), f"vertex entry {nameless!r} has no id field"),
                          (("edges", doc["edges"][:1] + [headless]), f"edge entry {headless!r} has no to field"),
                          (("vertices", [1, 2]), "vertex entry 1 is not an object"),
                          (("vertices", ["ab"]), "vertex entry 'ab' is not an object"),
                          (("edges", [3]), "edge entry 3 is not an object"),
                          (("edges", [edge] + doc["edges"][1:]), f"edge {edge}: from {{}} is not an integer"),
                          (("max", [0]), "max [0] is not an integer"),
                          (("index_set", [[1], 2]), "index_set entry [1] is not an integer")):
        yield dict([*doc.items(), edit]), commands[:3], message
    yield {**spec, "index_set": [[1], 2]}, commands[3:], "index_set entry [1] is not an integer"
    for hw in ("1,x", "1,"):
        yield spec, [commands[3][:4] + [hw] + commands[3][5:]], "error: --hw entries must be integers"


def test_malformed_field_types_are_input_errors(tmp_path, capsys):
    # a string or an object iterates as characters or keys, so each of these
    # was read as an array (or crashed) before it was refused by name; main
    # must return 2, not raise
    path, out = tmp_path / "malformed.json", tmp_path / "out"
    for contents, commands, message in _malformed_inputs(graph_to_doc(pbw.generate((1, 1)))):
        path.write_text(json.dumps(contents))
        for command in commands:
            capsys.readouterr()
            assert main([arg.format(f=path, out=out) for arg in command]) == 2, (contents, command)
            out_text, err = capsys.readouterr()
            assert message.replace("{f}", str(path)) in err and out_text == "", (contents, command, err)
            assert not out.exists()


def test_handlers_are_looked_up_on_each_call(docs, monkeypatch):
    # main keeps its parser between calls but resolves cmd_* by name, so a
    # wrapper installed after the parser was built still runs
    assert main(["check", "--in", docs["pbw11"]]) == 0
    monkeypatch.setattr(cli, "cmd_check", lambda args: 7)
    assert main(["check", "--in", docs["pbw11"]]) == 7
    monkeypatch.undo()
    assert main(["check", "--in", docs["pbw11"]]) == 0


def test_repeated_calls_give_the_first_results(docs, tmp_path, capsys):
    # gen, check and iso run twice in one process, with a parse error,
    # --version and non-default flags in between, write the same bytes
    doc = load_doc(docs["pbw11"])
    broken = tmp_path / "broken.json"
    dump_doc({**doc, "edges": doc["edges"][1:]}, broken)
    out = tmp_path / "out"
    argvs = [["gen", "--hw", "2,1", "--out", out], ["gen", "--hw", "2,1", "--method", "axioms", "--out", out],
             ["check", "--in", docs["pbw11"], "--report", out], ["check", "--in", broken, "--report", out],
             ["iso", docs["pbw11"], docs["syn11"], "--out", out], ["iso", docs["pbw11"], docs["pbw30"]]]

    def results():
        runs = []
        for argv in argvs:
            out.unlink(missing_ok=True)
            code = main(list(map(str, argv)))
            runs.append((code, capsys.readouterr(), out.read_bytes() if out.exists() else None))
        return runs

    capsys.readouterr()
    first = results()
    assert [run[0] for run in first] == [0, 0, 0, 1, 0, 1]
    for argv, code in ((["check"], 2), (["--version"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert main(["verify-paper", "--max-hw", "0", "--max-box", "0"]) == 0
    args = cli.build_parser().parse_args(["verify-paper"])
    assert (args.max_hw, args.max_box) == (3, 8)
    capsys.readouterr()
    assert results() == first


def test_import_leaves_out_dataclasses_inspect_and_typing():
    # each command is a fresh process that imports the package first; the
    # package loads none of these modules, nor what inspect pulls in.  A
    # fresh interpreter, since this one has imported them already, and
    # without site, whose .pth hooks may import typing themselves.
    probe = ("import sys, b2crystal.cli, b2crystal.oracle; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_exit_codes_of_a_real_process(tmp_path):
    # the exit status the shell sees, through the module's __main__ line:
    # a written document, a check that finds a violation, a refused flag
    g, broken, out = tmp_path / "g.json", tmp_path / "broken.json", tmp_path / "out.json"
    doc = graph_to_doc(pbw.generate((1, 1)))
    dump_doc({**doc, "edges": doc["edges"][1:]}, broken)
    for argv, code in ((["gen", "--hw", "1,1", "--out", g], 0), (["check", "--in", broken], 1),
                       (["gen", "--hw", "1,-1", "--out", out], 2)):
        done = subprocess.run([sys.executable, "-m", "b2crystal.cli", *map(str, argv)],
                              env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True)
        assert done.returncode == code, (argv, done.stderr)
    assert g.exists() and not out.exists()


_HOSTILE_BASE = graph_to_doc(pbw.generate((1, 1)))
# name -> (the edited fields, the exit codes of check, iso and export-dot).
# A matrix that is a GCM but has a pair the checker does not support is an
# S1 violation, not an input error, and export-dot reads no matrix; a 10**30
# id is read exactly, as a second source.
_HOSTILE = {
    "ragged cartan": ({"cartan": [[2, -2], [-1]]}, 2, 2, 2),
    "oversized cartan": ({"cartan": [[2, -2, 0], [-1, 2, 0], [0, 0, 2]]}, 2, 2, 2),
    "string cartan": ({"cartan": "[[2,-2],[-1,2]]"}, 2, 2, 2),
    "object cartan": ({"cartan": {"1": [2, -2], "2": [-1, 2]}}, 2, 2, 2),
    "G2 pair": ({"cartan": [[2, -3], [-1, 2]]}, 1, 2, 0),
    "A1(1)": ({"cartan": [[2, -2], [-2, 2]]}, 1, 2, 0),
    "non-symmetric zero": ({"cartan": [[2, 0], [-1, 2]]}, 2, 2, 2),
    "diagonal entry 3": ({"cartan": [[3, -2], [-1, 2]]}, 2, 2, 2),
    "duplicate index_set": ({"index_set": [1, 1]}, 2, 2, 2),
    "empty index_set": ({"index_set": []}, 2, 2, 2),
    "null vertices": ({"vertices": None}, 2, 2, 2),
    "10**30 id": ({"vertices": _HOSTILE_BASE["vertices"] + [{"id": 10**30}]}, 1, 2, 0),
    "bad max": ({"max": 99}, 2, 2, 2),
}


@pytest.mark.parametrize("name", _HOSTILE)
def test_hostile_documents_exit_cleanly(tmp_path, capsys, name):
    # main catches only OSError and ValueError as input errors, so a program
    # bug that raises anything else shows as a traceback here.  Each document
    # is written both as gen writes it (read directly) and spaced (read as
    # JSON), with the same outputs; exit 2 is one line naming the refusal
    edit, *codes = _HOSTILE[name]
    path, out = tmp_path / "hostile.json", tmp_path / "out.dot"
    commands = (["check", "--in", path], ["iso", path, path], ["export-dot", "--in", path, "--out", out])
    runs = []
    for text in (json.dumps({**_HOSTILE_BASE, **edit}, separators=(",", ":")), json.dumps({**_HOSTILE_BASE, **edit})):
        path.write_text(text + "\n")
        capsys.readouterr()
        runs.append([(main(list(map(str, argv))), *capsys.readouterr()) for argv in commands])
    assert runs[0] == runs[1]
    assert [code for code, _, _ in runs[0]] == codes
    for code, stdout, stderr in runs[0]:
        if code == 2:
            assert stdout == "" and stderr.count("\n") == 1
            assert stderr.startswith(("input error: ValueError: ", "error: first graph fails certification: "))


@pytest.mark.parametrize("rows", [[[2, -1], [-1]], [[2, "x"], [-1, 2]], [[2, 0], [-1, 2]],
                                  [[3, -1], [-1, 2]], [[2, -3], [-1, 2]], [[2, -2], [-2, 2]], []])
def test_hostile_custom_matrices_are_input_errors(tmp_path, capsys, rows):
    # ragged, non-numeric, a non-symmetric zero, a diagonal 3, G2, A1(1) and
    # no rows
    spec, out = tmp_path / "m.json", tmp_path / "g.json"
    spec.write_text(json.dumps({"cartan": rows}))
    capsys.readouterr()
    assert main(["gen", "--gcm", f"custom:{spec}", "--hw", "1,1", "--method", "axioms", "--out", str(out)]) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == "" and stderr.count("\n") == 1 and stderr.startswith("input error: ")
    assert not out.exists()


# gen's plain and stats texts of B2 (1,1) and (2,1), as gen writes them
_FUZZ_SOURCES = [graph_to_json(g, stats) + "\n" for lam in ((1, 1), (2, 1))
                 for g, stats in ((pbw.generate(lam), False), (builder.synthesize(b2_gcm(), lam), True))]
# wrong types and out-of-range values for any field
_FUZZ_VALUES = (None, True, 1.5, "1", "", [], {}, [0], {"1": 0}, -1, 0, 2, 99, 10**30, -10**30)


def _fuzz_paths(node):
    """(parent, key) of every field and entry below node, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield node, key
        yield from _fuzz_paths(child)


@st.composite
def edited_documents(draw):
    """(source index, text): 1-3 JSON-level edits of a source document, each
    deleting or duplicating an arrow, setting a field or entry to a value of
    the wrong type or out of range, or dropping a field; the text written as
    gen writes it, then maybe truncated."""
    k = draw(st.integers(0, len(_FUZZ_SOURCES) - 1))
    doc = json.loads(_FUZZ_SOURCES[k])
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["delete arrow", "duplicate arrow", "set", "drop"]))
        edges = doc.get("edges")
        if edit.endswith("arrow") and isinstance(edges, list) and edges:
            at = draw(st.integers(0, len(edges) - 1))
            if edit == "delete arrow":
                del edges[at]
            else:
                edges.insert(draw(st.integers(0, len(edges))), json.loads(json.dumps(edges[at])))
            continue
        fields = [(node, key) for node, key in _fuzz_paths(doc) if edit == "set" or isinstance(node, dict)]
        if fields:
            node, key = draw(st.sampled_from(fields))
            if edit == "set":
                node[key] = draw(st.sampled_from(_FUZZ_VALUES))
            else:
                del node[key]
    text = json.dumps(doc, separators=(",", ":")) + "\n"
    return k, text[:draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=edited_documents())
def test_edited_documents_exit_with_a_code(tmp_path, case):
    # check, iso both ways against the intact source, and export-dot on an
    # edited document each return an exit code, 0-3; no exception escapes
    # main, whose input-error net is OSError and ValueError only
    k, text = case
    path, intact, out = tmp_path / "edited.json", tmp_path / "intact.json", tmp_path / "out.dot"
    path.write_text(text)
    intact.write_text(_FUZZ_SOURCES[k])
    for argv in (["check", "--in", path], ["iso", path, intact], ["iso", intact, path],
                 ["export-dot", "--in", path, "--out", out]):
        assert main(list(map(str, argv))) in (0, 1, 2, 3), (text, argv)
