"""The direct reader of gen's own text (cli.json_to_graph) against the JSON
path it stands beside (cli.load_doc and cli.doc_to_graph), which stays the
reference: on every document both give the same graph, the same `check`,
`iso` and `export-dot` output and the same exit code, and the documents gen
writes take the direct reader."""

import io
import json
import os
import random
import re
import sys
import threading
import time
import tracemalloc
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from b2crystal import builder, cli, pbw
from b2crystal.cartan import B3_MATRIX_ROWS, GCM, b2_gcm, b3_gcm
from b2crystal.cli import doc_to_graph, dump_doc, graph_to_doc, graph_to_json, json_to_graph, load_doc, main
from b2crystal.graph import ColoredGraph
from helpers import reference_load

# (matrix, top statistics, method) of the documents gen writes here
GEN_CASES = [("b2", hw, method) for hw in ("0,0", "1,0", "3,5", "5,5") for method in ("pbw", "axioms")]
GEN_CASES.append(("b3", "1,0,0", "axioms"))


def _gen(tmp_path, gcm, hw, method):
    path = tmp_path / f"{gcm}-{hw}-{method}.json"
    assert main(["gen", "--gcm", gcm, "--hw", hw, "--method", method, "--out", str(path)]) == 0
    return path


def _mutants(doc, rng):
    """The benchmark's kinds of document, written as gen writes them: the
    ids permuted within 0..n-1 (the vertex list left in document order), and
    one arrow deleted, redirected onto a vertex that already has an arrow of
    that color, or recorded twice."""
    n, edges = len(doc["vertices"]), doc["edges"]
    image = rng.sample(range(n), n)
    yield {**doc, "vertices": [{**v, "id": image[v["id"]]} for v in doc["vertices"]],
           "edges": [{**e, "from": image[e["from"]], "to": image[e["to"]]} for e in edges],
           "max": image[doc["max"]]}
    for k in rng.sample(range(len(edges)), min(3, len(edges))):
        yield {**doc, "edges": edges[:k] + edges[k + 1:]}
        taken = [e["to"] for e in edges if e["color"] == edges[k]["color"] and e["to"] != edges[k]["to"]]
        if taken:
            yield {**doc, "edges": edges[:k] + [{**edges[k], "to": rng.choice(taken)}] + edges[k + 1:]}
        yield {**doc, "edges": edges + [edges[k]]}


def _documents(tmp_path):
    """Each gen document of GEN_CASES, then its mutants, as paths."""
    rng = random.Random(26)
    for case in GEN_CASES:
        path = _gen(tmp_path, *case)
        yield path
        for k, mutant in enumerate(_mutants(load_doc(path), rng)):
            mutant_path = tmp_path / f"{path.stem}-mutant{k}.json"
            dump_doc(mutant, mutant_path)
            yield mutant_path


def _graph(g):
    return g.ids, g.labels, g.arrows, g.up, g.down, g.colors, g.cartan and g.cartan.rows


def _both_paths(monkeypatch, capsys, argvs, outputs):
    """(exit code, stdout, stderr, bytes of each output file) of each
    command line, run with the direct reader and then with only the JSON
    path."""
    runs = []
    for reference in (False, True):
        with monkeypatch.context() as m:
            if reference:
                m.setattr(cli, "json_to_graph", lambda text, path: None)
            run = []
            for argv in argvs:
                for out in outputs:
                    out.unlink(missing_ok=True)
                capsys.readouterr()
                code = main(list(map(str, argv)))
                run.append((code, *capsys.readouterr(), [out.read_bytes() if out.exists() else None for out in outputs]))
            runs.append(run)
    return runs


def _commands(path, other, tmp_path):
    report, mapping, dot = tmp_path / "report.json", tmp_path / "map.json", tmp_path / "doc.dot"
    argvs = (["check", "--in", path, "--report", report], ["iso", path, other, "--out", mapping],
             ["iso", other, path], ["export-dot", "--in", path, "--out", dot])
    return argvs, (report, mapping, dot)


def test_gen_documents_take_the_direct_reader(tmp_path):
    # every document gen writes, and every benchmark-style mutant of one, is
    # read by json_to_graph, not passed on to the JSON path: a change to
    # graph_to_json that the reader does not follow fails here
    for path in _documents(tmp_path):
        assert json_to_graph(path.read_bytes(), path) is not None, path.name


def test_direct_reader_matches_reference(tmp_path, monkeypatch, capsys):
    # the graph (ids, arrows, navigation, matrix), the declared max, and the
    # output of check, iso and export-dot are those of the JSON path
    intact = {}
    for path in _documents(tmp_path):
        g, declared = json_to_graph(path.read_bytes(), path)
        doc = load_doc(path)
        assert _graph(g) == _graph(doc_to_graph(doc)) and declared == doc.get("max"), path.name
        other = intact.setdefault(path.stem.split("-mutant")[0], path)
        runs = _both_paths(monkeypatch, capsys, *_commands(path, other, tmp_path))
        assert runs[0] == runs[1], path.name


def _renamed(doc, image):
    """doc with each id v renamed image.get(v, v), in its arrows and max too."""
    def name(v):
        return image.get(v, v)
    return {**doc, "vertices": [{**v, "id": name(v["id"])} for v in doc["vertices"]],
            "edges": [{**e, "from": name(e["from"]), "to": name(e["to"])} for e in doc["edges"]],
            "max": name(doc["max"])}


def test_ids_other_than_a_permutation_read_alike(tmp_path, monkeypatch, capsys):
    # the direct reader takes gen's text only with the ids 0..n-1, in any
    # order: a duplicate id (of a vertex whose arrows are gone, so that no
    # arrow names the missing id), a gap, an id equal to n go to the JSON
    # path, and all four read alike on both paths
    path = _gen(tmp_path, "b2", "1,1", "pbw")
    doc = load_doc(path)
    n = len(doc["vertices"])
    vertices = doc["vertices"]
    kept = [e for e in doc["edges"] if n - 1 not in (e["from"], e["to"])]
    edits = {
        "duplicate id": ({**doc, "vertices": vertices[:-1] + [{**vertices[-1], "id": n - 2}], "edges": kept}, False),
        "gap": (_renamed(doc, {5: n + 1}), False),
        "id equal to n": (_renamed(doc, {n - 1: n}), False),
        "out of order": ({**doc, "vertices": vertices[::-1]}, True),
    }
    for name, (edited, direct) in edits.items():
        edited_path = tmp_path / f"{name.replace(' ', '-')}.json"
        dump_doc(edited, edited_path)
        found = json_to_graph(edited_path.read_bytes(), edited_path)
        assert (found is not None) == direct, name
        if direct:
            assert _graph(found[0]) == _graph(doc_to_graph(edited)) and found[1] == edited["max"]
        runs = _both_paths(monkeypatch, capsys, *_commands(edited_path, path, tmp_path))
        assert runs[0] == runs[1], name


def test_budget_refuses_before_any_graph(tmp_path, monkeypatch, capsys):
    # a gen document one vertex over CRYSTAL_BUDGET exits 3 on either path
    # with the same message, before the header is read into a graph
    path = _gen(tmp_path, "b2", "1,1", "pbw")
    monkeypatch.setenv("CRYSTAL_BUDGET", "15")
    monkeypatch.setattr(cli, "doc_to_graph", None)
    monkeypatch.setattr(ColoredGraph, "__init__", None)
    argvs, outputs = _commands(path, path, tmp_path)
    runs = _both_paths(monkeypatch, capsys, argvs, outputs)
    assert runs[0] == runs[1]
    message = f"budget exceeded: {path} has 16 vertices, over the vertex budget 15\n"
    assert runs[0] == [(3, "", message, [None] * 3)] * 4
    monkeypatch.undo()
    monkeypatch.setenv("CRYSTAL_BUDGET", "16")
    assert len(json_to_graph(path.read_bytes(), path)[0]) == 16


def test_a_document_is_read_once(tmp_path, capsys):
    # the JSON path reads the bytes the direct reader read, so a document
    # that is not gen's text still loads from a pipe, which reads only once
    fifo = tmp_path / "doc.fifo"
    os.mkfifo(fifo)
    text = json.dumps(graph_to_doc(pbw.generate((1, 1))), indent=1)
    codes = []
    threads = [threading.Thread(target=lambda: codes.append(main(["check", "--in", str(fifo)])), daemon=True),
               threading.Thread(target=fifo.write_text, args=(text,), daemon=True)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert codes == [0] and capsys.readouterr().out == "pass (16 vertices)\n"


def test_many_colors_read_alike(tmp_path, monkeypatch, capsys):
    # the reader builds nothing per color but one template: a stats document
    # over 20,000 colors is read directly, to what the JSON path reads
    colors = list(range(1, 20001))
    entries = json.dumps(dict.fromkeys(map(str, colors), 0), separators=(",", ":"))
    text = '{"index_set":%s,"cartan":null,"vertices":[{"id":0,"wt":{},"eps":%s,"phi":%s}],"edges":[]}' % (
        json.dumps(colors, separators=(",", ":")), entries, entries)
    path, dot = tmp_path / "wide.json", tmp_path / "wide.dot"
    path.write_text(text)
    start = time.perf_counter()
    assert json_to_graph(text.encode(), path) is not None
    assert time.perf_counter() - start < 1  # nothing per color: a pattern spelling every key out takes seconds
    runs = _both_paths(monkeypatch, capsys, [["export-dot", "--in", path, "--out", dot]], [dot])
    assert runs[0] == runs[1] and runs[0][0][0] == 0
    # either reader loads only the colors that have edges: none of these,
    # both of a B2 document's
    loaded, add_arrows = [], ColoredGraph.add_arrows
    monkeypatch.setattr(ColoredGraph, "add_arrows", lambda g, i, *ends: loaded.append(i) or add_arrows(g, i, *ends))
    counts = []
    for doc in (text, graph_to_json(pbw.generate((2, 1)))):
        for read in (lambda d: json_to_graph(d.encode(), path), lambda d: doc_to_graph(json.loads(d))):
            loaded.clear()
            assert read(doc) is not None
            counts.append(list(loaded))
    assert counts == [[], [], [1, 2], [1, 2]]


def test_arrows_filed_by_color_read_alike(tmp_path, monkeypatch, capsys):
    # edges that interleave the colors in shuffled order, with one arrow of
    # each color recorded twice, first, and one more arrow of that color from
    # the source of its first arrow: both readers give the graph of each
    # arrow recorded on its own in document order (arrows in document order,
    # the first arrow from or to a vertex winning), the same check, iso and
    # export-dot output, and load each color that has edges by one
    # add_arrows call, in index_set order, which is not sorted here
    A = GCM(B3_MATRIX_ROWS, index_set=[3, 1, 2])
    path, edited_path = tmp_path / "b3.json", tmp_path / "filed.json"
    path.write_text(graph_to_json(builder.synthesize(A, (1, 1, 0)), stats=True))
    doc = load_doc(path)
    edges = random.Random(36).sample(doc["edges"], len(doc["edges"]))
    for i in A.colors:
        mine = [k for k, e in enumerate(edges) if e["color"] == i]
        first, last = edges[mine[0]], edges[mine[-1]]
        edges.insert(mine[-1] + 1, {**first, "to": last["to"]})
        edges.insert(0, dict(last))
    edited = {**doc, "edges": edges}
    dump_doc(edited, edited_path)
    found = json_to_graph(edited_path.read_bytes(), edited_path)
    want = _graph(reference_load(edited, A))
    assert found is not None and _graph(found[0]) == want == _graph(doc_to_graph(edited))
    assert [len(found[0].arrows[i][0]) for i in A.colors] == [len(mine) + 2 for mine in (
        [e for e in doc["edges"] if e["color"] == i] for i in A.colors)]
    runs = _both_paths(monkeypatch, capsys, *_commands(edited_path, path, tmp_path))
    assert runs[0] == runs[1] and runs[0][0][0] == 1
    loaded, add_arrows = [], ColoredGraph.add_arrows
    monkeypatch.setattr(ColoredGraph, "add_arrows", lambda g, i, *ends: loaded.append(i) or add_arrows(g, i, *ends))
    for read in (lambda: json_to_graph(edited_path.read_bytes(), edited_path), lambda: doc_to_graph(edited)):
        loaded.clear()
        assert read() is not None and loaded == [3, 1, 2]


# gen's text with a number moved, emptied or added, or an entry or a comma
# too many or too few, where only the pattern of a section stands between it
# and a wrong read, and so refused by the JSON path (check exits 2), or with
# a key, an entry or a vertex gen would not write
_PBW = graph_to_json(pbw.generate((1, 0))).encode()
_STATS = graph_to_json(builder.synthesize(b2_gcm(), (1, 0)), stats=True).encode()
_ZERO = graph_to_json(pbw.generate((0, 0))).encode()
_MISREADS = [
    (_PBW, b'"a":[1,0,0,0],"x"', b'"a":[,0,0,0],"x1"', 2),  # a label emptied into the next key
    (_PBW, b'{"id":1,"a"', b'{"id":,"a1"', 2),  # an id emptied into the next key
    (_PBW, b'"color":1}],"max"', b'"color":1}1],"max"', 2),  # a run of digits after the last edge
    (_PBW, b'"a":[1,0,0,0]', b'"a":[01,0,0,0]', 2),  # a leading zero
    (_STATS, b'"wt":{"1":1},"eps"', b'"wt":{"1":},"e1ps"', 2),  # a wt count emptied into the next key
    (_STATS, b'"wt":{"1":1},"eps":{"1"', b'"wt":{"1":1},"eps":{"3"', 0),  # an eps key that is no color
    (_STATS, b'"eps":{"1":1,"2":0},"phi":{"1":0,"2":1}', b'"eps":{"1":1},"phi":{"1":0,"2":1}', 0),  # an eps entry missing
    (_STATS, b'"phi":{"1":0,"2":0}}', b'"phi":{"1":0,"2":0,"3":0}}', 0),  # a phi entry too many
    (_PBW, b'"x":[0,1,0,1]}],"edges"', b'"x":[0,1,0,1]},],"edges"', 2),  # a trailing comma in the vertex array
    (_STATS, b'"wt":{"1":2,"2":1}', b'"wt":{"1":2,"2":1,}', 2),  # a trailing comma in a wt object
    (_ZERO, b'"edges":[]', b'"edges":[,]', 2),  # an empty edge array holding a comma
    (_PBW, b'{"id":2,"a":[0,0,1,0],"x":[1,0,0,1]}', b'{"id":2}', 0),  # a plain vertex among labelled ones
    # a number of more digits than int() reads, as an id and in a label
    pytest.param(_PBW, b'{"id":1,"a"', b'{"id":1' + b"0" * 4300 + b',"a"', 2, id="4301-digit id"),
    pytest.param(_PBW, b'"a":[1,0,0,0]', b'"a":[1' + b"0" * 4300 + b',0,0,0]', 2, id="4301-digit label"),
]


@pytest.mark.parametrize("base,old,new,code", _MISREADS)
def test_misplaced_numbers_take_the_json_path(tmp_path, monkeypatch, capsys, base, old, new, code):
    assert base.count(old) == 1
    text = base.replace(old, new)
    path, other = tmp_path / "near.json", tmp_path / "other.json"
    path.write_bytes(text)
    other.write_bytes(base)
    assert json_to_graph(text, path) is None
    runs = _both_paths(monkeypatch, capsys, *_commands(path, other, tmp_path))
    assert runs[0] == runs[1] and runs[0][0][0] == code


@pytest.mark.parametrize("base,old,new,code", _MISREADS)
def test_misplaced_numbers_over_the_budget_read_alike(tmp_path, monkeypatch, capsys, base, old, new, code):
    # the budget is counted only after every section has passed its checks,
    # so a text the JSON path refuses as JSON is refused as JSON over the
    # budget too (exit 2), and one it parses exits 3 on both paths
    text = base.replace(old, new)
    path = tmp_path / "near.json"
    path.write_bytes(text)
    monkeypatch.setenv("CRYSTAL_BUDGET", "1")
    runs = _both_paths(monkeypatch, capsys, [["check", "--in", path]], [])
    assert runs[0] == runs[1] and runs[0][0][0] == (3 if code == 0 else 2)


def _spied_reads(monkeypatch):
    """The budget counts and the reads of a section into numbers, in call
    order, as (what, vertex count or section length)."""
    calls, budget, numbers, findall = [], cli._within_budget, cli._numbers, re.findall
    monkeypatch.setattr(cli, "_within_budget", lambda path, n: calls.append(("budget", n)) or budget(path, n))
    monkeypatch.setattr(cli, "_numbers", lambda section: calls.append(("numbers", len(section))) or numbers(section))
    monkeypatch.setattr(cli, "re", types.SimpleNamespace(
        **{**vars(re), "findall": lambda pattern, section: calls.append(("ids", len(section))) or findall(pattern, section)}))
    return calls


def test_a_near_miss_is_refused_before_any_split(tmp_path, monkeypatch):
    # every section is checked before the budget is counted and before any
    # is read: one space in the last edge sends gen's text to the JSON path
    # with no count and no read; gen's text reads each section once
    text = graph_to_json(pbw.generate((3, 3))).encode()
    last = text.rindex(b',"color"')
    calls = _spied_reads(monkeypatch)
    assert json_to_graph(text[:last] + b" " + text[last:], tmp_path / "near.json") is None
    assert calls == []
    assert json_to_graph(text, tmp_path / "gen.json") is not None
    vertices, edges, tail = re.fullmatch(rb'.*?"vertices":\[(.*?)\],"edges":\[(.*)\](.*)', text).groups()
    assert calls == [("budget", 256), ("ids", len(vertices)), ("numbers", len(edges)), ("numbers", len(tail))]


def test_an_oversized_document_is_refused_before_any_split(tmp_path, monkeypatch):
    path = _gen(tmp_path, "b2", "3,3", "pbw")
    monkeypatch.setenv("CRYSTAL_BUDGET", "100")
    calls = _spied_reads(monkeypatch)
    with pytest.raises(cli.BudgetExceeded, match=r"has 256 vertices, over the vertex budget 100$"):
        json_to_graph(path.read_bytes(), path)
    assert calls == [("budget", 256)]


def test_an_oversized_document_is_refused_in_bounded_memory(tmp_path, monkeypatch):
    # each section is checked by deleting its fills, not by a full match of
    # a repeated group, whose backtracking state grows with every fill
    # (about 12 times the text here)
    text = graph_to_json(pbw.generate((12, 12))).encode()
    monkeypatch.setenv("CRYSTAL_BUDGET", "100")
    tracemalloc.start()
    try:
        with pytest.raises(cli.BudgetExceeded):
            json_to_graph(text, tmp_path / "big.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(text)


def test_a_header_nested_to_the_recursion_limit(tmp_path, monkeypatch, capsys):
    # json writes back fewer levels than it reads: a header that loads but
    # cannot be written back takes the JSON path too, with no traceback
    path = tmp_path / "deep.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 200, limit + 5):
        path.write_text('{"index_set":[1,2],"cartan":%s%s,"vertices":[],"edges":[]}' % ("[" * depth, "]" * depth))
        runs = _both_paths(monkeypatch, capsys, [["check", "--in", path]], [])
        assert runs[0] == runs[1] and runs[0][0][0] == 2, depth


def test_a_header_gen_does_not_write_takes_the_json_path(tmp_path, monkeypatch, capsys):
    # a header of gen's skeleton that is not gen's text, once loaded and
    # written back, is read by the JSON path alone: a cartan entry 0 written
    # -0 parses and checks, an index_set entry that is a list is refused
    spec, path = tmp_path / "a1a1.json", tmp_path / "gen.json"
    spec.write_text(json.dumps({"cartan": [[2, 0], [0, 2]]}))
    assert main(["gen", "--gcm", f"custom:{spec}", "--hw", "1,1", "--method", "axioms", "--out", str(path)]) == 0
    text = path.read_bytes()
    for old, new, want in ((b'"cartan":[[2,0]', b'"cartan":[[2,-0]', (0, "pass (4 vertices)\n", "")),
                           (b'"index_set":[1,2]', b'"index_set":[[1],2]',
                            (2, "", "input error: ValueError: index_set entry [1] is not an integer\n"))):
        edited, edited_path = text.replace(old, new), tmp_path / "edited.json"
        assert edited.count(new) == 1
        edited_path.write_bytes(edited)
        assert json_to_graph(edited, edited_path) is None
        runs = _both_paths(monkeypatch, capsys, [["check", "--in", edited_path]], [])
        assert runs[0] == runs[1] == [(*want, [])]


# -- near misses ---------------------------------------------------------------

_BASES = [graph_to_json(pbw.generate((1, 0))), graph_to_json(pbw.generate((0, 1))),
          graph_to_json(builder.synthesize(b2_gcm(), (1, 0)), stats=True),
          graph_to_json(builder.synthesize(b3_gcm(), (1, 0, 0)), stats=True)]
_BASES = [text.encode() + b"\n" for text in _BASES]

_EDITS = ("whitespace", "reordered header", "reordered edge", "numeric string", "float", "leading zero",
          "plus", "negative", "big", "other number", "duplicate id", "missing field", "bad max",
          "no max", "label zz", "non-UTF-8", "truncated", "stray digit", "empty number", "moved number")


@st.composite
def near_misses(draw):
    """gen's text with one edit that leaves it JSON, or nearly so."""
    text = draw(st.sampled_from(_BASES))
    edit = draw(st.sampled_from(_EDITS))
    at = draw(st.integers(0, len(text)))
    a, b = draw(st.sampled_from([m.span() for m in re.finditer(rb"[0-9]+", text)]))
    number = text[a:b]

    def put(new):
        return text[:a] + new + text[b:]

    def sub(pattern, new):
        found = list(re.finditer(pattern, text))
        m = draw(st.sampled_from(found))
        return text[:m.start()] + m.expand(new) + text[m.end():]

    if edit == "whitespace":
        return text[:at] + draw(st.sampled_from([b" ", b"\n", b"\t", b"\r\n"])) + text[at:]
    if edit == "reordered header":
        return sub(rb'^\{"index_set":(\[[^\]]*\]),"cartan":(\[\[.*?\]\]|null)', rb'{"cartan":\2,"index_set":\1')
    if edit == "reordered edge":
        return sub(rb'"from":([0-9]+),"to":([0-9]+)', rb'"to":\2,"from":\1')
    if edit == "duplicate id":
        return sub(rb'"id":[1-9][0-9]*', rb'"id":0')
    if edit == "missing field":
        return sub(rb'"(?:id|from|to|color|a|x|wt|eps|phi)":(?:\[[^\]]*\]|\{[^}]*\}|[0-9]+),', b"")
    if edit == "bad max":
        return sub(rb'"max":[0-9]+', b'"max":' + draw(st.sampled_from([b"99", b'"0"', b"0.5", b"null", b"true", b"-1"])))
    if edit == "no max":
        return sub(rb',"max":[0-9]+', b"")
    if edit == "label zz":
        return sub(rb'"(?:a|x|wt|eps|phi)":(?:\[[^\]]*\]|\{[^}]*\})', rb'"x":"zz"')
    if edit == "non-UTF-8":
        return text[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82"])) + text[at:]
    if edit == "truncated":
        return text[:at]
    if edit == "stray digit":
        return text[:at] + draw(st.sampled_from([b"0", b"1", b"7"])) + text[at:]
    if edit == "moved number":  # as many runs of digits as before, one of them misplaced nearby
        at = draw(st.sampled_from([k for k in range(max(a - 12, 0), min(b + 12, len(text)) + 1) if k <= a or k >= b]))
        return (text[:at] + number + text[at:a] + text[b:]) if at <= a else (text[:a] + text[b:at] + number + text[at:])
    return put({"numeric string": b'"' + number + b'"', "float": number + b".0", "leading zero": b"0" + number,
                "plus": b"+" + number, "empty number": b"", "negative": b"-" + number, "big": b"1" + b"0" * draw(st.sampled_from([30, 4300])),
                "other number": b"%d" % draw(st.integers(0, 12))}[edit])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=near_misses())
def test_near_misses_read_alike(tmp_path, monkeypatch, capsys, text):
    # whatever the edit, both paths write the same bytes and exit alike,
    # refusals included; the bytes read once load as the file does; where the
    # direct reader takes the text, it reads the graph the JSON path reads
    path, other = tmp_path / "near.json", tmp_path / "other.json"
    path.write_bytes(text)
    other.write_bytes(_BASES[0])
    runs = _both_paths(monkeypatch, capsys, *_commands(path, other, tmp_path))
    assert runs[0] == runs[1]

    def loaded(*stream):
        try:
            return load_doc(path, *stream)
        except ValueError as exc:
            return str(exc)
    assert loaded() == loaded(io.BytesIO(text))  # the JSON path reads the bytes read once as open() reads the file
    try:
        found = json_to_graph(text, path)
    except ValueError:
        found = None
    if found is not None:
        doc = json.loads(text)
        assert _graph(found[0]) == _graph(doc_to_graph(doc)) and found[1] == doc.get("max")
