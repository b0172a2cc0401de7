"""Command-line surface and the JSON / DOT file formats.

Exit codes, which `main` alone maps outcomes to (the handlers return 0 or 1
from a report and raise the rest): 0 pass; 1 axiom violations, or `iso`'s
`not isomorphic: <message>` on stdout; 2 `error: <message>` (a refused
request, a failed certification) or `input error: <Type>: <message>` (bad
flags, malformed files) on stderr; 3 `budget exceeded: <message>` on stderr.
An input error names a file that is missing, not UTF-8 or not JSON by its
path.  The vertex budget, the CRYSTAL_BUDGET environment variable, bounds
the crystals `gen` and `verify-paper` build (one of a finite-type matrix is
refused by its Weyl dimension before it is built), the lemma box of
`verify-paper`, and the documents `check`, `iso` and `export-dot` read.
`iso` certifies both documents under one matrix (two that declare different
ones over one index set are refused, exit 2): the first with check_all, the
second by the isomorphism walk, and with check_all too only where the walk
fails, so the exit code and message are those of certifying both first.

`main` may be called repeatedly in one process.  It builds its parser on
the first call and keeps it; the parser names each subcommand's handler,
and `main` looks that name up in this module on every call, so a wrapper
installed on `cli.cmd_*` after the first call still sees every call.

Graph document schema (JSON):
  {
    "index_set": [1, 2],
    "cartan":    [[2, -2], [-1, 2]],
    "vertices":  [{"id": 0, "a": [...], "x": [...],
                   "wt": {"1": 0, ...}, "eps": {...}, "phi": {...}}, ...],
    "edges":     [{"from": 0, "to": 1, "color": 1}, ...],
    "max":       0
  }
where a/x/wt/eps/phi are optional per vertex: `gen` writes them, and no
command reads them.  "max" is optional; when given, it must be a declared
vertex, and `check` rejects a document whose "max" is not the maximum
element it finds (exit 2).  The integer fields
(index_set entries, id, from, to, color, max, and the cartan entries, also
those of a custom matrix file) are read as int() reads them, numeric
strings and integral floats included, but a boolean or a number with a
fractional part is an input error (exit 2), not truncated.  A file that
does not hold a JSON object, and an index_set, cartan, cartan row, vertices
or edges field that is not an array, are input errors too (exit 2), named
by file or field, and so is a missing index_set, vertices or edges field,
a vertex or edge entry without one of its integer fields, and a custom
matrix file without cartan; a null, empty or missing cartan means the
document has none.
Documents are written as compact one-line JSON; `gen` formats that text
itself (graph_to_json), and `check`, `iso` and `export-dot` read it back
directly (json_to_graph), with no dict per vertex or edge, once each
section is fills of its template's pattern (each %d a number as json
writes it).  Any other document, and every refusal, takes the JSON path
(load_doc, doc_to_graph), the reference, to the same graph and output.
The loaders read the vertex and edge arrays whole into the graph's
position lists, sorted by id.  Each files the edges by color in one pass
(_load_arrows) and makes one add_arrows call per color that has edges, in
index_set order.
"""

import argparse
import functools
import io
import json
import os
import re
import sys
from itertools import repeat
from operator import itemgetter

from . import __version__
from .axioms import check_all
from .builder import build_isomorphism, synthesize
from .cartan import GCM, array, b2_gcm, b3_gcm, classify_all_pairs, finite_type, integers
from .errors import BudgetExceeded, CertificationFailed, NotIsomorphic
from .graph import ColoredGraph
from .oracle import run_verification, weyl_dim_general
from .pbw import PbwElement, generate

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


# -- document format ----------------------------------------------------------

def graph_to_doc(g):
    """graph_to_json's document as a dict tree, for the benchmark's set-up
    and the tests, which permute and edit it into other documents."""
    return json.loads(graph_to_json(g))


def graph_to_json(g, stats=False):
    """The graph's document as compact one-line JSON text, without its
    final newline.  With stats, each vertex also carries its wt/eps/phi,
    read from the graph's weight_codes and its string tables; their keys
    follow the sorted colors, while index_set keeps the graph's order.

    The text is formatted directly, one %-format per vertex and per edge
    from the templates below, filled once per document, and is byte for
    byte what json.dumps writes for the same document as a dict tree.  PBW
    labels carry four coordinates a side, as a PbwElement's a and x do."""
    head = _header(list(g.colors), [list(r) for r in g.cartan.rows] if g.cartan else None)
    maxes = g.maximum_elements()
    tail, rows = "}", repeat(())
    if stats:
        codes, (eps, phi) = g.weight_codes(), g.tables()
        order = sorted(g.colors)
        fields = ",".join('"%d":%%d' % i for i in order)
        tail = _STATS % ("%s", fields, fields)
        wts = {c: ",".join([_ENTRY % (i, wt[i]) for i in order if i in wt])
               for c, wt in g.weights().items()}
        rows = zip(map(wts.__getitem__, codes), *map(eps.get, order), *map(phi.get, order))
    plain, labelled = _VERTEX + tail, _VERTEX + _LABEL + tail
    vertices = ",".join([labelled % (v, *label.a, *label.x, *row) if isinstance(label, PbwElement)
                         else plain % (v, *row) for v, label, row in zip(g.ids, g.labels, rows)])
    edges = ",".join(map(_EDGE.__mod__, g.edges()))
    top = _MAX % maxes[0] if maxes else ""
    return _DOCUMENT % (head, vertices, edges, top)


# graph_to_json's grammar: the templates it fills, which json_to_graph
# reads back.  A stats vertex's wt keeps its nonzero counts only.
_DOCUMENT = '%s,"vertices":[%s],"edges":[%s]%s}'
_VERTEX = '{"id":%d'
_LABEL = ',"a":[%d,%d,%d,%d],"x":[%d,%d,%d,%d]'
_STATS = ',"wt":{%s},"eps":{%s},"phi":{%s}}'  # each %s: _ENTRY fills by sorted color
_ENTRY = '"%d":%d'
_EDGE = '{"from":%d,"to":%d,"color":%d}'
_MAX = ',"max":%d'
_SPACED = bytes(c if c in b"0123456789" else 32 for c in range(256))  # bytes.translate: non-digits to spaces


def _header(index_set, cartan):
    """The document's text before its vertex array."""
    return json.dumps({"index_set": index_set, "cartan": cartan}, separators=(",", ":"))[:-1]


def _pattern(template, *fills):
    """The pattern of one fill of template: each %d a number as json
    writes it, of no more digits than int(), and so json, reads (any
    number where that limit is 0), each %s the next of fills."""
    most = sys.get_int_max_str_digits()
    number = "(?:0|[1-9][0-9]{0,%d})" % (most - 1) if most else "(?:0|[1-9][0-9]*)"
    return re.escape(template).replace("%d", number) % fills


def _fills(pattern, section):
    """Whether section is fills of pattern joined by commas, none if it is
    empty: deleting each fill with its comma leaves nothing.  (A full match
    of a repeated group would keep backtracking state for every fill.)"""
    return not section or not re.sub(pattern.encode() + b",", b"", section + b",")


def _numbers(section):
    """The numbers of a section _fills has checked, as digit strings."""
    return section.translate(_SPACED).split()


def json_to_graph(text, path):
    """The graph and the declared max (or None) of the document whose bytes
    are text, if text is exactly graph_to_json's, final newline or not, with
    the ids 0..n-1 in any order; else None, and load_doc and doc_to_graph
    read it, refusals included: duplicate ids, undeclared endpoints or max,
    colors outside index_set.  Every section passes _fills before the
    vertices are counted against the budget, and before any is read into
    numbers; _header_graph reads the header, as it does for doc_to_graph."""
    cuts = _DOCUMENT.encode().split(b"%s")[1:4]  # the text between the header, the arrays and max
    head, _, rest = text.partition(cuts[0])
    vertices, _, rest = rest.partition(cuts[1])
    edges, _, tail = rest.partition(cuts[2])
    tail = tail.removesuffix(b"\n")
    skeleton = head.translate(None, b"[],-0123456789")  # gen's header is two keys and arrays of integers
    if skeleton not in (b'{"index_set":"cartan":', b'{"index_set":"cartan":null'):
        return None  # and no other header is parsed here, so the parse costs little
    try:  # read and written back: nested too deeply for either is a RecursionError
        doc = json.loads(head + b"}")
        colors = doc.get("index_set")
        if not isinstance(colors, list) or set(map(type, colors)) - {int} \
                or _header(colors, doc.get("cartan")).encode() != head:
            return None
    except (ValueError, RecursionError):
        return None
    stats, vertex = b',"wt":{' in vertices, _pattern(_VERTEX + (_LABEL if b',"a":[' in vertices else "") + "}")
    if stats:  # eps and phi hold any entries here, and their keys are compared below
        entries = "(?:{0}(?:,{0})*)?".format(_pattern(_ENTRY))
        vertex = _pattern(_VERTEX + _STATS, entries, entries, entries)
    if not (tail == b"}" or re.fullmatch(_pattern(_MAX + "}").encode(), tail)) \
            or not _fills(_pattern(_EDGE), edges) or not _fills(vertex, vertices):
        return None  # so a near miss costs a few scans, and is split nowhere
    n = vertices.count(b'{"id":')
    _within_budget(path, n)
    tables = set(re.findall(rb'"(?:eps|phi)":\{([^}]*)', vertices)) if stats else ()  # each distinct one once
    keys = list(map(b"%d".__mod__, sorted(colors)))
    if any(table.split(b'"')[1::2] != keys for table in tables):
        return None  # an eps or phi object whose keys are not the sorted colors
    ids = re.findall(rb'"id":([0-9]{1,%d})(?![0-9])' % len(b"%d" % n), vertices)  # no text too long to be below n
    pos = dict(zip(ids, map(int, ids)))  # id text -> position: n distinct canonical ids below n are 0..n-1
    if len(pos) != n or max(pos.values(), default=-1) >= n:
        return None
    es, top = _numbers(edges), _numbers(tail)  # top: [max] or []
    try:  # a miss: an endpoint or max that is no id, or a color off index_set
        srcs, dsts, tops = (list(map(pos.__getitem__, c)) for c in (es[0::3], es[1::3], top))
        cols = list(map({b"%d" % i: i for i in colors}.__getitem__, es[2::3]))
    except KeyError:
        return None
    g = _header_graph(doc)
    g.add_vertices(range(n))
    _load_arrows(g, srcs, dsts, cols)
    return g, tops[0] if tops else None


def _load_arrows(g, srcs, dsts, cols):
    """Record the arrows srcs[k] -> dsts[k] of color cols[k], positions and
    colors of g: one pass over the three columns files each arrow under its
    color, in document order, and each color that has edges is loaded by
    one add_arrows call, in g.colors order."""
    filed = {i: ([], []) for i in g.colors}
    put = {i: (s.append, d.append) for i, (s, d) in filed.items()}
    for s, d, (put_s, put_d) in zip(srcs, dsts, map(put.__getitem__, cols)):
        put_s(s)
        put_d(d)
    for i, (s, d) in filed.items():
        if s:
            g.add_arrows(i, s, d)


_EDGE_FIELDS = ("from", "to", "color")


def _field(doc, key, owner="document"):
    """doc[key]; a missing key is refused by name, not with its KeyError."""
    if key not in doc:
        raise ValueError(f"{owner} has no {key} field")
    return doc[key]


def _fields(entries, key, kind):
    """entry[key] for each entry; an entry that is not an object, or that
    lacks the key, is refused by name, not with the TypeError or KeyError of
    indexing it."""
    try:
        return list(map(itemgetter(key), entries))
    except TypeError:
        bad = next(e for e in entries if not isinstance(e, dict))
        raise ValueError(f"{kind} entry {bad!r} is not an object") from None
    except KeyError:
        bad = next(e for e in entries if key not in e)
        raise ValueError(f"{kind} entry {bad!r} has no {key} field") from None


def _header_graph(doc):
    """The graph of a document's index_set and cartan, with no vertex yet."""
    colors = integers(array(_field(doc, "index_set"), "index_set"), lambda k: "index_set entry")
    rows = doc.get("cartan")
    return ColoredGraph(colors, cartan=GCM(rows, index_set=colors) if rows not in (None, []) else None)


def doc_to_graph(doc):
    """Rebuild a graph from a document, preserving ids.

    The vertices are loaded in increasing id order, whatever their order in
    the document, and without labels.  Arrows are loaded without the degree
    guard so that deliberately broken documents can still be checked.
    Input errors (ValueError) are looked for one kind at a time, each naming
    its field, or its first vertex or edge in document order: missing and
    integer fields, duplicate ids, undeclared endpoints, colors outside
    index_set, and an undeclared "max".
    """
    g = _header_graph(doc)
    vertices = array(_field(doc, "vertices"), "vertices")
    ids = integers(_fields(vertices, "id", "vertex"), lambda k: f"vertex {vertices[k]}: id")
    if len(set(ids)) < len(ids):
        seen = set()
        vid = next(v for v in ids if v in seen or seen.add(v))
        raise ValueError(f"vertex {vid} already present")
    ids = sorted(ids)
    g.add_vertices(ids)
    pos = dict(zip(ids, range(len(ids))))  # id -> position
    edges = array(_field(doc, "edges"), "edges")
    srcs, dsts, cols = (integers(_fields(edges, f, "edge"), lambda k, f=f: f"edge {edges[k]}: {f}")
                        for f in _EDGE_FIELDS)
    s_pos, d_pos = list(map(pos.get, srcs)), list(map(pos.get, dsts))
    if None in s_pos or None in d_pos:
        k = min(p.index(None) for p in (s_pos, d_pos) if None in p)
        s, d = srcs[k], dsts[k]
        raise ValueError(f"edge {edges[k]}: endpoint {d if s_pos[k] is not None else s} "
                         "is not a declared vertex")
    if not set(cols) <= set(g.colors):
        k = next(k for k, c in enumerate(cols) if c not in g.colors)
        raise ValueError(f"edge {edges[k]}: color {cols[k]} is not in index_set {list(g.colors)}")
    _load_arrows(g, s_pos, d_pos, cols)
    declared = doc.get("max")
    if declared is not None and integers([declared], lambda k: "max")[0] not in pos:
        raise ValueError(f"max {declared} is not a declared vertex")
    return g


def dump_doc(doc, path):
    """Write doc as one compact JSON line.  It serves the benchmark's set-up
    and the tests, which write the trees graph_to_doc builds, edited or not;
    `gen` writes graph_to_json's text instead.  Such trees are built fresh,
    with no reference cycle, so the encoder's circular-reference scan is
    skipped; the bytes are the same."""
    _write_line(json.dumps(doc, separators=(",", ":"), check_circular=False), path)


def _write_line(text, path):
    """Write an output file: text and its final newline."""
    with open(path, "w") as fh:
        fh.write(text)
        fh.write("\n")


def load_doc(path, stream=None):
    """The JSON object in the file at path, read as text as open() reads it,
    or from the bytes stream, closed before the parse frees its copy;
    anything else is refused by path."""
    try:
        with open(path) if stream is None else io.TextIOWrapper(stream) as fh:
            text = fh.read()
        doc = json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return doc


def graph_to_dot(g):
    """Deterministic DOT text, without its final newline; color-1 arrows are
    drawn heavy, the other colors carry numeric labels."""
    lines = ["digraph crystal {", "  rankdir=TB;"]
    for v in g.vertices():
        lines.append(f'  {v} [label="{v}"];')
    for s, d, c in g.edges():
        if c == 1:
            lines.append(f"  {s} -> {d} [penwidth=2.4];")
        else:
            lines.append(f'  {s} -> {d} [label="{c}"];')
    lines.append("}")
    return "\n".join(lines)


# -- subcommands ---------------------------------------------------------------

_GCMS = {"b2": b2_gcm, "b3": b3_gcm}


class _Refusal(Exception):
    """A request a handler refuses; main prints `error: <message>`, exit 2."""


def _load_gcm(name):
    if name in _GCMS:
        return _GCMS[name]()
    if name.startswith("custom:"):
        path = name[len("custom:"):]
        spec = load_doc(path)
        colors = spec.get("index_set")  # None takes the default 1..n
        if colors is not None:
            colors = integers(array(colors, "index_set"), lambda k: "index_set entry")
        return GCM(_field(spec, "cartan", path), index_set=colors)
    raise ValueError(f"unknown matrix {name!r} (use b2, b3 or custom:<path>)")


def _budget():
    """The vertex budget: CRYSTAL_BUDGET, 10**6 when unset.  A value that is
    not a nonnegative integer is an input error, not a budget."""
    value = os.environ.get("CRYSTAL_BUDGET", "1000000")
    try:
        if int(value) >= 0:
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"CRYSTAL_BUDGET must be a nonnegative integer, not {value!r}")


def _within_budget(path, n):
    """Refuse a document of n vertices over the vertex budget."""
    if n > _budget():
        raise BudgetExceeded(f"{path} has {n} vertices, over the vertex budget {_budget()}")


def _load_graph(path):
    """The graph of the document at path and its declared max (None if it
    declares none): read by json_to_graph where the text is graph_to_json's,
    else by load_doc and doc_to_graph.  A document with more vertices than
    the budget is refused before any graph is built."""
    with open(path, "rb") as fh:  # read once: path may be a pipe
        stream = io.BytesIO(fh.read())
    found = json_to_graph(stream.getvalue(), path)
    if found is not None:
        return found
    doc = load_doc(path, stream)
    if isinstance(doc.get("vertices"), list):
        _within_budget(path, len(doc["vertices"]))
    return doc_to_graph(doc), doc.get("max")


def cmd_gen(args):
    A = _load_gcm(args.gcm)
    try:
        hw = [int(t) for t in args.hw.split(",")]
    except ValueError:
        raise _Refusal("--hw entries must be integers") from None
    if len(hw) != len(A.colors):
        raise _Refusal(f"--hw needs {len(A.colors)} entries")
    if any(v < 0 for v in hw):
        raise _Refusal("--hw entries must be nonnegative")
    if args.method == "pbw" and args.gcm != "b2":
        raise _Refusal("the pbw method exists only for the b2 matrix")
    classify_all_pairs(A)  # an unsupported pair is an input error before the budget is counted
    if finite_type(A) and (n := weyl_dim_general(A, hw)) > _budget():  # refused before anything is built
        raise BudgetExceeded(f"the crystal at {tuple(hw)} has {n} vertices, over the budget {_budget()}")
    if args.method == "pbw":
        g = generate(tuple(hw), budget=_budget())
        text = graph_to_json(g)
    else:
        g = synthesize(A, hw, budget_vertices=_budget())
        text = graph_to_json(g, stats=True)
    _write_line(text, args.out)
    print(f"wrote {args.out}: {len(g)} vertices, {sum(len(s) for s, _ in g.arrows.values())} edges")
    return EXIT_PASS


def cmd_check(args):
    g, declared = _load_graph(args.infile)
    if g.cartan is None:
        raise _Refusal("document has no cartan matrix")
    report = check_all(g, g.cartan)
    if declared is not None and report.max_element is not None and report.max_element != int(declared):
        raise _Refusal(f"document declares max {declared}, but the maximum element is {report.max_element}")
    if args.report:
        _write_line(json.dumps(report.to_dict(), indent=1), args.report)
    print(report.summary())
    return EXIT_PASS if report.passed else EXIT_FAIL


def cmd_iso(args):
    ga, gb = _load_graph(args.a)[0], _load_graph(args.b)[0]
    A, B = ga.cartan or gb.cartan, gb.cartan or ga.cartan
    if A is None:
        raise _Refusal("neither document has a cartan matrix")
    if set(A.colors) == set(B.colors) and any(A.a(i, j) != B.a(i, j) for i, j in A.pairs()):
        raise _Refusal(f"{args.a} and {args.b} declare different matrices: {A!r} vs {B!r}")
    iso = build_isomorphism(ga, gb, gcm=A)
    if args.out:
        _write_line(json.dumps(sorted(map(list, iso.items()))), args.out)
    print(f"isomorphic on {len(iso)} vertices")
    return EXIT_PASS


def cmd_export_dot(args):
    _write_line(graph_to_dot(_load_graph(args.infile)[0]), args.out)
    print(f"wrote {args.out}")
    return EXIT_PASS


def cmd_verify_paper(args):
    for flag, value in (("--max-hw", args.max_hw), ("--max-box", args.max_box)):
        if value < 0:
            raise _Refusal(f"{flag} must be nonnegative")
    reports = run_verification(max_hw=args.max_hw, max_box=args.max_box, budget=_budget())
    print(f"{'claim':<44} {'domain':>8}  status")
    for r in reports:
        print(r.row())
        for note in r.counterexamples[:5]:
            print(f"    {note}")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} suites pass")
    return EXIT_PASS if not failed else EXIT_FAIL


@functools.cache
def build_parser():
    """The one parser of this process, built on first use; each subcommand
    sets `handler` to the name of its cmd_* function."""
    p = argparse.ArgumentParser(prog="b2crystal",
                                description="rank-2 crystal graphs: generate, check, compare")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a crystal graph document")
    g.add_argument("--gcm", default="b2", help="b2, b3 or custom:<path>")
    g.add_argument("--hw", required=True, help="comma-separated top statistics")
    g.add_argument("--method", choices=["pbw", "axioms"], default="pbw")
    g.add_argument("--out", required=True)
    g.set_defaults(handler="cmd_gen")

    c = sub.add_parser("check", help="run the axiom checker on a document")
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--report", help="write the JSON report here")
    c.set_defaults(handler="cmd_check")

    i = sub.add_parser("iso", help="construct the unique isomorphism between two documents")
    i.add_argument("a")
    i.add_argument("b")
    i.add_argument("--out", help="write the vertex mapping here")
    i.set_defaults(handler="cmd_iso")

    d = sub.add_parser("export-dot", help="render a document as DOT")
    d.add_argument("--in", dest="infile", required=True)
    d.add_argument("--out", required=True)
    d.set_defaults(handler="cmd_export_dot")

    v = sub.add_parser("verify-paper", help="run the brute-force verification battery")
    v.add_argument("--max-hw", type=int, default=3)
    v.add_argument("--max-box", type=int, default=8)
    v.set_defaults(handler="cmd_verify_paper")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.handler](args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (_Refusal, CertificationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NotIsomorphic as exc:  # a ValueError, so before the input-error clause
        print(f"not isomorphic: {exc}")
        return EXIT_FAIL
    except (OSError, ValueError) as exc:
        print(f"input error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
