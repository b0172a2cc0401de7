import json
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from b2crystal import axioms, builder, oracle, pbw
from b2crystal.cartan import GCM, b2_gcm, b3_gcm
from b2crystal.cli import graph_to_json
from b2crystal.errors import (
    BudgetExceeded,
    CertificationFailed,
    NotIsomorphic,
    PrereqFailed,
    SynthesisInconsistency,
    UnsupportedPair,
)
from b2crystal.graph import ColoredGraph, string_tables
from b2crystal.oracle import weyl_dim_general
from helpers import (
    C3_MATRIX_ROWS,
    SYNTHESIS_CASES,
    build_graph,
    copy_mutable,
    deletion_mutants,
    duplicate_mutants,
    f_step,
    recolor_mutants,
    redirect_mutants,
    reference_build_isomorphism,
    reference_collect_merges,
    reference_graph_to_doc,
    reference_merge_classes,
    relabelled,
    renaming,
)

A = b2_gcm()


def test_synthesize_anchors():
    assert len(builder.synthesize(A, (0, 0))) == 1
    assert len(builder.synthesize(A, (1, 1))) == 16
    assert len(builder.synthesize(A, (3, 0))) == 20
    assert len(builder.synthesize(A, (0, 2))) == 14


def test_synthesis_equals_generation():
    for l1 in range(4):
        for l2 in range(4):
            gp = pbw.generate((l1, l2))
            gs = builder.synthesize(A, (l1, l2))
            iso = builder.build_isomorphism(gp, gs, A)
            assert len(iso) == len(gp) == len(gs)
            # string statistics and the weight grading carry over vertexwise
            ep, pp = string_tables(gp)
            es, ps = string_tables(gs)
            wp = gp.wt_assign(0)
            ws = gs.wt_assign(gs.maximum_elements()[0])
            for v in gp.vertices():
                for i in gp.colors:
                    assert ep[i][v] == es[i][iso[v]]
                    assert pp[i][v] == ps[i][iso[v]]
                assert wp[v][0] == ws[iso[v]][0]


def test_identity_isomorphism():
    g = pbw.generate((2, 1))
    iso = builder.build_isomorphism(g, g, A)
    assert all(iso[v] == v for v in g.vertices())


def test_prereq_failures():
    with pytest.raises(PrereqFailed):
        builder.build_isomorphism(pbw.generate((1, 1)), pbw.generate((3, 0)), A)
    bad = copy_mutable(pbw.generate((1, 1)), skip_edge=pbw.generate((1, 1)).edges()[4])
    with pytest.raises(PrereqFailed):
        builder.build_isomorphism(bad, pbw.generate((1, 1)), A)
    # colors other than the matrix's are refused before check_all runs
    b3 = builder.synthesize(b3_gcm(), (1, 0, 0))
    with pytest.raises(CertificationFailed, match=r"first graph has colors \(1, 2\) but the Cartan matrix has \(1, 2, 3\)"):
        builder.build_isomorphism(pbw.generate((1, 1)), b3, gcm=b3_gcm())


def test_not_isomorphic_same_profile():
    # two certified graphs with equal top statistics for different matrices
    # cannot arise; instead check that a mangled target is refused loudly
    g = pbw.generate((1, 1))
    with pytest.raises(PrereqFailed, match=r"top statistics differ: \{1: 1, 2: 1\} vs \{1: 1, 2: 2\}"):
        builder.build_isomorphism(g, pbw.generate((1, 2)), A)


def _outcome(build, X, Y):
    """The map build(X, Y, A) returns, or the type and message it raises."""
    try:
        return build(X, Y, A)
    except (CertificationFailed, PrereqFailed, NotIsomorphic) as exc:
        return type(exc), str(exc)


def test_walk_certification_matches_certifying_both():
    # the walk certifies the second graph: every pair of a crystal, its
    # mutants and the crystals of the other weights, in both orders, gets
    # the map or the error that certifying both graphs first gives
    weights = [(1, 0), (0, 1), (1, 1), (2, 0), (2, 1)]
    crystals = {lam: pbw.generate(lam) for lam in weights}
    pairs = [(g, relabelled(h, 3)) for g in crystals.values() for h in crystals.values()]
    for g in crystals.values():
        for mutants in (deletion_mutants, redirect_mutants, duplicate_mutants, recolor_mutants):
            for _, mut in mutants(g):
                pairs.extend(pair for h in crystals.values() for pair in ((h, mut), (mut, h)))
    kinds = set()
    for X, Y in pairs:
        want = _outcome(reference_build_isomorphism, X, Y)
        assert _outcome(builder.build_isomorphism, X, Y) == want
        kinds.add(want[0] if isinstance(want, tuple) else dict)
    assert kinds == {dict, CertificationFailed, PrereqFailed}


@lru_cache(maxsize=None)
def _crystal(lam):
    return pbw.generate(lam)


@lru_cache(maxsize=None)
def _synthesized(phi0):
    return builder.synthesize(A, phi0)


def _edit(n, edges, edit):
    """The vertex count and arrows after one edit of a graph on 0..n-1: the
    drawn integers pick what it acts on.  An edit that needs an arrow where
    there is none adds one."""
    kind, a, b, c = edit
    if kind == "join":  # a second crystal, its top glued to vertex a
        second, v = _crystal(divmod(c % 9, 3)), a % n
        name = [v] + list(range(n, n + len(second) - 1))
        return n + len(second) - 1, edges + [(name[s], name[d], i) for s, d, i in second.edges()]
    if kind == "add" or not edges:
        return n, edges + [(a % n, b % n, A.colors[c % 2])]
    k = a % len(edges)
    s, d, i = edges[k]
    rest = edges[:k] + edges[k + 1:]
    if kind == "recolor":  # to the other of the colors 1 and 2
        return n, rest + [(s, d, 3 - i)]
    same = [e for e in rest if e[2] == i]
    if kind == "delete" or not same:
        return n, rest
    s2, d2, _ = same[b % len(same)]  # swap: the targets of two i-arrows
    rest.remove((s2, d2, i))
    return n, rest + [(s, d2, i), (s2, d, i)]


_EDITS = st.tuples(st.sampled_from(("delete", "swap", "recolor", "add", "join")),
                   st.integers(0, 999), st.integers(0, 999), st.integers(0, 8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.lists(_EDITS, min_size=1, max_size=3))
@example((1, 0), [("join", 3, 0, 3)])  # a clean graph with one source that only the walk refuses
@example((2, 1), [("join", 0, 0, 0)])  # gluing the one-vertex crystal changes nothing
@example((1, 0), [("add", 3, 1, 1), ("delete", 0, 0, 0)])  # a vertex beside a cycle: only the count refuses it
def test_walk_certifies_exactly_the_crystals(lam, edits):
    # a crystal edited once or more passes check_all exactly when the walk
    # from the crystal synthesized at its top statistics maps onto it: the
    # report's, else the string lengths of its sole source where its degrees
    # are clean, else lam.  The walk, which runs no check_all on a clean
    # graph with one source, must certify no graph that check_all refuses
    g = _crystal(lam)
    n, edges = len(g), g.edges()
    for edit in edits:
        n, edges = _edit(n, edges, edit)
    h = build_graph(A.colors, n, edges, cartan=A)
    rep, sources = axioms.check_all(h, A), h.sources()
    phi0 = lam
    if rep.passed:
        phi0 = tuple(rep.phi0[i] for i in A.colors)
    elif not any(map(h.degree_violations, A.colors)) and len(sources) == 1:
        phi0 = tuple(_string_length(h, i, sources[0]) for i in A.colors)
    try:
        builder.build_isomorphism(_synthesized(phi0), h, A)
        walked = True
    except (CertificationFailed, PrereqFailed, NotIsomorphic):
        walked = False
    assert walked == rep.passed


def _string_length(g, i, k):
    """How many i-steps lead down from k; with clean degrees no walk from a
    source enters a cycle, so it ends."""
    n = 0
    while (k := g.down[i][k]) is not None:
        n += 1
    return n


def _rebuilt(g, edges, extra=0):
    """g's vertices plus `extra` new ones, joined by the given arrows."""
    return build_graph(g.colors, len(g) + extra, edges, cartan=g.cartan)


def _refusals(g, top, mut):
    """Why _match refuses mut, passed first and then second, against the
    certified g with its top; mut gets a forged top, vertex 0 with g's top
    statistics."""
    forged = (0, top[1])
    out = []
    for args in ((mut, forged, g, top), (g, top, mut, forged)):
        with pytest.raises(NotIsomorphic) as exc:
            builder._match(*args)
        out.append(str(exc.value))
    return out


def test_walk_refuses_mutants_with_forged_reports():
    # the walk itself, given the tops of certified graphs, catches a graph
    # that is not the crystal: a missing arrow, two swapped targets, an
    # extra vertex
    g = pbw.generate((2, 1))
    top = builder._certify("first", g, A)
    edges = g.edges()
    intact = _rebuilt(g, edges)
    assert builder._match(intact, (0, top[1]), g, top) == {v: v for v in g.vertices()}
    # the map is the identity down to the source of a deleted arrow
    for k, (s, _, c) in enumerate(edges):
        mut = _rebuilt(g, edges[:k] + edges[k + 1:])
        assert _refusals(g, top, mut) == [f"{c}-child at only one of {s} and its image {s}"] * 2
    # swapping the targets of two same-colored arrows out of one distance
    # layer keeps every arrow going one layer down, so the graph stays acyclic
    dist = {v: d for v, (_, d) in g.wt_assign(0).items()}
    seen = []
    for a, b in combinations(edges, 2):
        if a[2] == b[2] and dist[a[0]] == dist[b[0]]:
            rest = [e for e in edges if e not in (a, b)]
            seen += _refusals(g, top, _rebuilt(g, rest + [(a[0], b[1], a[2]), (b[0], a[1], a[2])]))
    for reason in ("-child at only one of", "two vertices map onto", "not preserved"):
        assert any(reason in m for m in seen), reason
    assert _refusals(g, top, _rebuilt(g, edges, extra=1)) == ["map is not onto"] * 2
    leaf = next(v for v in g.vertices() if f_step(g, 2, v) is None)
    mut = _rebuilt(g, edges + [(leaf, len(g), 2)], extra=1)
    assert _refusals(g, top, mut) == [f"2-child at only one of {leaf} and its image {leaf}"] * 2


def test_isomorphism_is_the_renaming():
    # the certified map is unique, so it is exactly the renaming that made
    # the copy
    graphs = [pbw.generate(lam) for lam in [(0, 0), (1, 1), (2, 1), (0, 3), (3, 2)]]
    graphs += [builder.synthesize(b3_gcm(), lam) for lam in [(1, 0, 0), (0, 1, 1)]]
    for g in graphs:
        for seed in (1, 2):
            assert builder.build_isomorphism(g, relabelled(g, seed), g.cartan) == renaming(g, seed)


def test_synthesis_deterministic():
    g1 = builder.synthesize(A, (2, 2))
    g2 = builder.synthesize(A, (2, 2))
    assert g1.vertices() == g2.vertices() and g1.edges() == g2.edges()


def test_synthesized_documents_pinned(monkeypatch):
    # merges read from the checker's rule table build exactly the documents,
    # string tables and weight codes that the written-out reference merges build
    def build():
        out = []
        for M, lam in SYNTHESIS_CASES:
            g = builder.synthesize(M, lam)
            out.append((reference_graph_to_doc(g, stats=True), g.tables(), g.weight_codes()))
        return out

    shared = build()
    monkeypatch.setattr(builder, "_collect_merges", reference_collect_merges)
    for (M, lam), got, want in zip(SYNTHESIS_CASES, shared, build()):
        assert got == want, (M, lam)


def test_merge_classes_match_reference_on_synthesis_layers(monkeypatch):
    layers = []
    merge_classes = builder._merge_classes

    def recorded(candidates, pairs):
        classes = merge_classes(candidates, pairs)
        layers.append((candidates, pairs, classes))
        return classes

    monkeypatch.setattr(builder, "_merge_classes", recorded)
    for M, lam in SYNTHESIS_CASES:
        builder.synthesize(M, lam, check=False)
    assert max(len(group) for _, _, classes in layers for group in classes) == 3
    for candidates, pairs, classes in layers:
        assert classes == reference_merge_classes(candidates, pairs)


_CANDIDATES = st.lists(st.tuples(st.integers(0, 20), st.integers(1, 3)), min_size=1, max_size=30, unique=True)


@given(_CANDIDATES.flatmap(lambda cands: st.tuples(
    st.permutations(cands), st.lists(st.tuples(st.sampled_from(cands), st.sampled_from(cands)), max_size=40))))
@example(([(3, 1), (0, 2), (1, 1), (2, 2), (5, 1)], [((2, 2), (3, 1)), ((0, 2), (1, 1)), ((1, 1), (2, 2))]))
@example(([(0, 1), (0, 2), (1, 1)], [((1, 1), (0, 2)), ((0, 2), (1, 1)), ((1, 1), (0, 2))]))
def test_merge_classes_match_reference(case):
    # chains given out of order, repeated pairs and candidates that no pair names
    candidates, pairs = case
    assert builder._merge_classes(candidates, pairs) == reference_merge_classes(candidates, pairs)


def test_layer_grading_homogeneous():
    g = builder.synthesize(A, (2, 2))
    grading = g.wt_assign(g.maximum_elements()[0])
    for u, v, _ in g.edges():
        assert grading[v][1] == grading[u][1] + 1


def test_synthesized_stats_match_strings():
    # each vertex's written wt is its grading from the top, and its eps/phi
    # are its string lengths
    for M, lam in ((A, (2, 1)), (b3_gcm(), (1, 1, 1))):
        g = builder.synthesize(M, lam)
        eps, phi = string_tables(g)
        grading = g.wt_assign(g.maximum_elements()[0])
        doc = json.loads(graph_to_json(g, True))
        assert [entry["id"] for entry in doc["vertices"]] == g.ids == list(range(len(g)))
        for v, entry in enumerate(doc["vertices"]):
            assert entry["wt"] == {str(i): t for i, t in grading[v][0].items()}
            assert entry["eps"] == {str(i): eps[i][v] for i in g.colors}
            assert entry["phi"] == {str(i): phi[i][v] for i in g.colors}


@pytest.mark.parametrize("M, lam", [(A, (3, 3)), (b3_gcm(), (1, 1, 1))])
def test_vertex_budget_at_the_dimension(M, lam):
    # one test per layer refuses the layer that would pass the budget
    dim = weyl_dim_general(M, lam)
    with pytest.raises(BudgetExceeded, match=f"^vertex budget {dim - 1} exceeded$"):
        builder.synthesize(M, lam, budget_vertices=dim - 1)
    assert len(builder.synthesize(M, lam, budget_vertices=dim)) == dim


def _forced_unions(monkeypatch, layer, pairs):
    """Let the rules merge as usual, then also merge each pair of candidates at the given layer."""
    collect = builder._collect_merges

    def merging(st, k, candidates):
        return collect(st, k, candidates) + (pairs if k == layer else [])

    monkeypatch.setattr(builder, "_collect_merges", merging)


@pytest.mark.parametrize("layer, pairs, message", [
    # two members with one color, also past the first two members of a class
    (2, [((1, 2), (2, 2))], "layer 2: merged candidates collide on color 2: vertex 4 already has an incoming 2-arrow"),
    (5, [((12, 1), (14, 1))], "layer 5: merged candidates collide on color 1: vertex 19 already has an incoming 1-arrow"),
    # members of unequal weights, which no rule's words can pair, are refused
    # where the statistics they break first show it
    (2, [((2, 1), (2, 2))], "layer 5: vertex 27 got negative lowering statistic for 2"),
    (2, [((1, 1), (1, 2))], "layer 6: vertex 21 got negative lowering statistic for 2"),
    # with several wrong classes in one layer, the first vertex's defect is reported
    (5, [((16, 1), (17, 1)), ((12, 2), (14, 1))],
     "layer 5: merged candidates collide on color 1: vertex 22 already has an incoming 1-arrow"),
    (5, [((16, 1), (17, 1)), ((17, 2), (18, 1))],
     "layer 5: merged candidates collide on color 1: vertex 23 already has an incoming 1-arrow"),
])
def test_wrong_merges_refused(monkeypatch, layer, pairs, message):
    _forced_unions(monkeypatch, layer, pairs)
    with pytest.raises(SynthesisInconsistency) as exc:
        builder.synthesize(A, (2, 2))
    assert str(exc.value) == message


@pytest.mark.parametrize("rows", [[[2, -2], [-1, 2]], [[2, -1], [-2, 2]], [[2, -1], [-1, 2]], [[2, 0], [0, 2]]],
                         ids=["B2", "B2-transposed", "A2", "A1xA1"])
def test_rule_words_share_their_letters(rows):
    # a rule's two words take each color equally often, in every orientation
    # that rule_pairs yields, so both ends of a merge pair carry one weight:
    # the reason _layer checks no weights
    entries = axioms.rule_pairs(GCM(rows), 1, 2, axioms.RULES + (axioms.RAISED_DIAMOND,))
    assert entries
    for rule, pair in entries:
        w1, w2 = rule.words(*pair)
        assert sorted(w1) == sorted(w2), (rule.name, pair)


def _fake_rule(words, guard=None):
    """A rule named "fake" that fires at every vertex with both steps on the
    lowering side, which synthesis reads where the vertex's children exist."""
    return axioms.Rule("F", "fake", axioms.ORDERED, (None, None), words, "", guard=guard)


@pytest.mark.parametrize("lam, rule, message", [
    ((1, 1), _fake_rule(lambda i, j: ((i, j), (j, i)), lambda side, xs, i, j: [("F", "forged defect")] * len(xs)),
     "layer 2: fake at 0 (1,2): forged defect"),
    ((1, 1), _fake_rule(lambda i, j: ((i, i, i), (j, j, j))), "layer 3: fake at 0 (1,2) lost its prefix"),
    ((2, 2), _fake_rule(lambda i, j: ((i, i, i), (j, j, j))),
     "layer 3: fake at 0 (1,2) forces child (3, 1) but its statistic is 0"),
])
def test_forged_rules_refused(monkeypatch, lam, rule, message):
    # _collect_merges refuses a guard's defect, a word that steps off the
    # graph, and a forced child that the statistics rule out
    rule_pairs = builder.rule_pairs
    monkeypatch.setattr(builder, "rule_pairs", lambda M, i, j: rule_pairs(M, i, j) + [(rule, (i, j))])
    with pytest.raises(SynthesisInconsistency) as exc:
        builder.synthesize(A, lam)
    assert str(exc.value) == message


@pytest.mark.parametrize("M, lam, message", [
    (A, (1, 1), "layer 4: vertex 9 got negative lowering statistic for 2"),
    (b3_gcm(), (0, 1, 1), "layer 3: vertex 6 got negative lowering statistic for 1"),
])
def test_missing_merges_refused(monkeypatch, M, lam, message):
    # without merges the graph grows as a tree, and some lowering statistic
    # defined through the weight goes negative
    monkeypatch.setattr(builder, "_collect_merges", lambda st, k, candidates: [])
    with pytest.raises(SynthesisInconsistency) as exc:
        builder.synthesize(M, lam)
    assert str(exc.value) == message


@pytest.mark.parametrize("M, lam", [(A, (0, 0)), (A, (2, 2)), (b3_gcm(), (1, 1, 1))])
def test_one_layer_step_per_layer(monkeypatch, M, lam):
    # the driver runs the layer step once per nonempty layer, k = 1, 2, ...,
    # and the layers are ranges that partition the ids by distance from the top
    calls, states, layer = [], [], builder._layer

    def spied(st, k, classes):
        calls.append((k, len(classes)))
        states.append(st)
        layer(st, k, classes)

    monkeypatch.setattr(builder, "_layer", spied)
    g = builder.synthesize(M, lam)
    assert [k for k, _ in calls] == list(range(1, len(calls) + 1)) and all(n for _, n in calls)
    layers = states[-1].layers if states else [range(1)]
    assert [len(r) for r in layers] == [1] + [n for _, n in calls]
    assert [v for r in layers for v in r] == g.ids == list(range(len(g)))
    depth = {v: k for k, r in enumerate(layers) for v in r}
    assert all(depth[d] == depth[s] + 1 for s, d, _ in g.edges())


def test_certification_refused(monkeypatch):
    # the final check_all is the one certificate: a failing report is
    # refused by its summary, and a passing one must carry the top
    # statistics asked for
    failing, passing = axioms.CheckReport(4), axioms.CheckReport(4)
    failing.violations.append(axioms.Violation("S2", (1, 2), 0, "x"))
    passing.max_element, passing.phi0 = 0, {1: 1, 2: 0}
    for report, message in (
            (failing, "synthesized graph failed certification: FAIL: 1 violation(s) [S2]"),
            (passing, "synthesized graph has top statistics {1: 1, 2: 0}, not {1: 0, 2: 1}")):
        monkeypatch.setattr(builder, "check_all", lambda g, M: report)
        with pytest.raises(SynthesisInconsistency) as exc:
            builder.synthesize(A, (0, 1))
        assert str(exc.value) == message


def test_reversal_involution():
    for lam in [(0, 0), (1, 1), (3, 2)]:
        assert oracle.verify_reversal(lam, pbw.generate(lam)).passed


def test_reversal_certifies_each_graph_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return axioms.check_all(*args, **kwargs)

    # build_isomorphism checks the reversed graph, and the walk from it
    # certifies the original, which runs check_all only if the walk fails
    monkeypatch.setattr(builder, "check_all", counted)
    assert oracle.verify_reversal((2, 1), pbw.generate((2, 1))).passed
    assert [g.edges() for g in calls] == [pbw.generate((2, 1)).reverse().edges()]
    # a reversal that fails certification, or passes it with the wrong top
    # statistics, is the report's one failure note, not an exception
    reverse = ColoredGraph.reverse
    for fake in (lambda g: next(deletion_mutants(reverse(g)))[1],
                 lambda g: pbw.generate((1, 2))):
        monkeypatch.setattr(ColoredGraph, "reverse", fake)
        rep = oracle.verify_reversal((2, 1), pbw.generate((2, 1)))
        assert rep.counterexamples == ["(2, 1): reversal is not an involutive crystal symmetry"]


# (matrix, -w0 as the color each color's statistic comes from, weights):
# -w0 swaps the ends of A3 and the spin nodes 4, 5 of D5, and is the
# identity on B3, C3 and D4
_DUAL_TYPES = [
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], (3, 2, 1), [(1, 0, 0), (1, 1, 0), (2, 0, 1)]),
    (b3_gcm().rows, (1, 2, 3), [(1, 0, 0), (0, 0, 1), (1, 1, 0)]),
    (C3_MATRIX_ROWS, (1, 2, 3), [(1, 0, 0), (0, 0, 1), (1, 0, 1)]),
    ([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]], (1, 2, 3, 4),
     [(1, 0, 0, 0), (0, 0, 0, 1), (1, 0, 0, 1)]),
    ([[2, -1, 0, 0, 0], [-1, 2, -1, 0, 0], [0, -1, 2, -1, -1], [0, 0, -1, 2, 0], [0, 0, -1, 0, 2]], (1, 2, 3, 5, 4),
     [(1, 0, 0, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 1, 0)]),
]


@pytest.mark.parametrize("rows,dual,weights", _DUAL_TYPES, ids=["A3", "B3", "C3", "D4", "D5"])
def test_reversal_is_the_crystal_at_minus_w0_lambda(rows, dual, weights):
    # the reversal of B(lam) is B(-w0 lam): it passes the axioms, its top
    # statistics are those of the lowest element, and it is isomorphic to
    # the crystal synthesized there
    A = GCM(rows)
    for lam in weights:
        mirrored = tuple(lam[c - 1] for c in dual)
        rev = builder.synthesize(A, lam).reverse()
        assert axioms.check_all(rev, A).passed, lam
        assert axioms.summit(rev)[1] == dict(zip(A.colors, mirrored)), lam
        assert builder.build_isomorphism(rev, builder.synthesize(A, mirrored), A)


def test_rank3_smoke():
    B3 = b3_gcm()
    g = builder.synthesize(B3, (1, 0, 0))
    assert len(g) == weyl_dim_general(B3, (1, 0, 0)) == 7
    rep = axioms.check_all(g, B3)
    assert rep.passed and rep.phi0 == {1: 1, 2: 0, 3: 0}
    # the other orientation of the doubly-laced block is the rank-3
    # symplectic matrix, whose first fundamental representation has
    # dimension 6; synthesis and the product formula agree there too
    C3 = GCM(C3_MATRIX_ROWS)
    g = builder.synthesize(C3, (1, 0, 0))
    assert len(g) == weyl_dim_general(C3, (1, 0, 0)) == 6
    assert axioms.check_all(g, C3).passed


def test_rank3_bigger_weights():
    B3 = b3_gcm()
    for phi0 in [(0, 1, 0), (0, 0, 1), (1, 0, 1)]:
        g = builder.synthesize(B3, phi0)
        assert len(g) == weyl_dim_general(B3, phi0), phi0
        assert axioms.check_all(g, B3).passed, phi0


def test_unsupported_matrix_rejected():
    for rows, phi0, message in (
        ([[2, -3], [-1, 2]], (1, 0), r"pair \(1,2\) has off-diagonal entries \(-3, -1\)"),
        ([[2, -3, 0], [-1, 2, -1], [0, -1, 2]], (1, 0, 0), r"pair \(1,2\) has off-diagonal entries \(-3, -1\)"),
        ([[2, -1, 0], [-1, 2, -1], [0, -4, 2]], (0, 0, 1), r"pair \(2,3\) has off-diagonal entries \(-1, -4\)"),
    ):
        with pytest.raises(UnsupportedPair, match=f"^{message}$"):
            builder.synthesize(GCM(rows), phi0)


def test_budgets():
    with pytest.raises(BudgetExceeded):
        builder.synthesize(A, (3, 3), budget_vertices=10)


def test_bad_phi0_rejected():
    with pytest.raises(ValueError):
        builder.synthesize(A, (-1, 0))
    # a weight with too few or too many entries is refused, not cut or padded
    for lam in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError, match=f"phi0 has {len(lam)} entries for 2 colors"):
            builder.synthesize(A, lam)
        with pytest.raises(ValueError, match=f"lam has {len(lam)} entries for 2 colors"):
            weyl_dim_general(A, lam)
