import pytest

from b2crystal import graph, pbw
from b2crystal.axioms import check_all
from b2crystal.builder import build_isomorphism, synthesize
from b2crystal.cartan import b2_gcm
from b2crystal.errors import (
    DuplicateEdge,
    InconsistentWeight,
    NonTerminating,
    UndefinedStep,
)
from b2crystal.graph import ColoredGraph, string_tables
from helpers import (
    a2_crystal_1_1,
    a2_crystal_2_0,
    bad_confluence_graph,
    deletion_mutants,
    relabelled,
)


def two_vertex():
    g = ColoredGraph((1, 2))
    g.add_vertex()
    g.add_vertex()
    return g


def test_add_edge_and_duplicates():
    g = two_vertex()
    g.add_edge(0, 1, 1)
    assert g.f_step(1, 0) == 1 and g.e_step(1, 1) == 0
    g.add_edge(0, 1, 2)  # a different color is fine
    with pytest.raises(DuplicateEdge):
        g.add_edge(0, 1, 1)
    g2 = two_vertex()
    v = g2.add_vertex()
    g2.add_edge(0, 1, 1)
    with pytest.raises(DuplicateEdge):
        g2.add_edge(v, 1, 1)  # second incoming 1-arrow
    with pytest.raises(ValueError):
        g2.add_edge(0, 99, 1)


def test_frozen_graph_rejects_mutation():
    g = two_vertex().freeze()
    with pytest.raises(RuntimeError):
        g.add_vertex()
    with pytest.raises(RuntimeError):
        g.add_edge(0, 1, 1)


def test_string_stats_isolated_and_chain():
    g = ColoredGraph((1, 2))
    g.add_vertex()
    eps, phi = g.string_stats(0)
    assert eps == {1: 0, 2: 0} and phi == {1: 0, 2: 0}

    crystal = pbw.generate((1, 0))  # a 4-chain 1,2,1
    eps, phi = crystal.string_stats(0)
    assert eps == {1: 0, 2: 0} and phi[1] == 1
    child = crystal.f_step(1, 0)
    eps, phi = crystal.string_stats(child)
    assert eps[1] == 1 and phi[1] == 0


def test_string_stats_cycle_detection():
    g = ColoredGraph((1,))
    g.add_vertex()
    g.add_edge_unchecked(0, 0, 1)
    with pytest.raises(NonTerminating):
        g.eps(1, 0)
    assert any(v.rule == "G3" for v in g.is_good())
    with pytest.raises(NonTerminating):
        string_tables(g)


def test_delta_basics():
    g = pbw.generate((1, 1))
    # along any raising step the same-color raising statistic drops by one
    for v in g.vertices():
        for i in g.colors:
            if g.e_step(i, v) is not None:
                assert g.delta("e", "eps", i, i, v) == -1
                assert g.delta("e", "phi", i, i, v) == 1
    with pytest.raises(UndefinedStep):
        g.delta("e", "eps", 1, 2, 0)  # no raising steps at the top


def test_delta_pair_at_interlocked_element():
    lam = (1, 1)
    g = pbw.generate(lam)
    pick = [v for v in g.vertices() if g.label(v) == pbw.PbwElement((1, 1, 1, 1), (1, 1, 1, 1))]
    assert len(pick) == 1
    x = pick[0]
    assert (g.delta("e", "eps", 1, 2, x), g.delta("e", "eps", 2, 1, x)) == (1, 2)


def test_lowering_raising_delta_mirror():
    # the lowering-side delta is minus the raising-side delta one step down
    g = pbw.generate((2, 2))
    for v in g.vertices():
        for i in g.colors:
            w = g.f_step(i, v)
            if w is None:
                continue
            for j in g.colors:
                for stat in ("eps", "phi"):
                    assert g.delta("f", stat, i, j, v) == -g.delta("e", stat, i, j, w)


def test_string_step_identities():
    # raising/lowering statistics move by exactly one along own-color arrows
    g = pbw.generate((2, 1))
    for v in g.vertices():
        for i in g.colors:
            w = g.f_step(i, v)
            if w is None:
                continue
            assert g.eps(i, w) == g.eps(i, v) + 1
            assert g.phi(i, w) == g.phi(i, v) - 1


def test_is_good_reports_all():
    g = ColoredGraph((1,))
    for _ in range(4):
        g.add_vertex()
    g.add_edge_unchecked(0, 2, 1)
    g.add_edge_unchecked(1, 2, 1)  # G2 at 2
    g.add_edge_unchecked(3, 3, 1)  # G3 self-loop
    g.add_edge_unchecked(0, 1, 1)  # G1 at 0 (two outgoing)
    rules = {v.rule for v in g.is_good()}
    assert rules == {"G1", "G2", "G3"}
    assert pbw.generate((2, 2)).is_good() == []


def test_maximum_elements():
    g = pbw.generate((1, 1))
    assert g.maximum_elements() == [0]
    assert g.label(0) == pbw.PbwElement((0, 0, 0, 0), (0, 0, 0, 0))

    single = ColoredGraph((1,))
    single.add_vertex()
    assert single.maximum_elements() == [0]

    # disjoint union of two crystals: each source fails reachability
    a = pbw.generate((1, 0))
    union = ColoredGraph((1, 2))
    for v in a.vertices():
        union.add_vertex(vid=v)
        union.add_vertex(vid=100 + v)
    for s, d, c in a.edges():
        union.add_edge(s, d, c)
        union.add_edge(100 + s, 100 + d, c)
    assert union.maximum_elements() == []


def _maximum_elements_per_source(g):
    """The definition maximum_elements replaced: one BFS from every source."""
    out = []
    for v in g.vertices():
        if any(g.e_step(i, v) is not None for i in g.colors):
            continue
        seen = {v}
        queue = [v]
        while queue:
            u = queue.pop()
            for i in g.colors:
                w = g.f_step(i, u)
                if w is not None and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) == len(g):
            out.append(v)
    return out


def test_maximum_elements_matches_per_source_definition(monkeypatch):
    computed = []
    find = graph._maximum_elements

    def counted(g):
        computed.append(g)
        return find(g)

    monkeypatch.setattr(graph, "_maximum_elements", counted)
    fixtures = [a2_crystal_2_0(), a2_crystal_1_1(), bad_confluence_graph(),
                pbw.generate((1, 1)), pbw.generate((2, 1)).reverse()]
    fixtures += [mut for _, mut in deletion_mutants(pbw.generate((1, 1)))]
    # many sources feeding one long chain: no maximum element
    fan = ColoredGraph((1, 2))
    chain = [fan.add_vertex() for _ in range(40)]
    for s, d in zip(chain, chain[1:]):
        fan.add_edge(s, d, 1)
    for k in range(1, 30):
        fan.add_edge(fan.add_vertex(), chain[k], 2)
    fixtures.append(fan.freeze())
    # a 40-chain with a single source: its head is the maximum
    lone = ColoredGraph((1,))
    for v in range(40):
        lone.add_vertex()
    for v in range(39):
        lone.add_edge(v, v + 1, 1)
    fixtures.append(lone.freeze())
    for g in fixtures:
        assert g.maximum_elements() == _maximum_elements_per_source(g)
        assert g.maximum_elements() == _maximum_elements_per_source(g)
    assert fan.maximum_elements() == [] and lone.maximum_elements() == [0]
    # a frozen graph finds its maximum elements once, an unfrozen one per call
    assert len(computed) == len(fixtures)
    computed.clear()
    m = pbw.generate((1, 1)).copy_mutable()
    assert m.maximum_elements() == m.maximum_elements() == [0]
    assert computed == [m, m]


def test_frozen_graph_keeps_string_tables():
    g = pbw.generate((2, 1))
    assert g.tables() == string_tables(g)
    assert g.tables() is g.tables()

    m = ColoredGraph((1,))
    m.add_vertex()
    m.add_vertex()
    first = m.tables()
    assert first == string_tables(m) and m.tables() is not first
    m.add_edge(0, 1, 1)  # an unfrozen graph's tables follow its edits
    assert m.tables() == string_tables(m) == ({1: {0: 0, 1: 1}}, {1: {0: 1, 1: 0}})


def test_frozen_graph_keeps_dense_view(monkeypatch):
    built = []

    class Counted(graph.DenseView):
        def __init__(self, g):
            built.append(g)
            super().__init__(g)

    monkeypatch.setattr(graph, "DenseView", Counted)
    # positions index the sorted ids, which here are not 0..n-1
    r = relabelled(pbw.generate((2, 1)), seed=5)
    view = r.dense()
    eps, phi = r.tables()
    assert view.ids == r.vertices() and view.ids[0] >= 1000
    for k, v in enumerate(view.ids):
        for i in r.colors:
            assert view.vid(view.up[i][k]) == r.e_step(i, v)
            assert view.vid(view.down[i][k]) == r.f_step(i, v)
            assert (view.eps[i][k], view.phi[i][k]) == (eps[i][v], phi[i][v])
        assert view.vid(view.descend(k, (1, 2, 2))) == r.descend(v, (1, 2, 2))

    A = b2_gcm()
    built.clear()
    g = pbw.generate((2, 1))
    s = synthesize(A, (2, 1))  # certified, so its view is built
    assert check_all(g, A).passed
    build_isomorphism(g, s)
    assert sorted(map(id, built)) == sorted([id(g), id(s)])
    assert g.dense() is g.dense() and len(built) == 2

    m = g.copy_mutable()
    built.clear()
    assert check_all(m, A).passed  # one view shared by the three batteries
    assert built == [m]
    assert m.dense() is not m.dense()


def test_wt_assign_on_crystal():
    lam = (2, 1)
    g = pbw.generate(lam)
    grading = g.wt_assign(0)
    assert grading[0] == ({}, 0)
    for v in g.vertices():
        wt, dist = grading[v]
        counts = pbw.root_count(g.label(v))
        assert {c: n for c, n in wt.items() if n} == {c: n for c, n in counts.items() if n}
        assert dist == sum(wt.values())


def test_wt_assign_inconsistent():
    g = bad_confluence_graph()
    assert g.is_good() == []
    assert g.maximum_elements() == [0]
    with pytest.raises(InconsistentWeight) as exc:
        g.wt_assign(0)
    assert exc.value.vertex == 2
    assert {exc.value.first != exc.value.second}


def test_wt_assign_requires_reaching_everything():
    g = ColoredGraph((1,))
    g.add_vertex()
    g.add_vertex()
    with pytest.raises(ValueError):
        g.wt_assign(0)


def test_reverse():
    g = pbw.generate((1, 1))
    r = g.reverse()
    assert r.reverse().edges() == g.edges()
    assert len(r.maximum_elements()) == 1
    # a chain reverses end to end
    chain = pbw.generate((1, 0))
    rc = chain.reverse()
    assert rc.maximum_elements() == [3]
    assert rc.f_step(1, 3) == 2


def test_k1_identity_on_generated():
    # lowering minus raising statistic equals the residual pairing
    from b2crystal.cartan import b2_gcm, pairing_of_root_count

    A = b2_gcm()
    for lam in [(1, 1), (3, 2)]:
        g = pbw.generate(lam)
        grading = g.wt_assign(0)
        eps, phi = string_tables(g)
        for v in g.vertices():
            drop = pairing_of_root_count(A, grading[v][0])
            for k, i in enumerate(A.colors):
                assert phi[i][v] - eps[i][v] == lam[k] - drop[i]
