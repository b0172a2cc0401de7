import re
from itertools import product
from typing import NamedTuple

import pytest

from b2crystal import axioms, cli, graph, pbw
from b2crystal.axioms import check_all, walk_all
from b2crystal.builder import build_isomorphism, synthesize
from b2crystal.cartan import GCM, b2_gcm, b3_gcm
from b2crystal.cli import doc_to_graph, graph_to_doc
from b2crystal.errors import BudgetExceeded, DuplicateEdge, InconsistentWeight, NonTerminating
from b2crystal.graph import ColoredGraph, string_tables
from helpers import (
    a2_crystal_1_1,
    a2_crystal_2_0,
    bad_confluence_graph,
    copy_mutable,
    deletion_mutants,
    duplicate_mutants,
    e_step,
    f_step,
    build_graph,
    pairing_of_root_count,
    position,
    recolor_mutants,
    redirect_mutants,
    reference_is_good,
    reference_maximum_elements,
    reference_string_tables,
    reference_wt_assign,
    relabelled,
    root_count,
)


def test_add_vertices_requires_increasing_ids():
    g = ColoredGraph((1, 2))
    g.add_vertices([2, 5])
    for ids, message in (([7, 7], "7 after 7"), ([9, 8], "8 after 9"), ([5], "5 after 5"), ([3], "3 after 5")):
        with pytest.raises(ValueError, match=f"vertex ids must increase: {message}"):
            g.add_vertices(ids)
    assert g.ids == [2, 5] and g.labels == [None, None] and g.up[1] == [None, None]
    g.add_vertices([6, 8], labels=["p", "q"])
    assert (g.ids, g.labels, position(g, 8), position(g, 7)) == ([2, 5, 6, 8], [None, None, "p", "q"], 3, None)
    g.add_arrows(1, [0], [3])
    with pytest.raises(ValueError, match="unknown color 3"):
        g.add_arrows(3, [0], [1])
    assert (f_step(g, 1, 2), e_step(g, 1, 8), f_step(g, 2, 2)) == (8, 2, None)


def string_stats(g, v):
    """Per-color (eps, phi) vectors at vertex v, read from the tables."""
    eps, phi = g.tables()
    k = position(g, v)
    return {i: eps[i][k] for i in g.colors}, {i: phi[i][k] for i in g.colors}


def delta(g, direction, stat, i, j, v):
    """Change of the j-statistic across the i-step from v, read from the tables."""
    w = e_step(g, i, v) if direction == "e" else f_step(g, i, v)
    assert w is not None
    k = 0 if stat == "eps" else 1
    return string_stats(g, w)[k][j] - string_stats(g, v)[k][j]


def test_graph_violation_is_an_immutable_value():
    v = graph.GraphViolation("G1", 3, "2 outgoing 1-arrows")
    with pytest.raises(AttributeError):
        v.rule = "G2"
    twin = graph.GraphViolation("G1", 3, "2 outgoing 1-arrows")
    assert v == twin and hash(v) == hash(twin) and v != graph.GraphViolation("G1", 4, "2 outgoing 1-arrows")


def test_string_stats_isolated_and_chain():
    g = build_graph((1, 2), 1)
    eps, phi = string_stats(g, 0)
    assert eps == {1: 0, 2: 0} and phi == {1: 0, 2: 0}

    crystal = pbw.generate((1, 0))  # a 4-chain 1,2,1
    eps, phi = string_stats(crystal, 0)
    assert eps == {1: 0, 2: 0} and phi[1] == 1
    child = f_step(crystal, 1, 0)
    eps, phi = string_stats(crystal, child)
    assert eps[1] == 1 and phi[1] == 0


def test_string_stats_cycle_detection():
    g = build_graph((1,), 1, [(0, 0, 1)])
    assert any(v.rule == "G3" for v in g.is_good())
    with pytest.raises(NonTerminating):
        string_tables(g)
    # under a G2 violation, a head's string can run into a cycle: the walk
    # from the head 7 loops through 8 -> 9 -> 8
    h = build_graph((1,), (7, 8, 9), [(7, 8, 1), (8, 9, 1), (9, 8, 1)])
    assert [v.rule for v in h.is_good()] == ["G2", "G3"] and h.is_good() == reference_is_good(h)
    with pytest.raises(NonTerminating, match="^monochromatic 1-cycle through 7$"):
        string_tables(h)


def test_is_good_reads_cycles_from_string_coverage():
    # degrees are clean in both colors; color 2 has a head-less 3-cycle
    # 15 -> 13 -> 14 -> 15 beside the chain 10 -> 11 -> 12 and a chain 16 -> 17
    # into nothing, and color 1 is good
    edges = [(10, 11, 1), (11, 12, 1), (13, 16, 1), (10, 11, 2), (11, 12, 2),
             (15, 13, 2), (13, 14, 2), (14, 15, 2), (16, 17, 2)]
    g = build_graph((1, 2), range(10, 18), edges)
    assert g.is_good() == reference_is_good(g) == [graph.GraphViolation("G3", 13, "monochromatic 2-cycle")]
    assert "tables" not in g._kept  # the tables raised, so none are kept


def test_delta_basics():
    g = pbw.generate((1, 1))
    # along any raising step the same-color raising statistic drops by one
    for v in g.vertices():
        for i in g.colors:
            if e_step(g, i, v) is not None:
                assert delta(g, "e", "eps", i, i, v) == -1
                assert delta(g, "e", "phi", i, i, v) == 1
    assert all(e_step(g, i, 0) is None for i in g.colors)  # no raising steps at the top


def test_delta_pair_at_interlocked_element():
    lam = (1, 1)
    g = pbw.generate(lam)
    pick = [v for v, m in zip(g.ids, g.labels) if m == pbw.PbwElement((1, 1, 1, 1), (1, 1, 1, 1))]
    assert len(pick) == 1
    x = pick[0]
    assert (delta(g, "e", "eps", 1, 2, x), delta(g, "e", "eps", 2, 1, x)) == (1, 2)


def test_lowering_raising_delta_mirror():
    # the lowering-side delta is minus the raising-side delta one step down
    g = pbw.generate((2, 2))
    for v in g.vertices():
        for i in g.colors:
            w = f_step(g, i, v)
            if w is None:
                continue
            for j in g.colors:
                for stat in ("eps", "phi"):
                    assert delta(g, "f", stat, i, j, v) == -delta(g, "e", stat, i, j, w)


def test_string_step_identities():
    # raising/lowering statistics move by exactly one along own-color arrows
    g = pbw.generate((2, 1))
    for v in g.vertices():
        for i in g.colors:
            w = f_step(g, i, v)
            if w is None:
                continue
            (eps_v, phi_v), (eps_w, phi_w) = string_stats(g, v), string_stats(g, w)
            assert eps_w[i] == eps_v[i] + 1
            assert phi_w[i] == phi_v[i] - 1


def test_is_good_reports_all():
    edges = [(0, 2, 1),
             (1, 2, 1),  # G2 at 2
             (3, 3, 1),  # G3 self-loop
             (0, 1, 1)]  # G1 at 0 (two outgoing)
    g = build_graph((1,), 4, edges)
    rules = {v.rule for v in g.is_good()}
    assert rules == {"G1", "G2", "G3"}
    # navigation keeps the first recorded arrow, also in a graph whose
    # vertices were given out of id order
    assert (f_step(g, 1, 0), e_step(g, 1, 2)) == (2, 0)
    h = build_graph((1,), (3, 2, 1, 0), edges)
    assert (f_step(h, 1, 0), e_step(h, 1, 2), h.is_good()) == (2, 0, g.is_good())
    assert pbw.generate((2, 2)).is_good() == []


def test_maximum_elements():
    g = pbw.generate((1, 1))
    assert g.maximum_elements() == [0]
    assert g.labels[0] == pbw.PbwElement((0, 0, 0, 0), (0, 0, 0, 0))

    single = build_graph((1,), 1)
    assert single.maximum_elements() == [0]

    # disjoint union of two crystals: each source fails reachability
    a = pbw.generate((1, 0))
    union = build_graph((1, 2), a.ids + [100 + v for v in a.ids],
                  a.edges() + [(100 + s, 100 + d, c) for s, d, c in a.edges()])
    assert union.maximum_elements() == []


def _maximum_elements_per_source(g):
    """The definition maximum_elements replaced: one BFS from every source."""
    out = []
    for v in g.vertices():
        if any(e_step(g, i, v) is not None for i in g.colors):
            continue
        seen = {v}
        queue = [v]
        while queue:
            u = queue.pop()
            for i in g.colors:
                w = f_step(g, i, u)
                if w is not None and w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) == len(g):
            out.append(v)
    return out


def test_maximum_elements_matches_per_source_definition(monkeypatch):
    computed = []
    find = graph._top_walk

    def counted(g):
        computed.append(g)
        return find(g)

    monkeypatch.setattr(graph, "_top_walk", counted)
    fixtures = [a2_crystal_2_0(), a2_crystal_1_1(), bad_confluence_graph(),
                pbw.generate((1, 1)), pbw.generate((2, 1)).reverse()]
    fixtures += [mut for _, mut in deletion_mutants(pbw.generate((1, 1)))]
    # many sources feeding one long chain: no maximum element
    fan = build_graph((1, 2), 69, [(k, k + 1, 1) for k in range(39)] + [(39 + k, k, 2) for k in range(1, 30)])
    fixtures.append(fan)
    # a 40-chain with a single source: its head is the maximum
    lone = build_graph((1,), 40, [(v, v + 1, 1) for v in range(39)])
    fixtures.append(lone)
    for g in fixtures:
        assert g.maximum_elements() == _maximum_elements_per_source(g)
        assert g.maximum_elements() == _maximum_elements_per_source(g)
    assert fan.maximum_elements() == [] and lone.maximum_elements() == [0]
    # a graph finds its maximum elements once, and again after each edit
    assert len(computed) == len(fixtures)
    computed.clear()
    m = copy_mutable(pbw.generate((1, 1)))
    assert m.maximum_elements() == m.maximum_elements() == [0]
    m.add_vertices([16])  # a second source
    assert m.maximum_elements() == m.maximum_elements() == []
    m.add_arrows(2, [16], [0])  # now the sole source
    assert m.maximum_elements() == m.maximum_elements() == [16]
    assert computed == [m, m, m]


def test_frozen_graph_keeps_string_tables():
    g = pbw.generate((2, 1))
    assert g.tables() == string_tables(g)
    assert g.tables() is g.tables()

    m = build_graph((1,), 2)
    first = m.tables()
    assert first == string_tables(m) and m.tables() is first
    m.add_arrows(1, [0], [1])  # the tables are kept until the next edit
    assert m.tables() is not first and m.tables() == string_tables(m) == ({1: [0, 1]}, {1: [1, 0]})


def test_frozen_graph_keeps_positions_and_tables(monkeypatch):
    # positions index the sorted ids, which here are not 0..n-1
    r = relabelled(pbw.generate((2, 1)), seed=5)
    eps, phi = r.tables()
    ref_eps, ref_phi = reference_string_tables(r)
    assert r.ids == r.vertices() == sorted(r.ids) and r.ids[0] >= 1000
    for k, v in enumerate(r.ids):
        for i in r.colors:
            assert vid(r, r.up[i][k]) == e_step(r, i, v)
            assert vid(r, r.down[i][k]) == f_step(r, i, v)
            assert (eps[i][k], phi[i][k]) == (ref_eps[i][v], ref_phi[i][v])
    # the bulk walk, from every position at once
    everywhere = range(len(r))
    assert [vid(r, k) for k in walk_all(r.down, everywhere, (1, 2, 2))] == [
        reference_descend(r, v, (1, 2, 2)) for v in r.ids]
    assert [vid(r, k) for k in walk_all(r.up, everywhere, (2, 1))] == [reference_climb(r, v, (2, 1)) for v in r.ids]

    computed = []
    tables = graph.string_tables

    def counted(g):
        computed.append(g)
        return tables(g)

    monkeypatch.setattr(graph, "string_tables", counted)
    A = b2_gcm()
    g = pbw.generate((2, 1))
    s = synthesize(A, (2, 1))  # certified, so its tables are computed
    assert check_all(g, A).passed
    build_isomorphism(g, s, A)
    assert sorted(map(id, computed)) == sorted([id(g), id(s)])
    assert g.tables() is g.tables() and len(computed) == 2

    # the first check of a graph keeps one grouping per side and color
    # pair, shared by S4-S5 and S6-S9, and one pair of tables: the S2/S3
    # pass builds the raising groupings, so axioms.grouping runs once per
    # pair, for the lowering side only; a second check builds neither.  The
    # B3 graph is loaded, since synthesize has already checked its own result.
    groupings, grouping = [], axioms.grouping

    def counted_grouping(side, xs, i, j):
        groupings.append((side.sign, i, j))
        return grouping(side, xs, i, j)

    fresh = [pbw.generate((2, 1)), doc_to_graph(graph_to_doc(synthesize(b3_gcm(), (1, 0, 0))))]
    monkeypatch.setattr(axioms, "grouping", counted_grouping)
    for f, kept in zip(fresh, (2, 6)):
        computed.clear()
        assert f.is_good() == [] and computed == [f]  # goodness computes the tables check_all reads
        assert check_all(f, f.cartan).passed
        keys = [key for key in f._kept if isinstance(key, tuple) and key[0] == "grouping"]
        assert len(keys) == kept and {key[1] for key in keys} == {"MINUS", "PLUS"}
        assert len(groupings) == len(set(groupings)) == kept // 2 and {s for s, _, _ in groupings} == {"PLUS"}
        assert computed == [f]
        groupings.clear()
        computed.clear()
        assert check_all(f, f.cartan).passed
        assert groupings == [] and computed == []
    # a graph built by edits keeps its own tables until its next edit
    m = copy_mutable(g)
    computed.clear()
    assert check_all(m, A).passed and m.tables() is m.tables() and computed == [m]
    m.add_vertices([m.ids[-1] + 1])
    assert m.tables() is m.tables() and computed == [m, m]


def test_frozen_graph_keeps_weight_codes(monkeypatch, tmp_path):
    # a graph walks from its top once until its next edit, so gen --method
    # axioms runs one weight BFS for both its certification and the
    # document's wt; the kept conflict is raised on every call
    g = pbw.generate((2, 1))
    assert g.weight_codes() is g.weight_codes()
    m = copy_mutable(g)
    assert m.weight_codes() == g.weight_codes() and m.weight_codes() is m.weight_codes()
    m.add_vertices([len(g)])  # a second source: no maximum element
    with pytest.raises(ValueError, match="no maximum element"):
        m.weight_codes()
    bad = bad_confluence_graph()
    for _ in range(2):
        with pytest.raises(InconsistentWeight):
            bad.weight_codes()

    walks, walk = [], graph._top_walk
    monkeypatch.setattr(graph, "_top_walk", lambda g: walks.append(g) or walk(g))
    assert cli.main(["gen", "--hw", "4,4", "--method", "axioms", "--out", str(tmp_path / "g.json")]) == 0
    assert len(walks) == 1


def test_kept_data_follows_edits():
    # check_all fills the tables, the top walk and the groupings; after each
    # edit, every read equals that of the same graph built fresh
    A = b2_gcm()
    g = pbw.generate((2, 1))
    n = len(g)
    assert check_all(g, A).passed
    for edit in (lambda: g.add_vertices([n]),  # a second source
                 lambda: g.add_arrows(1, [n - 1], [n])):  # the lowest vertex's 1-child
        edit()
        fresh = copy_mutable(g)
        for read in (ColoredGraph.tables, ColoredGraph.maximum_elements, ColoredGraph.weight_codes,
                     lambda h: check_all(h, A).to_dict()):
            assert _outcome(read, g) == _outcome(read, fresh)
    assert g.maximum_elements() == [0] and not check_all(g, A).passed


def vid(g, k):
    return None if k is None else g.ids[k]


def reference_descend(g, v, colors):
    for c in colors:
        v = f_step(g, c, v)
        if v is None:
            return None
    return v


def reference_climb(g, v, colors):
    for c in colors:
        v = e_step(g, c, v)
        if v is None:
            return None
    return v


def test_wt_assign_on_crystal():
    lam = (2, 1)
    g = pbw.generate(lam)
    grading = g.wt_assign(0)
    assert grading[0] == ({}, 0)
    for v, m in zip(g.ids, g.labels):
        wt, dist = grading[v]
        counts = root_count(m)
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
    g = build_graph((1,), 2)
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
    assert f_step(rc, 1, 3) == 2


class Cell(NamedTuple):
    # an A1 x A1 grid element: each color's key is the whole pair (u, v)
    one: tuple
    two: tuple


def grid(p, q, budget, complete=lambda key, i: Cell(key, key)):
    """The A1 x A1 crystal at (p, q) by closure: f_1 raises u while u < p,
    f_2 raises v while v < q."""
    def lower(m, i):
        u, v = m.one
        if i == 1:
            return (u + 1, v) if u < p else None
        return (u, v + 1) if v < q else None

    return graph.closure(Cell((0, 0), (0, 0)), (1, 2), lower, complete, budget)


def test_closure_builds_a_second_model():
    A = GCM([[2, 0], [0, 2]])
    for p, q in [(0, 0), (2, 0), (1, 3), (3, 2)]:
        size = (p + 1) * (q + 1)
        g = grid(p, q, size)
        # breadth first, color 1 first: by distance, then u falling
        cells = sorted(product(range(p + 1), range(q + 1)), key=lambda c: (c[0] + c[1], -c[0]))
        assert g.ids == list(range(size)) and [m.one for m in g.labels] == cells
        rep = check_all(g, A)
        assert rep.passed and rep.phi0 == {1: p, 2: q}
        assert len(build_isomorphism(g, synthesize(A, (p, q)), A)) == size
        with pytest.raises(BudgetExceeded, match=f"^vertex budget {size - 1} exceeded$"):
            grid(p, q, size - 1)
    # a completion that gives every child the top's key of color 2
    message = ("the 1-arrow from vertex 0 reaches Cell(one=(1, 0), two=(0, 0)), "
               "whose two side names vertex 0: the transition map is not injective")
    with pytest.raises(DuplicateEdge, match=f"^{re.escape(message)}$"):
        grid(1, 1, 4, complete=lambda key, i: Cell(key, (0, 0)))


def test_k1_identity_on_generated():
    # lowering minus raising statistic equals the residual pairing
    A = b2_gcm()
    for lam in [(1, 1), (3, 2)]:
        g = pbw.generate(lam)
        grading = g.wt_assign(0)
        eps, phi = string_tables(g)
        for v in g.vertices():
            drop = pairing_of_root_count(A, grading[v][0])
            for k, i in enumerate(A.colors):
                assert phi[i][v] - eps[i][v] == lam[k] - drop[i]


def chain_into_cycle():
    """A 1-chain 0 -> 1 entering the 1-cycle 1 -> 2 -> 3 -> 1, a 2-cycle
    4 <-> 5 that nothing enters, and a 2-arrow from the chain to it."""
    return build_graph((1, 2), 6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1), (4, 5, 2), (5, 4, 2), (0, 4, 2)])


def recolored(g):
    """g with its two colors exchanged, so that paths use color 2 first."""
    return build_graph(g.colors, g.ids, [(s, d, 3 - c) for s, d, c in g.edges()])


def with_loose_loop(g):
    """g plus a vertex whose only arrow is a 2-loop: it is no source, and
    nothing reaches it."""
    v = g.ids[-1] + 1
    return copy_mutable(g, extra_edges=[(v, v, 2)])


def fork_mutants(g):
    """g with a second arrow out of the source of one arrow, of its color,
    to the vertex after its target."""
    ids = g.vertices()
    for s, d, c in g.edges():
        yield copy_mutable(g, extra_edges=[(s, ids[(ids.index(d) + 1) % len(ids)], c)])


def _list_pass_cases():
    seed = 0
    for g in (a2_crystal_2_0(), a2_crystal_1_1(), bad_confluence_graph(), pbw.generate((2, 1)),
              chain_into_cycle(), recolored(bad_confluence_graph()),
              with_loose_loop(pbw.generate((1, 1)))):
        seed += 1
        yield g
        yield relabelled(g, seed)
    for lam in ((2, 2), (3, 2)):
        g = pbw.generate(lam)
        for mutants in (deletion_mutants, redirect_mutants, duplicate_mutants):
            for _, mut in mutants(g):
                seed += 1
                yield relabelled(mut, seed)
        for mut in fork_mutants(g):
            seed += 1
            yield relabelled(mut, seed)
    for _, mut in deletion_mutants(synthesize(b3_gcm(), (0, 1, 0))):
        yield mut


def _outcome(f, *args):
    try:
        return f(*args)
    except (InconsistentWeight, NonTerminating, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _id_keyed(g, tables):
    eps, phi = tables
    return ({i: dict(zip(g.ids, eps[i])) for i in g.colors},
            {i: dict(zip(g.ids, phi[i])) for i in g.colors})


def test_list_passes_match_reference():
    # the passes over positions return, or raise, exactly what the id-keyed
    # passes did, on graphs whose ids are not their positions
    seen = set()
    for g in _list_pass_cases():
        good = g.is_good()
        assert good == reference_is_good(g), g.vertices()[:3]
        seen.update(v.rule for v in good)
        maxes = g.maximum_elements()
        assert maxes == reference_maximum_elements(g)
        for x0 in maxes:
            got = _outcome(g.wt_assign, x0)
            assert got == _outcome(reference_wt_assign, g, x0), (g.vertices()[:3], x0)
            seen.add(got[0] if isinstance(got, tuple) else "graded")
        # grading from any other vertex is refused
        for x0 in {g.vertices()[-1]} - set(maxes):
            assert _outcome(g.wt_assign, x0) == ("ValueError", f"{x0} is not the maximum element")
            seen.add("ValueError")
        tables = _outcome(string_tables, g)
        if isinstance(tables, tuple) and tables[0] == "NonTerminating":
            assert tables == _outcome(reference_string_tables, g)
        else:
            assert _id_keyed(g, tables) == reference_string_tables(g)
        seen.add(tables[0] if isinstance(tables[0], str) else "tables")
    assert seen == {"G1", "G2", "G3", "InconsistentWeight", "ValueError", "NonTerminating",
                    "graded", "tables"}, seen


def conflict_before_tail():
    """Two paths to vertex 3 with multisets {1: 2} and {2: 2}, and a 1-chain
    3 -> 4 -> 5 below it: a walk from 0 meets the conflict before it has
    reached 4 and 5."""
    return build_graph((1, 2), 6, [(0, 1, 1), (1, 3, 1), (0, 2, 2), (2, 3, 2), (3, 4, 1), (4, 5, 1)])


def test_top_walk_matches_reference():
    # one walk from the top gives the maximum elements, and the grading at
    # the maximum element, of the separate reference passes: the same codes,
    # or the same conflict, also where the walk goes on past the conflict
    early = conflict_before_tail()
    cases = list(_list_pass_cases()) + [early]
    for g in (pbw.generate((1, 1)), pbw.generate((2, 1)), synthesize(b3_gcm(), (1, 0, 0))):
        for mutants in (deletion_mutants, redirect_mutants, duplicate_mutants, recolor_mutants):
            cases += [mut for _, mut in mutants(g)]
    seen = set()
    for g in cases:
        maxes = g.maximum_elements()
        assert maxes == reference_maximum_elements(g), g.vertices()[:3]
        if not maxes:
            assert _outcome(g.weight_codes) == ("ValueError", "no maximum element")
            seen.add("no maximum")
            continue
        (x0,) = maxes
        want = _outcome(reference_wt_assign, g, x0)
        assert _outcome(g.wt_assign, x0) == want, g.vertices()[:3]
        if isinstance(want, tuple):
            assert _outcome(g.weight_codes) == want
        seen.add(want[0] if isinstance(want, tuple) else "graded")
    assert seen == {"graded", "InconsistentWeight", "no maximum"}
    assert early.maximum_elements() == [0]
    with pytest.raises(InconsistentWeight) as exc:
        early.weight_codes()
    assert (exc.value.vertex, exc.value.first, exc.value.second) == (3, {1: 2}, {2: 2})


def test_top_walk_conflict_after_a_double_step():
    # vertex 1 reaches 2 by both colors, so the grading breaks there, and
    # again at the arrow 2 -> 4 further down; the first conflict pits vertex
    # 2's code, which the 1-arrow gave it (colors are walked in index order),
    # against the code the 2-arrow implies, both keyed in color order
    g = build_graph((1, 2), 5, [(0, 3, 1), (0, 1, 2), (3, 4, 1), (1, 2, 1), (1, 2, 2), (2, 4, 2)])
    assert g.down[1][1] == g.down[2][1] == 2 and g.maximum_elements() == [0]
    want = _outcome(reference_wt_assign, g, 0)
    assert _outcome(g.weight_codes) == want
    assert want == ("InconsistentWeight", "vertex 2: conflicting path multisets {1: 1, 2: 1} vs {2: 2}")


def test_one_top_walk_per_frozen_graph(monkeypatch, tmp_path):
    # the maximum element and the weight grading come from one kept walk: a
    # first check_all on a fresh graph runs it once, and a passing iso runs
    # it on the first document only, since the isomorphism walk certifies
    # the second
    g = pbw.generate((2, 1))
    walks, walk = [], graph._top_walk
    monkeypatch.setattr(graph, "_top_walk", lambda g: walks.append(g) or walk(g))
    assert check_all(g, b2_gcm()).passed
    assert walks == [g]
    paths = [str(tmp_path / f"{name}.json") for name in "ab"]
    for path, h in zip(paths, (g, relabelled(g, 1))):
        cli.dump_doc(graph_to_doc(h), path)
    walks.clear()
    assert cli.main(["iso", *paths]) == 0
    assert [h.edges() for h in walks] == [g.edges()]
