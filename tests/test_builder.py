import pytest

from b2crystal import axioms, builder, pbw
from b2crystal.cartan import C3_MATRIX_ROWS, GCM, b2_gcm, b3_gcm
from b2crystal.errors import BudgetExceeded, NotIsomorphic, PrereqFailed, UnsupportedPair
from b2crystal.graph import ColoredGraph, string_tables
from b2crystal.oracle import weyl_dim_general
from helpers import deletion_mutants

A = b2_gcm()


def test_synthesize_anchors():
    assert len(builder.synthesize(A, (0, 0))) == 1
    assert len(builder.synthesize(A, (1, 1))) == 16
    assert len(builder.synthesize(A, (3, 0))) == 20
    assert len(builder.synthesize(A, (0, 2))) == 14


def test_union_find():
    uf = builder.UnionFind()
    for k in "abcde":
        uf.add(k)
    uf.union("b", "a")
    uf.union("c", "b")
    assert uf.find("c") == "a"
    assert ["a", "b", "c"] in uf.classes()


def test_synthesis_equals_generation():
    for l1 in range(4):
        for l2 in range(4):
            gp = pbw.generate((l1, l2))
            gs = builder.synthesize(A, (l1, l2))
            iso = builder.build_isomorphism(gp, gs)
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
    iso = builder.build_isomorphism(g, g)
    assert all(iso[v] == v for v in g.vertices())


def test_prereq_failures():
    with pytest.raises(PrereqFailed):
        builder.build_isomorphism(pbw.generate((1, 1)), pbw.generate((3, 0)))
    bad = pbw.generate((1, 1)).copy_mutable(skip_edge=pbw.generate((1, 1)).edges()[4]).freeze()
    with pytest.raises(PrereqFailed):
        builder.build_isomorphism(bad, pbw.generate((1, 1)))


def test_not_isomorphic_same_profile():
    # two certified graphs with equal top statistics for different matrices
    # cannot arise; instead check that a mangled target is refused loudly
    g = pbw.generate((1, 1))
    with pytest.raises((PrereqFailed, NotIsomorphic)):
        builder.build_isomorphism(g, pbw.generate((1, 2)))


def test_synthesis_deterministic():
    g1 = builder.synthesize(A, (2, 2))
    g2 = builder.synthesize(A, (2, 2))
    assert g1.vertices() == g2.vertices() and g1.edges() == g2.edges()


def test_layer_grading_homogeneous():
    g = builder.synthesize(A, (2, 2))
    grading = g.wt_assign(g.maximum_elements()[0])
    for u, v, _ in g.edges():
        assert grading[v][1] == grading[u][1] + 1


def test_synthesized_stats_match_strings():
    g = builder.synthesize(A, (2, 1))
    eps, phi = string_tables(g)
    for v, (wt, e, p) in g.synthesis_stats.items():
        for i in g.colors:
            assert eps[i][v] == e[i] and phi[i][v] == p[i]


def test_reversal_involution():
    for lam in [(0, 0), (1, 1), (3, 2)]:
        assert builder.verify_reversal_involution(lam)


def test_reversal_certifies_each_graph_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return axioms.check_all(*args, **kwargs)

    monkeypatch.setattr(builder, "check_all", counted)
    assert builder.verify_reversal_involution((2, 1))
    assert len(calls) == 2
    # a reversal that fails certification, or passes it with the wrong top
    # statistics, is a False, not an exception
    reverse = ColoredGraph.reverse
    for fake in (lambda g: next(deletion_mutants(reverse(g)))[1],
                 lambda g: pbw.generate((1, 2))):
        monkeypatch.setattr(ColoredGraph, "reverse", fake)
        assert builder.verify_reversal_involution((2, 1)) is False


def test_rank3_smoke():
    B3 = b3_gcm()
    g = builder.synthesize(B3, (1, 0, 0))
    assert len(g) == weyl_dim_general(B3, (1, 0, 0)) == 7
    assert axioms.check_all(g, B3, expected_phi0={1: 1, 2: 0, 3: 0}).passed
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
    G2ish = GCM([[2, -3], [-1, 2]])
    with pytest.raises(UnsupportedPair):
        builder.synthesize(G2ish, (1, 0))


def test_budgets():
    with pytest.raises(BudgetExceeded):
        builder.synthesize(A, (3, 3), budget_vertices=10)
    with pytest.raises(BudgetExceeded):
        builder.synthesize(A, (3, 3), budget_layers=2)


def test_bad_phi0_rejected():
    with pytest.raises(ValueError):
        builder.synthesize(A, (-1, 0))
    with pytest.raises(ValueError):
        builder.synthesize(A, {1: 1})
