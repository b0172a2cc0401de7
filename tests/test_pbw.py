import hashlib
import re
import time
from itertools import chain, product

import pytest

from b2crystal import kernel, oracle, pbw
from b2crystal.cli import graph_to_json
from b2crystal.errors import BudgetExceeded, DuplicateEdge, HypothesisNotMet, MembershipViolation
from b2crystal.oracle import weyl_dim_b2
from helpers import (
    LARGE_BOX,
    closed_form_r,
    closed_form_rinv,
    closure_under_rule,
    elem_delta,
    elem_stats,
    elem_step,
    epsilon_star,
    from_a,
    in_highest_weight,
)

BOX = list(product(range(9), repeat=4))


def test_closed_forms_spec_values():
    assert closed_form_r((1, 1, 1, 1)) == (1, 1, 1, 1)
    assert closed_form_r((2, 0, 1, 0)) == (0, 1, 0, 2)
    assert closed_form_r((1, 0, 0, 0)) == (0, 0, 0, 1)
    assert closed_form_rinv((1, 1, 1, 1)) == (1, 1, 1, 1)
    assert closed_form_rinv((0, 0, 0, 1)) == (1, 0, 0, 0)
    assert closed_form_rinv((2, 0, 3, 0)) == (2, 2, 0, 3)


def test_closed_forms_match_kernel_on_box():
    for a in chain(BOX, LARGE_BOX):
        assert closed_form_r(a) == kernel.r_transfer(a)
    for x in chain(BOX, LARGE_BOX):
        assert closed_form_rinv(x) == kernel.r_inverse(x)


def test_closed_form_branches_agree_on_overlap():
    for t in BOX:
        if t[2] == t[0]:
            assert oracle.closed_r_a3_ge_a1(t) == oracle.closed_r_a3_le_a1(t)
            assert oracle.closed_rinv_x3_ge_x1(t) == oracle.closed_rinv_x3_le_x1(t)
    with pytest.raises(HypothesisNotMet):
        oracle.closed_r_a3_ge_a1((2, 0, 0, 0))
    with pytest.raises(HypothesisNotMet):
        oracle.closed_r_a3_le_a1((0, 0, 2, 0))
    with pytest.raises(HypothesisNotMet):
        oracle.closed_rinv_x3_ge_x1((2, 0, 0, 0))
    with pytest.raises(HypothesisNotMet):
        oracle.closed_rinv_x3_le_x1((0, 0, 2, 0))


def test_elem_stats():
    st = elem_stats(pbw.ZERO, (1, 1))
    assert (st.eps1, st.eps2, st.phi1, st.phi2) == (0, 0, 1, 1)
    m = from_a((1, 1, 1, 0))
    st = elem_stats(m, (9, 9))
    assert (st.eps1, st.eps2) == (1, 1)
    m = from_a((1, 0, 0, 0))
    assert elem_stats(m, (1, 0)).phi1 == 0


def test_epsilon_star():
    assert epsilon_star(pbw.ZERO) == (0, 0)
    assert epsilon_star(from_a((1, 1, 1, 0))) == (3, 0)
    assert epsilon_star(from_a((1, 1, 1, 1))) == (1, 1)


def test_kashiwara_step_examples():
    f1 = pbw.PbwElement((1, 0, 0, 0), (0, 0, 0, 1))
    assert pbw.kashiwara_step(pbw.ZERO, 1, (1, 0)) == elem_step(pbw.ZERO, "f", 1, (1, 0)) == f1
    assert elem_step(pbw.ZERO, "e", 1, (1, 0)) is None
    assert pbw.raise_walk(pbw.ZERO, ((1, 1),)) is None
    assert pbw.kashiwara_step(pbw.ZERO, 1, (0, 1)) is None
    assert elem_step(pbw.ZERO, "f", 1, (0, 1)) is None
    with pytest.raises(ValueError):
        elem_step(pbw.ZERO, "g", 1)
    with pytest.raises(ValueError):
        pbw.kashiwara_step(pbw.ZERO, 3, (1, 1))
    with pytest.raises(ValueError, match="^color must be 1 or 2, not 3$"):
        pbw.raise_walk(f1, ((3, 1),))
    with pytest.raises(ValueError):
        elem_step(pbw.ZERO, "f", 3)


def test_step_inverse_property():
    # raising then lowering (and vice versa) is the identity where defined;
    # every branch returns a PbwElement, not a bare tuple that compares equal
    for a in product(range(4), repeat=4):
        m = from_a(a)
        for i in (1, 2):
            up = elem_step(m, "e", i)
            if up is not None:
                assert type(up) is pbw.PbwElement and elem_step(up, "f", i) == m
            down = elem_step(m, "f", i)  # unbounded crystal
            assert type(down) is pbw.PbwElement and elem_step(down, "e", i) == m


def test_step_statistics_identities():
    for a in product(range(4), repeat=4):
        m = from_a(a)
        st = elem_stats(m)
        for i, eps_field, phi_field in ((1, 0, 2), (2, 1, 3)):
            down = elem_step(m, "f", i)
            st2 = elem_stats(down)
            assert st2[eps_field] == st[eps_field] + 1
            assert st2[phi_field] == st[phi_field] - 1


def test_steps_and_deltas_match_elem_stats():
    # the guards of kashiwara_step, raise_walk and elem_step, and the
    # oracle's lowering deltas, against the elem_stats fields (eps1, eps2,
    # phi1, phi2)
    for a, lam in product(product(range(4), repeat=4), [None, (0, 0), (1, 2), (3, 1)]):
        m = from_a(a)
        st = elem_stats(m, lam)
        for direction, i in product("ef", (1, 2)):
            w = elem_step(m, direction, i, lam)
            if direction == "e":
                assert (w is None) == (st[i - 1] <= 0), (m, direction, i)
                assert pbw.raise_walk(m, ((i, 1),)) == w
            else:
                assert (w is None) == (lam is not None and st[i + 1] <= 0), (m, lam, i)
                if lam is not None:
                    assert pbw.kashiwara_step(m, i, lam) == w
            for stat, j in product(("eps", "phi"), (1, 2)):
                field = j - 1 if stat == "eps" else j + 1
                if w is None:
                    with pytest.raises(HypothesisNotMet):
                        elem_delta(m, direction, stat, i, j, lam)
                    if direction == "f" and stat == "phi":
                        assert oracle._down_delta(m, i, j, lam) is None
                else:
                    want = elem_stats(w, lam)[field] - st[field]
                    assert elem_delta(m, direction, stat, i, j, lam) == want
                    if direction == "f" and stat == "phi" and lam is not None:
                        assert oracle._down_delta(m, i, j, lam) == want


def test_generate_counts():
    assert len(pbw.generate((0, 0))) == 1
    assert len(pbw.generate((1, 1))) == 16
    assert len(pbw.generate((3, 0))) == 20
    assert len(pbw.generate((0, 2))) == 14
    for l1 in range(7):
        for l2 in range(7):
            assert len(pbw.generate((l1, l2))) == weyl_dim_b2(l1, l2)


def test_generate_structure():
    g = pbw.generate((2, 2))
    assert g.is_good() == []
    assert g.maximum_elements() == [0]
    g.wt_assign(0)
    eps, phi = g.tables()
    assert {i: phi[i][0] for i in g.colors} == {1: 2, 2: 2}
    assert {i: eps[i][0] for i in g.colors} == {1: 0, 2: 0}


def test_string_lengths_match_element_stats():
    # the literal string statistics of the generated graph agree with the
    # coordinate formulas at every vertex
    for lam in [(1, 1), (2, 3), (4, 2)]:
        g = pbw.generate(lam)
        eps, phi = g.tables()
        assert g.ids == list(range(len(g)))  # generated ids are positions
        for v, m in enumerate(g.labels):
            st = elem_stats(m, lam)
            assert (eps[1][v], eps[2][v], phi[1][v], phi[2][v]) == (st.eps1, st.eps2, st.phi1, st.phi2)


def test_generate_deterministic_ids():
    e1 = pbw.generate((2, 1)).edges()
    e2 = pbw.generate((2, 1)).edges()
    assert e1 == e2


@pytest.mark.parametrize("lam, digest", [
    ((0, 0), "1fbc291fb250a465be1bec9c1802db7d5037ee543f7ab2c38ab8da8360761140"),
    ((2, 1), "05fed32f62ce81442b70811744b981e8fd6bda4a899032660b2a42d676ac99d1"),
    ((4, 4), "c6ab2a723da004b9977b6e2508b3eb609031b1a6a5b8b529732118723f73f67c"),
    ((7, 2), "e5a9fb0e5a47db0aeccb09ac7284868b0208e3e2aba68e750cb59bc85359281b"),
    ((10, 10), "4fa2299613c87520cdf2b01f373847a341c89f15c66be22c289457f42ad1e68e"),
], ids=["0,0", "2,1", "4,4", "7,2", "10,10"])
def test_generate_document_pinned(lam, digest):
    # ids in BFS order, labels and arrow order, as the compact document pins them
    text = graph_to_json(pbw.generate(lam))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generate_refuses_a_map_that_is_not_injective(monkeypatch):
    # a broken inverse map sends f2(0)'s x = (1,0,0,0) to f1(0)'s a, as it
    # sends f1(0)'s own x: f2(0) would be a second vertex with that a
    inverse = kernel.r_inverse
    f1 = pbw.kashiwara_step(pbw.ZERO, 1, (1, 1))
    monkeypatch.setattr(kernel, "r_inverse", lambda x: f1.a if x == (1, 0, 0, 0) else inverse(x))
    message = ("the 2-arrow from vertex 0 reaches PbwElement(a=(1, 0, 0, 0), x=(1, 0, 0, 0)), "
               "whose a side names vertex 1: the transition map is not injective")
    with pytest.raises(DuplicateEdge, match=f"^{re.escape(message)}$"):
        pbw.generate((1, 1))


def test_generate_refuses_a_late_collision_in_linear_time(monkeypatch):
    # a broken transfer map sends the a of the last vertex at (10,10) that a
    # 1-arrow finds first onto the x of the vertex before it; the refusal
    # comes as that vertex is found, naming the arrow and the vertex
    g = pbw.generate((10, 10))
    first = {}  # vertex -> (source, color) of the arrow that finds it, in BFS order
    for i in (1, 2):
        for s, d in zip(*g.arrows[i]):
            first[d] = min(first.get(d, (s, i)), (s, i))
    v = max(d for d, (_, i) in first.items() if i == 1)
    source, (a, _), (_, x) = first[v][0], g.labels[v], g.labels[v - 1]
    assert (v, source) == (14638, 14634)
    transfer = kernel.r_transfer
    monkeypatch.setattr(kernel, "r_transfer", lambda b: x if b == a else transfer(b))
    message = (f"the 1-arrow from vertex {source} reaches {pbw.PbwElement(a, x)}, "
               f"whose x side names vertex {v - 1}: the transition map is not injective")
    start = time.perf_counter()
    with pytest.raises(DuplicateEdge, match=f"^{re.escape(message)}$"):
        pbw.generate((10, 10))
    assert time.perf_counter() - start < 2


def test_generate_calls_the_map_once_per_new_vertex(monkeypatch):
    # the maps are wrapped on the kernel module, as perfbench/tracing.py
    # wraps them, so generate must look them up at call time
    calls = []
    for name in ("r_transfer", "r_inverse"):
        f = getattr(kernel, name)
        monkeypatch.setattr(kernel, name, lambda side, f=f: calls.append(side) or f(side))
    for lam in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 3), (7, 2), (5, 5)]:
        calls.clear()
        g = pbw.generate(lam)
        assert len(calls) == len(g) - 1, lam


def test_generate_refuses_a_malformed_weight():
    for lam, message in [((1, 2, 3), "lam has 3 entries for 2 colors"),
                         ((1,), "lam has 1 entries for 2 colors"),
                         ((1.5, 0), "lam (1.5, 0): pairings must be nonnegative integers"),
                         ((1.0, 0), "lam (1.0, 0): pairings must be nonnegative integers"),
                         ((0, True), "lam (0, True): pairings must be nonnegative integers"),
                         ((2, -1), "lam (2, -1): pairings must be nonnegative integers")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pbw.generate(lam)


def test_generate_budget():
    with pytest.raises(BudgetExceeded):
        pbw.generate((3, 3), budget=5)


def test_membership_rule_pinned():
    # the starred-statistic cutoff rule holds on everything the guarded
    # lowering reaches; the third-coordinate rule does not, and generate
    # builds every weight where it fails
    x3_failures = 0
    for l1 in range(6):
        for l2 in range(6):
            g = closure_under_rule((l1, l2), "x4")
            assert len(g) == weyl_dim_b2(l1, l2)
            try:
                closure_under_rule((l1, l2), "x3")
            except MembershipViolation:
                x3_failures += 1
                assert len(pbw.generate((l1, l2))) == weyl_dim_b2(l1, l2)
    assert x3_failures > 0


def test_membership_set_equals_generated_set():
    # enumerate the starred-statistic cutoff set inside a big box and
    # compare against the BFS closure, for a couple of weights
    for lam in [(1, 0), (1, 1), (2, 1)]:
        g = pbw.generate(lam)
        reached = set(g.labels)
        bound = 2 * (lam[0] + lam[1]) + 1
        members = set()
        for a in product(range(bound + 1), repeat=4):
            m = from_a(a)
            if in_highest_weight(m, lam):
                members.add(m)
        assert members == reached, lam


def test_corollary_formulas():
    m = from_a((1, 1, 1, 1))
    assert oracle.corollary_delta_2_1(m) == 2
    assert oracle.corollary_delta_1_2(m) == 1
    with pytest.raises(HypothesisNotMet):
        oracle.corollary_delta_2_1(pbw.ZERO)
    with pytest.raises(HypothesisNotMet):
        oracle.corollary_delta_1_2(pbw.ZERO)
    # a3 far above a1 clamps to zero
    m = from_a((1, 2, 4, 2))
    assert oracle.corollary_delta_2_1(m) == 0


def test_corollaries_match_navigation():
    for a in product(range(6), repeat=4):
        m = from_a(a)
        if m.a[2] >= m.a[0] >= 1 and m.x[0] >= 1:
            assert oracle.corollary_delta_2_1(m) == elem_delta(m, "e", "eps", 2, 1)
        if m.x[2] >= m.x[0] >= 1 and m.a[0] >= 1:
            assert oracle.corollary_delta_1_2(m) == elem_delta(m, "e", "eps", 1, 2)


def test_delta_product_zero_on_generated():
    for l1 in range(6):
        for l2 in range(6):
            lam = (l1, l2)
            g = pbw.generate(lam)
            for m in g.labels:
                if m.a[0] > m.a[2] and m.x[0] > m.x[2]:
                    st = elem_stats(m, lam)
                    if st.eps1 >= 1 and st.eps2 >= 1:
                        d1 = elem_delta(m, "e", "eps", 1, 2, lam)
                        d2 = elem_delta(m, "e", "eps", 2, 1, lam)
                        assert d1 * d2 == 0
