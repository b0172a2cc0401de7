"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from itertools import product

import pytest

from b2crystal import axioms, builder, oracle, pbw
from b2crystal.cartan import b2_gcm, b3_gcm, classify_all_pairs
from b2crystal.errors import InconsistentWeight, MembershipViolation
from b2crystal.graph import string_tables
from helpers import MEMBERSHIP_RULES, bad_confluence_graph, check_confluence, closure_under_rule, deletion_mutants

A = b2_gcm()


def _report(num, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({elapsed:.1f}s of {budget}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_1_dimension_reproduction():
    t0 = time.time()
    ok = True
    for a, b in product(range(7), repeat=2):
        want = (a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3) // 6
        ok = ok and len(pbw.generate((a, b))) == want
    ok = ok and len(pbw.generate((1, 1))) == 16
    ok = ok and len(pbw.generate((3, 0))) == 20
    ok = ok and len(pbw.generate((0, 2))) == 14
    _report(1, "dimension reproduction [0,6]^2", ok, time.time() - t0, 30)


def test_criterion_2_transition_map_oracle():
    t0 = time.time()
    rep = oracle.verify_lemmas(8)
    ok = rep.passed and rep.domain_size == 6561
    _report(2, "transition-map oracle [0,8]^4", ok, time.time() - t0, 5)


def test_criterion_3_axiom_soundness():
    t0 = time.time()
    ok = True
    for lam in product(range(6), repeat=2):
        g = pbw.generate(lam)
        expected = {1: lam[0], 2: lam[1]}
        ok = ok and axioms.check_all(g, A, expected_phi0=expected).passed
        ok = ok and axioms.check_all(g.reverse(), A, expected_phi0=expected).passed
    _report(3, "axiom soundness fwd+reversed [0,5]^2", ok, time.time() - t0, 60)


def test_criterion_4_proposition_suites():
    t0 = time.time()
    ok = True
    grid = list(product(range(4), repeat=2)) + [(4, 4)]
    for lam in grid:
        for fn in (oracle.verify_kakunin1, oracle.verify_kakunin2, oracle.verify_kakunin3):
            rep = fn(lam)
            if not rep.passed:
                print("  counterexamples:", rep.counterexamples[:3])
                ok = False
    _report(4, "fork proposition suites [0,3]^2+(4,4)", ok, time.time() - t0, 60)


def test_criterion_5_synthesis_equivalence():
    t0 = time.time()
    ok = True
    for lam in product(range(5), repeat=2):
        gp = pbw.generate(lam)
        gs = builder.synthesize(A, lam)
        iso = builder.build_isomorphism(gp, gs, A)
        ep, pp = string_tables(gp)
        es, ps = string_tables(gs)
        wp = gp.wt_assign(0)
        ws = gs.wt_assign(gs.maximum_elements()[0])
        for v in gp.vertices():
            ok = ok and wp[v][0] == ws[iso[v]][0]
            for i in gp.colors:
                ok = ok and ep[i][v] == es[i][iso[v]] and pp[i][v] == ps[i][iso[v]]
    _report(5, "synthesis == generation [0,4]^2", ok, time.time() - t0, 60)


def test_criterion_6_mutation_sensitivity():
    t0 = time.time()
    total = caught = 0
    for lam in product(range(4), repeat=2):
        g = pbw.generate(lam)
        if len(g) < 2:
            continue
        for _, mut in deletion_mutants(g):
            total += 1
            if not axioms.check_all(mut, A).passed:
                caught += 1
    ok = total > 0 and caught == total
    print(f"  ({caught}/{total} deletions detected)")
    _report(6, "mutation sensitivity [0,3]^2", ok, time.time() - t0, 60)


def test_criterion_7_rank3_smoke():
    t0 = time.time()
    B3 = b3_gcm()
    types = set(classify_all_pairs(B3).values())
    g = builder.synthesize(B3, (1, 0, 0))
    ok = (
        len(g) == oracle.weyl_dim_general(B3, (1, 0, 0)) == 7
        and axioms.check_all(g, B3, expected_phi0={1: 1, 2: 0, 3: 0}).passed
        and "SIMPLY_LACED" in types
        and ("B2" in types or "B2_TRANSPOSE" in types)
    )
    _report(7, "rank-3 smoke test (7 vertices)", ok, time.time() - t0, 5)


def test_criterion_8_membership_rule_pinned():
    t0 = time.time()
    survivors = []
    refused = {}  # rule -> the first weight where it fails
    for rule in sorted(MEMBERSHIP_RULES):
        for lam in product(range(7), repeat=2):
            want = oracle.weyl_dim_b2(*lam)
            try:
                if len(closure_under_rule(lam, rule)) != want:
                    refused[rule] = lam
                    break
            except MembershipViolation:
                refused[rule] = lam
                break
        else:
            survivors.append(rule)
    # generate builds the weights that the other rules refuse
    ok = survivors == ["x4"] and all(len(pbw.generate(lam)) == oracle.weyl_dim_b2(*lam) for lam in refused.values())
    print(f"  (surviving membership rules: {survivors})")
    _report(8, "membership rule pinning", ok, time.time() - t0, 60)


def test_criterion_9_confluence_detector():
    t0 = time.time()
    bad = bad_confluence_graph()
    with pytest.raises(InconsistentWeight) as exc:
        bad.wt_assign(0)
    ok = exc.value.vertex == 2
    found = check_confluence(bad, s_max=7)
    ok = ok and len(found) == 1 and found[0].witness == 2
    for lam in product(range(5), repeat=2):
        ok = ok and not check_confluence(pbw.generate(lam), s_max=7)
    _report(9, "confluence detector", ok, time.time() - t0, 60)
