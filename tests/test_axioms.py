import json

import pytest

from b2crystal import axioms, pbw
from b2crystal.builder import synthesize
from b2crystal.cartan import GCM, b2_gcm, b3_gcm
from helpers import (
    C3_MATRIX_ROWS,
    _b2_oriented_pairs,
    a2_crystal_1_1,
    a2_crystal_2_0,
    bad_confluence_graph,
    build_graph,
    check_confluence,
    copy_mutable,
    deletion_mutants,
    e_step,
    f_step,
    recorded_edges,
    redirect_mutants,
    reference_check_all,
    reference_check_s2_s3,
    reference_check_s4_s5,
    reference_check_s6_s9,
    reference_raising_groupings,
    relabelled,
    walk,
)

A = b2_gcm()
A2 = GCM([[2, -1], [-1, 2]])


# change of the j-statistic across one i-step from position k; None when
# the step is undefined
def de_eps(g, eps, i, j, k):
    w = g.up[i][k]
    return None if w is None else eps[j][w] - eps[j][k]


def df_phi(g, phi, i, j, k):
    w = g.down[i][k]
    return None if w is None else phi[j][w] - phi[j][k]


def test_violation_is_an_immutable_value():
    # a violation is a value: immutable, compared and hashed by its fields,
    # and printed as the frozen dataclass it replaced printed it
    v = axioms.Violation("S2", (1, 2), 3, "x")
    with pytest.raises(AttributeError):
        v.witness = 4
    twin = axioms.Violation("S2", (1, 2), 3, "x")
    assert v == twin and hash(v) == hash(twin) and v != axioms.Violation("S2", (1, 2), 3, "y")
    assert repr(v) == "Violation(axiom='S2', pair=(1, 2), witness=3, detail='x')"


def test_generated_crystals_pass_everything():
    for l1 in range(5):
        for l2 in range(5):
            g = pbw.generate((l1, l2))
            rep = axioms.check_all(g, A)
            assert rep.passed, ((l1, l2), rep.violations[:3])
            assert rep.phi0 == {1: l1, 2: l2}


def test_reversed_crystals_pass():
    for lam in [(1, 1), (3, 0), (0, 2), (2, 3)]:
        g = pbw.generate(lam).reverse()
        rep = axioms.check_all(g, A)
        assert rep.passed, (lam, rep.violations[:3])
        assert rep.phi0 == {1: lam[0], 2: lam[1]}


def test_simply_laced_figures():
    for g, phi0 in ((a2_crystal_2_0(), {1: 2, 2: 0}), (a2_crystal_1_1(), {1: 1, 2: 1})):
        rep = axioms.check_all(g, A2)
        assert rep.passed and rep.phi0 == phi0, rep.violations
    # the same graphs against the doubly-laced matrix break the
    # string-difference equality
    rep = axioms.check_all(a2_crystal_2_0(), A)
    assert any(v.axiom == "S2" for v in rep.violations)


def test_broken_square_reports_a_minus():
    # vertex 3 has a 1-parent and a 2-parent with a flat raising delta,
    # but the two length-2 raising words end at different vertices
    g = build_graph((1, 2), 5, [(0, 1, 2), (1, 3, 1), (2, 3, 2), (4, 2, 1)])
    eps, _ = g.tables()
    assert eps[2][g.up[1][3]] - eps[2][3] == 0
    out = axioms.check_s4_s5(g, A2)
    assert any(v.axiom == "A_MINUS" for v in out)


def test_phi0_mismatch():
    # the report carries the top statistics read off the graph, for a
    # caller that expects others to compare
    rep = axioms.check_all(pbw.generate((1, 1)), A)
    assert rep.passed and rep.phi0 == {1: 1, 2: 1}
    assert axioms.check_all(pbw.generate((2, 1)), A).phi0 == {1: 2, 2: 1}


def test_no_maximum_element():
    a = pbw.generate((1, 0))
    union = build_graph((1, 2), a.ids + [100 + v for v in a.ids],
                        a.edges() + [(100 + s, 100 + d, c) for s, d, c in a.edges()], cartan=A)
    rep = axioms.check_all(union, A)
    assert [v.axiom for v in rep.violations] == ["MAX"]


def test_goodness_failure_is_s1():
    g = build_graph((1, 2), 1, [(0, 0, 1)])
    rep = axioms.check_all(g, A)
    assert rep.violations and all(v.axiom == "S1" for v in rep.violations)


def test_wt_violation_tagged():
    rep = axioms.check_all(bad_confluence_graph(), A)
    assert any(v.axiom == "WT" and v.witness == 2 for v in rep.violations)


def test_mutation_sensitivity_deletions_and_redirects():
    for l1 in range(3):
        for l2 in range(3):
            g = pbw.generate((l1, l2))
            if len(g) < 2:
                continue
            for edge, mut in deletion_mutants(g):
                rep = axioms.check_all(mut, A)
                assert not rep.passed, ((l1, l2), "deletion", edge)
            for edge, mut in redirect_mutants(g):
                rep = axioms.check_all(mut, A)
                assert not rep.passed, ((l1, l2), "redirect", edge)


def test_split_apex_breaks_seven_step_merge():
    # divert one apex arrow of the 16-element crystal to a twin apex: the
    # raising words of the depth-7 confluence then end at different vertices
    g = pbw.generate((1, 1))
    c2 = f_step(g, 2, 0)
    twin = len(g)
    mut = copy_mutable(g, skip_edge=(0, c2, 2), extra_edges=[(twin, c2, 2)])
    out = axioms.check_s6_s9(mut, A)
    assert any(v.axiom == "Q1_MINUS" for v in out)


def test_split_pentagon_meet_breaks_c1_plus():
    # find a two-child vertex of the 14-element crystal satisfying the
    # flat-ledge hypothesis, then split the pentagon meet
    g = pbw.generate((0, 2))
    _, phi = g.tables()
    hit = None
    for x in range(len(g)):
        for i, j in _b2_oriented_pairs(A):
            if g.down[i][x] is None or g.down[j][x] is None:
                continue
            if (df_phi(g, phi, i, j, x), df_phi(g, phi, j, i, x)) != (0, 2):
                continue
            v = walk(g.down, x, [i, i])
            if v is not None and g.down[j][v] is not None and df_phi(g, phi, j, i, v) == 0:
                hit = (x, i, j)
    assert hit is not None
    x, i, j = hit
    q = walk(g.down, x, [j, i, i, i])
    z = g.down[j][q]
    twin = len(g)
    mut = copy_mutable(g, skip_edge=(g.ids[q], g.ids[z], j), extra_edges=[(g.ids[q], twin, j)])
    out = axioms.check_s6_s9(mut, A)
    assert any(v.axiom == "C1_PLUS" for v in out), sorted({v.axiom for v in out})


def test_branch_deltas_never_one_zero():
    # at every fork with raising deltas (1,2) the two branch-point lowering
    # deltas take one of three values and never (1,0)
    seen = dict.fromkeys([(1, 1), (0, 1), (0, 0)], 0)
    for l1 in range(4):
        for l2 in range(4):
            lam = (l1, l2)
            g = pbw.generate(lam)
            eps, phi = g.tables()
            for x in range(len(g)):
                if g.up[1][x] is None or g.up[2][x] is None:
                    continue
                if (de_eps(g, eps, 1, 2, x), de_eps(g, eps, 2, 1, x)) != (1, 2):
                    continue
                y = walk(g.up, x, [2, 1, 1])
                y1 = walk(g.up, x, [1, 2, 2, 1, 1])
                t = (df_phi(g, phi, 1, 2, y), df_phi(g, phi, 1, 2, y1))
                assert t in seen, (lam, g.ids[x], t)
                seen[t] += 1
    assert all(seen.values()), seen  # all three cases occur


def test_axiom_hypotheses_all_fire():
    # guard against vacuous checks: on the [0,4]^2 grid every entry of the
    # rule table fires through the scan that the checker and the
    # synthesizer run, on the raising side the square, the octagon and the
    # diamond of S6 (past its guard, so only the Q1 forks count)
    sides = (("PLUS", axioms.lowering, axioms.RULES),
             ("MINUS", axioms.raising, axioms.TWO_SIDED + (axioms.RAISED_DIAMOND,)))
    counts = {(sign, r.tag, r.hypothesis): 0 for sign, _, rules in sides for r in rules}
    for l1 in range(5):
        for l2 in range(5):
            g = pbw.generate((l1, l2))
            eps, phi = g.tables()
            for sign, side, rules in sides:
                s = side(g, eps, phi)
                hits = axioms.scan(s, axioms.grouping(s, range(len(g)), 1, 2), 1, 2,
                                   axioms.rule_pairs(A, 1, 2, rules))
                for rule, _, fired, _ in hits:
                    counts[sign, rule.tag, rule.hypothesis] += len(fired)
    assert len(counts) == 8 and all(n > 0 for n in counts.values()), counts


BATTERY_TAGS = {"S2", "S3", "A_MINUS", "A_PLUS", "B_MINUS", "B_PLUS", "C1_PLUS",
                "D_MINUS", "D_PLUS", "P1_MINUS", "Q1_MINUS", "R_MINUS"}


def _differential_cases():
    seed = 0
    for lam in ((2, 2), (3, 2)):
        g = pbw.generate(lam)
        for mutants in (deletion_mutants, redirect_mutants):
            for _, mut in mutants(g):
                seed += 1
                yield A, relabelled(mut, seed)
    # B3's B2-oriented pair is (3,2) and C3's is (2,3), so the shared
    # groupings are read in both orientations
    for M in (b3_gcm(), GCM(C3_MATRIX_ROWS)):
        for _, mut in deletion_mutants(synthesize(M, (0, 1, 0))):
            yield M, mut


def test_batteries_match_reference():
    # the dense scans report exactly what the per-vertex loops did, with
    # ids that are not positions, and every battery tag occurs
    tags = set()
    batteries = (
        (axioms.check_s2_s3, reference_check_s2_s3),
        (axioms.check_s4_s5, reference_check_s4_s5),
        (axioms.check_s6_s9, reference_check_s6_s9),
    )
    for M, g in _differential_cases():
        assert axioms.check_all(g, M).to_dict() == reference_check_all(g, M).to_dict()
        for battery, reference in batteries:
            out = battery(g, M)
            assert out == reference(g, M), g.vertices()[:3]
            tags.update(v.axiom for v in out)
    assert BATTERY_TAGS <= tags, BATTERY_TAGS - tags


def test_first_branch_point_missing():
    # check_all runs the batteries on good graphs only, where the branch
    # point always exists; a battery run on its own can meet a graph whose
    # degrees are not clean. Vertex -1's 1-arrow into e_2(34), recorded
    # first, is the step back there, so the walk e_2 e_1 e_1 up from 34
    # stops at -1, which has no 1-parent
    g = pbw.generate((2, 2))
    top = e_step(g, 2, 34)
    h = build_graph(g.colors, [-1] + g.ids, [(-1, top, 1)] + recorded_edges(g))
    want = [axioms.Violation("D_MINUS", (1, 2), 34, "first branch point above is missing")]
    assert axioms.check_s6_s9(h, A) == reference_check_s6_s9(h, A) == want
    assert [v.axiom for v in axioms.check_all(h, A).violations] == ["S1"]


def test_s2_s3_keeps_the_raising_grouping():
    # the S2/S3 pass files each position with both raising steps under the
    # two eps deltas it computes: on a fresh graph it leaves the raising
    # grouping of every color pair, key for key and list for list in the
    # order grouping() gives, and check_s4_s5 reads that one
    pairs = 0
    for M, g in _differential_cases():
        want = reference_raising_groupings(g)
        axioms.check_s2_s3(g, M)
        for (i, j), items in want.items():
            kept = g.keep(("grouping", "MINUS", i, j), None)
            assert list(kept.items()) == items, (g.vertices()[:3], i, j)
            pairs += 1
        assert axioms.check_s4_s5(g, M) == reference_check_s4_s5(g, M)
    assert pairs > 100


def test_check_all_reads_alike_whichever_battery_builds_the_grouping():
    # a fresh graph whose S4-S5 battery ran before S2/S3 keeps the raising
    # grouping that grouping() builds; check_all reports as on a fresh copy,
    # where the S2/S3 pass builds it
    good = 0
    for M, g in _differential_cases():
        if g.is_good():
            continue
        fresh = copy_mutable(g)
        axioms.check_s4_s5(g, M)
        assert axioms.check_all(g, M).to_dict() == axioms.check_all(fresh, M).to_dict()
        good += 1
    assert good > 50


def test_confluence_checker():
    assert not check_confluence(pbw.generate((2, 2)))
    # single chain: vacuous
    chain = pbw.generate((1, 0))
    assert not check_confluence(chain)
    out = check_confluence(bad_confluence_graph())
    assert len(out) == 1 and out[0].axiom == "CONFLUENCE" and out[0].witness == 2


def test_report_serialization():
    rep = axioms.check_all(pbw.generate((1, 1)), A)
    assert rep.phi0 == {1: 1, 2: 1}
    blob = json.dumps(rep.to_dict())
    data = json.loads(blob)
    assert data["pass"] is True and data["violations"] == []
    assert data["phi0"] == {"1": 1, "2": 1} or data["phi0"] == {1: 1, 2: 1}


def test_deterministic_reports():
    g = pbw.generate((1, 1))
    mut = next(iter(deletion_mutants(g)))[1]
    r1 = axioms.check_all(mut, A)
    r2 = axioms.check_all(mut, A)
    assert [v.to_dict() for v in r1.violations] == [v.to_dict() for v in r2.violations]
