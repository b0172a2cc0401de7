import hashlib
import json
import random
from itertools import product

import pytest

from b2crystal import builder, kernel, oracle, pbw
from b2crystal.axioms import check_all
from b2crystal.cartan import GCM, b2_gcm, b3_gcm
from b2crystal.errors import BudgetExceeded, HypothesisNotMet
from b2crystal.kernel import r_inverse, r_transfer
from helpers import (
    C3_MATRIX_ROWS,
    build_graph,
    demazure_mismatches,
    elem_delta,
    elem_stats,
    elem_walk,
    freudenthal,
    from_a,
    in_highest_weight,
    reference_verify_forks,
    reference_verify_lemmas,
    verification_dict,
    weight_counts,
    weyl_elements,
)


def broken_transfer(a):
    x = r_transfer(a)
    # swap two output slots on part of the domain
    return (x[0], x[2], x[1], x[3]) if a[1] != a[3] else x


def leaving(a):
    # sends the points with a1 = a2 = 1 out of N^4
    x = r_transfer(a)
    return (x[0], x[1], x[2] - 2, x[3]) if a[0] == a[1] == 1 else x


def leaving_first(a):
    # sends the points with a1 > a3 and a2 = 1 out of N^4 through x1
    x = r_transfer(a)
    return (-1,) + x[1:] if a[0] > a[2] and a[1] == 1 else x


def broken_inverse(x):
    a = r_inverse(x)
    return (a[0], a[1], a[2], a[3] + (1 if x[0] > x[2] else 0))


def leaving_inverse(x):
    # sends the points with x1 = x2 = 1 out of N^4 through a4
    a = r_inverse(x)
    return a[:3] + (-1,) if x[0] == x[1] == 1 else a


def lifted_first(a):
    # moves x1 where a1 = 1: a delta(1,2) step from a1 = 2 reads the moved
    # value, its own point an unmoved one
    x = r_transfer(a)
    return (x[0] + 1,) + x[1:] if a[0] == 1 else x


def lifted_inverse_first(x):
    # moves a1 where x1 = 1: a delta(2,1) step from x1 = 2 reads the moved
    # value, its own point an unmoved one
    a = r_inverse(x)
    return (a[0] + 1,) + a[1:] if x[0] == 1 else a


# the maps the run walk is checked under, each patched onto kernel, and the
# further ones the lemma scan is compared under
_NAVIGATIONS = {"kernel": {}, "broken_transfer": {"r_transfer": broken_transfer}, "leaving": {"r_transfer": leaving},
                "leaving_first": {"r_transfer": leaving_first}, "broken_inverse": {"r_inverse": broken_inverse}}
_LEMMA_MAPS = {**_NAVIGATIONS, "both_broken": {"r_transfer": broken_transfer, "r_inverse": broken_inverse},
               "lifted_first": {"r_transfer": lifted_first}, "lifted_inverse_first": {"r_inverse": lifted_inverse_first},
               "leaving_inverse": {"r_inverse": leaving_inverse}}


def test_weyl_dim_b2_anchors():
    assert oracle.weyl_dim_b2(1, 1) == 16
    assert oracle.weyl_dim_b2(3, 0) == 20
    assert oracle.weyl_dim_b2(0, 2) == 14
    assert oracle.weyl_dim_b2(0, 0) == 1
    with pytest.raises(ValueError):
        oracle.weyl_dim_b2(-1, 0)


def test_positive_root_counts():
    assert len(oracle.positive_roots(b2_gcm())) == 4
    assert len(oracle.positive_roots(b3_gcm())) == 9
    assert len(oracle.positive_roots(GCM([[2, -1], [-1, 2]]))) == 3
    assert len(oracle.positive_roots(GCM([[2, 0], [0, 2]]))) == 2


def test_weyl_dim_general():
    A = b2_gcm()
    for a in range(7):
        for b in range(7):
            assert oracle.weyl_dim_general(A, (a, b)) == oracle.weyl_dim_b2(a, b)
    assert oracle.weyl_dim_general(b3_gcm(), (1, 0, 0)) == 7
    assert oracle.weyl_dim_general(b3_gcm(), (0, 0, 0)) == 1
    assert oracle.weyl_dim_general(GCM([[2, -1], [-1, 2]]), (1, 1)) == 8


def test_weight_multiplicities_match_freudenthal():
    # how many vertices carry each weight, against Freudenthal's recursion
    # from the matrix alone: pbw.generate over B2 [0,4]^2, and synthesize
    # over A3, B3 and C3 at [0,1]^3; the transposed pairings give another
    # module, so a crystal built at them does not match
    A = b2_gcm()
    for lam in product(range(5), repeat=2):
        got = weight_counts(pbw.generate(lam))
        assert got == freudenthal(A, lam), lam
        if lam[0] != lam[1]:
            assert got != freudenthal(A, lam[::-1]), lam
    for A in (GCM([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), b3_gcm(), GCM(C3_MATRIX_ROWS)):
        for lam in product(range(2), repeat=3):
            g = builder.synthesize(A, lam)
            assert g.colors == A.colors and weight_counts(g) == freudenthal(A, lam), (A, lam)


def test_demazure_characters_match_the_crystal():
    # each Demazure crystal of a built crystal, F_i1(...F_il({top})) for a
    # reduced word of w, has the character D_i1...D_il(e^lam), for every w
    # of the Weyl group: pbw.generate over B2 [0,5]^2, and synthesize over
    # A3, B3 and C3 at [0,1]^3; the transposed pairings give another
    # module, so a crystal built at them does not match
    A = b2_gcm()
    assert len(weyl_elements(A)) == 8
    for lam in product(range(6), repeat=2):
        assert demazure_mismatches(pbw.generate(lam), A, lam) == [], lam
    for a, b in product(range(4), repeat=2):
        if a != b:
            assert demazure_mismatches(pbw.generate((a, b)), A, (b, a)), (a, b)
    for A, order in ((GCM([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), 24), (b3_gcm(), 48), (GCM(C3_MATRIX_ROWS), 48)):
        assert len(weyl_elements(A)) == order
        for lam in product(range(2), repeat=3):
            assert demazure_mismatches(builder.synthesize(A, lam), A, lam) == [], (A, lam)


def test_demazure_characters_see_what_weight_counts_miss():
    # swapping the targets of two same-colored arrows whose targets have one
    # weight keeps every weight count, so Freudenthal passes each swap; the
    # checker refuses each, and the Demazure characters about half of them
    A, rng = b2_gcm(), random.Random(21)
    refused = []
    for lam in ((2, 1), (1, 2), (2, 2), (3, 1), (3, 3), (4, 2)):
        g = pbw.generate(lam)
        codes, edges, counts = g.weight_codes(), g.edges(), freudenthal(A, lam)
        for _ in range(10):
            while True:
                k, q = rng.sample(range(len(edges)), 2)
                (s1, d1, i), (s2, d2, j) = edges[k], edges[q]
                if i == j and d1 != d2 and codes[d1] == codes[d2]:
                    break
            swapped = list(edges)
            swapped[k], swapped[q] = (s1, d2, i), (s2, d1, j)
            h = build_graph(g.colors, len(g), swapped, cartan=A)
            assert weight_counts(h) == counts and not check_all(h, A).passed, (lam, k, q)
            refused.append(bool(demazure_mismatches(h, A, lam)))
    assert sum(refused) == 30


def test_not_finite_type():
    message = "the matrix is not of finite type: it has infinitely many positive roots"
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        oracle.positive_roots(GCM([[2, -2], [-2, 2]]))


def test_fork12_spot_example():
    # the fully interlocked element in the 16-element crystal merges at the top
    lam = (1, 1)
    m = from_a((1, 1, 1, 1))
    y = elem_walk(m, [("e", 2), ("e", 1), ("e", 1)], lam)
    y1 = elem_walk(m, [("e", 1), ("e", 2), ("e", 2), ("e", 1), ("e", 1)], lam)
    assert (
        elem_delta(y, "f", "phi", 1, 2, lam),
        elem_delta(y1, "f", "phi", 1, 2, lam),
    ) == (0, 1)
    z = elem_walk(
        m,
        [("e", 1), ("e", 2), ("e", 2), ("e", 1), ("e", 1), ("e", 1), ("e", 2)],
        lam,
    )
    assert z == pbw.ZERO


def test_fork11_membership_example():
    # family instance with parameters (2,1,0); needs a first pairing >= 5
    m = from_a((2, 1, 3, 0))
    assert m.x == (2, 2, 0, 5)
    lam = (5, 1)
    assert in_highest_weight(m, lam)
    st = elem_stats(m, lam)
    assert st.eps1 >= 2 and st.eps2 >= 1
    assert (
        elem_delta(m, "e", "eps", 1, 2, lam),
        elem_delta(m, "e", "eps", 2, 1, lam),
    ) == (1, 1)
    rep = oracle.verify_kakunin2(lam)
    assert rep.passed, rep.counterexamples[:3]


def test_fork02_meet_formula():
    # family instance with parameters (2,1,0); the pentagon meet in closed form
    m = from_a((2, 1, 0, 2))
    assert m.x == (1, 0, 2, 0)
    z = elem_walk(m, [("e", 1), ("e", 1), ("e", 2), ("e", 2), ("e", 1)])
    assert z == pbw.PbwElement((1, 0, 0, 1), (0, 1, 0, 0))


def test_kakunin_suites_small_grid():
    for lam in [(0, 0), (1, 1), (2, 2)]:
        for fn in (oracle.verify_kakunin1, oracle.verify_kakunin2, oracle.verify_kakunin3):
            rep = fn(lam)
            assert rep.passed, (lam, fn.__name__, rep.counterexamples[:3])


def test_fork_suites_report_a_broken_map(monkeypatch):
    # crystals generated with the correct map, then navigated with a broken
    # one: an undefined lowering step is a counterexample, not an exception
    crystals = {(a, b): pbw.generate((a, b)) for a in range(4) for b in range(4)}
    monkeypatch.setattr(kernel, "r_transfer", broken_transfer)
    reports = [oracle.verify_forks(lam, g) for lam, g in crystals.items()]
    for suite in range(3):
        assert not all(reps[suite].passed for reps in reports), reports[0][suite].claim


def test_verify_lemmas_passes():
    rep = oracle.verify_lemmas(8)
    assert rep.passed and rep.domain_size == 9**4


def test_verify_lemmas_catches_injected_bugs(monkeypatch):
    for name, broken in (("r_transfer", broken_transfer), ("r_inverse", broken_inverse)):
        with monkeypatch.context() as m:
            m.setattr(kernel, name, broken)
            assert not oracle.verify_lemmas(3).passed


def test_verify_lemmas_counterexamples_pinned(monkeypatch):
    # the counterexample lists of three broken maps, in order, pinned by
    # sha256; the second map sends the points with a1 = a2 = 1 out of N^4,
    # and their delta corollaries are still checked
    notes = []
    for n, name, broken in ((1, "r_transfer", broken_transfer), (2, "r_transfer", leaving),
                            (1, "r_inverse", broken_inverse)):
        with monkeypatch.context() as m:
            m.setattr(kernel, name, broken)
            notes.append(oracle.verify_lemmas(n).counterexamples)
    assert [len(n) for n in notes] == [20, 19, 17]  # under the cap of 50
    assert any(n.startswith("PbwElement(a=(1, 1, 1, 0), x=(1, 1, -2, 3))") for n in notes[1])
    assert hashlib.sha256(json.dumps(notes).encode()).hexdigest() == (
        "d25fb920d6677d42feb94af27bcc12160d8411932711fd4c23ba3dc17329e9b4")


def test_verify_lemmas_reports_preimages_off_the_box(monkeypatch):
    monkeypatch.setattr(kernel, "r_inverse", leaving_inverse)
    notes = oracle.verify_lemmas(1).counterexamples
    assert notes[3:] == ["(1, 1, 0, 0): preimage (1, 0, 0, -1) leaves N^4",
                         "(1, 1, 0, 1): preimage (1, 0, 1, -1) leaves N^4",
                         "(1, 1, 1, 0): preimage (1, 1, 0, -1) leaves N^4",
                         "(1, 1, 1, 1): preimage (1, 1, 1, -1) leaves N^4"]


@pytest.fixture
def uncapped_notes(monkeypatch):
    """Reports keep every note past the cap of 50, so that the corollary
    notes, filed after the roundtrip notes, are compared too."""
    monkeypatch.setattr(oracle.VerificationReport, "add", lambda rep, note: rep.counterexamples.append(note))


@pytest.mark.parametrize("maps", _LEMMA_MAPS.values(), ids=_LEMMA_MAPS)
def test_verify_lemmas_matches_reference(monkeypatch, uncapped_notes, maps):
    # the scanned tables are the kernel's own, and the corollary steps read
    # them, broken values included, as the reference's navigation does
    for name, f in maps.items():
        monkeypatch.setattr(kernel, name, f)
    for n in range(6):
        got = verification_dict(oracle.verify_lemmas(n))
        assert got == verification_dict(reference_verify_lemmas(n))
    assert got["pass"] == (not maps)


def test_verify_lemmas_kernel_calls(monkeypatch):
    # each map once per box point, the roundtrips and the corollary steps
    # only where they leave the box
    calls = dict.fromkeys(("r_transfer", "r_inverse"), 0)

    def counted(name, f):
        def wrapper(v):
            calls[name] += 1
            return f(v)
        return wrapper

    monkeypatch.setattr(kernel, "r_transfer", counted("r_transfer", r_transfer))
    monkeypatch.setattr(kernel, "r_inverse", counted("r_inverse", r_inverse))
    for n in range(7):
        box = set(product(range(n + 1), repeat=4))
        steps = []  # the raising 2-steps of the delta(2,1) and product-zero checks
        for a in box:
            x1, x2, x3, x4 = r_transfer(a)
            if (a[2] >= a[0] >= 1 and x1 >= 1
                    or not (x3 >= x1 >= 1 and a[0] >= 1) and a[0] > a[2] and x1 > x3):
                steps.append((x1 - 1, x2, x3, x4))
        want = {"r_transfer": len(box) + sum(r_inverse(x) not in box for x in box),
                "r_inverse": len(box) + sum(r_transfer(a) not in box for a in box)
                + sum(s not in box for s in steps)}
        calls.update(dict.fromkeys(calls, 0))
        assert oracle.verify_lemmas(n).passed
        assert calls == want, n
    assert calls == {"r_transfer": 3577, "r_inverse": 4438}


def test_verify_lemmas_undefined_step_raises(monkeypatch):
    # a broken image with x1 = 0 > x3 at a point with a1 > a3 asks the
    # product-zero check for an undefined raising 2-step
    def undefined(a):
        return (0, 0, -1, 0) if a == (1, 0, 0, 0) else r_transfer(a)

    monkeypatch.setattr(kernel, "r_transfer", undefined)
    for scan in (oracle.verify_lemmas, reference_verify_lemmas):
        with pytest.raises(HypothesisNotMet, match=r"^e_2 undefined at PbwElement\(a=\(1, 0, 0, 0\), x=\(0, 0, -1, 0\)\)$"):
            scan(1)


def test_fork_routing_drops_no_family_member():
    # verify_forks tests the (1,2) families only where u = a3 - a1 or
    # v = a1 + a2 - a3 - a4 is 0, (1,1) only where u = 1, (0,2) only where v = 1
    routes = {(1, 2): lambda u, v: u == 0 or v == 0, (1, 1): lambda u, v: u == 1, (0, 2): lambda u, v: v == 1}
    members = dict.fromkeys(oracle.FORKS, 0)
    for a in product(range(7), repeat=4):
        m = pbw.PbwElement(a, r_transfer(a))
        u, v = a[2] - a[0], a[0] + a[1] - a[2] - a[3]
        for d, f in oracle.FORKS.items():
            if f.family(m):
                assert routes[d](u, v), (d, m)
                members[d] += 1
    assert members == {(1, 2): 232, (1, 1): 112, (0, 2): 55}


@pytest.fixture(scope="module")
def fork_walks():
    """Every raising word the fork suites walk, recorded from verify_forks,
    and the elements to walk it from: B(lam) for lam in [0,4]^2 and (7,2),
    and (a, r_transfer(a)) for a in [0,3]^4."""
    weights = [(a, b) for a in range(5) for b in range(5)] + [(7, 2)]
    crystals = [pbw.generate(lam) for lam in weights]
    words, up = set(), oracle._up
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_up", lambda e, word: words.add(word) or up(e, word))
        for lam, g in zip(weights, crystals):
            oracle.verify_forks(lam, g)
    elements = {e for g in crystals for e in g.labels} | {pbw.PbwElement(a, r_transfer(a))
                                                          for a in product(range(4), repeat=4)}
    return words, elements


@pytest.mark.parametrize("maps", _NAVIGATIONS.values(), ids=_NAVIGATIONS)
def test_raise_walk_is_the_single_steps(monkeypatch, fork_walks, maps):
    # the run walk gives what elem_walk's single steps give, None included,
    # for every word the fork suites walk, under the kernel and a broken map
    words, elements = fork_walks
    assert {"211", "12211", "11221", "12112", "1212112", "11"} <= words
    for name, f in maps.items():
        monkeypatch.setattr(kernel, name, f)
    for word in words:
        steps = [("e", int(i)) for i in word]
        for m in elements:
            assert pbw.raise_walk(m, oracle._runs(word)) == elem_walk(m, steps), (word, m)


def bumped(f, slot, when):
    """f with one output slot raised by 1 where when(v) holds and sum(v) > 3."""
    def g(v):
        out = f(v)
        return out[:slot] + (out[slot] + 1,) + out[slot + 1:] if when(v) and sum(v) > 3 else out
    return g


# maps that spoil the forks only past the classification, so that each fork
# suite reaches its closing checks
_FORK_MAPS = {"kernel": {}, "broken_transfer": {"r_transfer": broken_transfer},
              "x4_bumped": {"r_transfer": bumped(r_transfer, 3, lambda a: a[3] % 3 == 0)},
              "x2_bumped": {"r_transfer": bumped(r_transfer, 1, lambda a: a[0] % 7 == 5)},
              "a1_bumped": {"r_inverse": bumped(r_inverse, 0, lambda x: x[3] % 7 == 4)},
              # one lowering 1-step from an interlocked meet lands on a1 = a3 + 1, a2 = a4
              "x4_below_meets": {"r_transfer": bumped(r_transfer, 3, lambda a: a[0] == a[2] + 1 and a[1] == a[3])}}


def test_verify_forks_matches_reference(monkeypatch):
    # as generated, then navigated with each map after generation
    weights = [(a, b) for a in range(5) for b in range(5)] + [(7, 2), (5, 3), (6, 6)]
    crystals = {lam: pbw.generate(lam) for lam in weights}
    notes = []
    for name, maps in _FORK_MAPS.items():
        with monkeypatch.context() as m:
            for attr, f in maps.items():
                m.setattr(kernel, attr, f)
            for lam, g in crystals.items():
                got = [verification_dict(r) for r in oracle.verify_forks(lam, g)]
                assert got == [verification_dict(r) for r in reference_verify_forks(lam, g)], (lam, name)
                notes += [note for r in got for note in r["counterexamples"]]
    # every closing check of both fork suites is reached
    for phrase in ("matches cases", "four words disagree", "!= closed form", "lowering profile at meet",
                   "ledge equality", "delta at y'", "delta two steps", "pentagon words disagree",
                   "alternating words"):
        assert any(phrase in note for note in notes), phrase


def test_negative_bounds_raise():
    # an empty scan would report a vacuous pass
    for call in (lambda: oracle.verify_lemmas(-3), lambda: oracle.run_verification(max_hw=3, max_box=-3),
                 lambda: oracle.run_verification(max_hw=-1, max_box=8)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            call()
    assert oracle.verify_lemmas(0).domain_size == 1


@pytest.mark.parametrize("lam, digest", [
    ((7, 2), "5c297efeabdb0845bba7b79782789f5f583d4a02ea416675d71a241901911687"),
    ((5, 3), "149ce5c4e0229da103282267e56528919f993ed8af91e2b1da3b2ed5a3e223ad"),
])
def test_battery_reports_pinned(lam, digest):
    # the two ops of the verify_battery benchmark workload
    reports = oracle.run_verification(max_hw=2, max_box=6, extra=(lam,))
    text = json.dumps([verification_dict(r) for r in reports])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_reversal_report():
    assert oracle.verify_reversal((2, 1), pbw.generate((2, 1))).passed


def test_report_serialization_and_rows():
    rep = oracle.verify_lemmas(1)
    data = json.loads(json.dumps(verification_dict(rep)))
    assert data["pass"] is True and data["domain_size"] == 16
    assert "pass" in rep.row()


def test_report_keeps_fifty_notes():
    # add caps the notes so a broken map does not flood verify-paper's output
    rep = oracle.VerificationReport("a claim", 7)
    assert rep.passed and rep.row() == f"{'a claim':<44} {7:>8}  pass"
    for k in range(60):
        rep.add(f"note {k}")
    assert rep.counterexamples == [f"note {k}" for k in range(50)]
    assert not rep.passed and rep.row() == f"{'a claim':<44} {7:>8}  FAIL(50)"


def test_run_verification_battery():
    reports = oracle.run_verification(max_hw=1, max_box=3, extra=())
    assert reports and all(r.passed for r in reports)


def test_battery_reports_a_count_off_the_formula(monkeypatch):
    # a rank-2 formula one over at (1, 1) is off from both the generated
    # crystal and the general product
    formula = oracle.weyl_dim_b2
    monkeypatch.setattr(oracle, "weyl_dim_b2", lambda a, b: formula(a, b) + ((a, b) == (1, 1)))
    dims = oracle.run_verification(max_hw=1, max_box=0, extra=())[-1]
    assert dims.counterexamples == ["(1, 1): generated 16, formula 17",
                                    "(1, 1): general product 16, rank-2 formula 17"]


def test_battery_computes_one_root_closure(monkeypatch):
    calls, closure = [], oracle.positive_roots

    def counted(A):
        calls.append(A)
        return closure(A)

    monkeypatch.setattr(oracle, "positive_roots", counted)
    reports = oracle.run_verification(max_hw=2, max_box=1, extra=())
    assert reports[-1].passed and reports[-1].domain_size == 9 and len(calls) == 1
    oracle.run_verification(max_hw=2, max_box=1, extra=())
    assert len(calls) == 2  # kept for one call only


def test_battery_generates_each_weight_once(monkeypatch):
    calls, generate = [], pbw.generate

    def counted(lam, *args, **kwargs):
        calls.append(lam)
        return generate(lam, *args, **kwargs)

    monkeypatch.setattr(pbw, "generate", counted)
    reports = oracle.run_verification(max_hw=2, max_box=3, extra=((3, 1),))
    grid = [(a, b) for a in range(3) for b in range(3)]
    assert sorted(calls) == sorted(grid + [(3, 1)])
    # each suite called alone, on a graph of its own, reports the same
    alone = [oracle.verify_lemmas(3)]
    for lam in grid + [(3, 1)]:
        alone += [oracle.verify_kakunin1(lam), oracle.verify_kakunin2(lam), oracle.verify_kakunin3(lam)]
    alone += [oracle.verify_reversal(lam, generate(lam)) for lam in grid]
    assert [verification_dict(r) for r in reports[:-1]] == [verification_dict(r) for r in alone]
    assert verification_dict(reports[-1]) == {"claim": "vertex counts vs dimension formula [0,2]^2",
                                              "domain_size": 9, "pass": True, "counterexamples": []}
