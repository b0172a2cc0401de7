"""Brute-force verification suites and independent counting oracles.

Everything here re-checks, on an explicit finite domain, facts that the
rest of the package relies on: the transition maps against their closed
forms (kept here, a second implementation of kernel), the fork
classification with its merge patterns, the arrow-reversal symmetry, and
the vertex counts against the Weyl dimension product formula.  Reports
carry the scanned domain size so "verified" always names its domain.

The fork classes form one table, FORKS, and verify_forks serves all three
fork suites with one pass over each crystal.  Their closing checks walk
each raising word as runs of one color (pbw.raise_walk), one kernel call
per run, and lower by pbw.kashiwara_step, one guarded step at a time.
"""

from collections import namedtuple
from functools import cache, partial
from itertools import groupby, product

from . import kernel, pbw
from .builder import build_isomorphism
from .cartan import b2_gcm, finite_type
from .errors import BudgetExceeded, CertificationFailed, HypothesisNotMet, NotIsomorphic


class VerificationReport:
    def __init__(self, claim, domain_size):
        self.claim = claim
        self.domain_size = domain_size
        self.counterexamples = []

    @property
    def passed(self):
        return not self.counterexamples

    def add(self, note):
        if len(self.counterexamples) < 50:  # keep reports readable
            self.counterexamples.append(note)

    def row(self):
        status = "pass" if self.passed else f"FAIL({len(self.counterexamples)})"
        return f"{self.claim:<44} {self.domain_size:>8}  {status}"


# -- dimension oracles --------------------------------------------------------

def weyl_dim_b2(a, b):
    """Vertex count of the rank-2 doubly-laced crystal with top stats (a, b)."""
    if a < 0 or b < 0:
        raise ValueError("pairings must be nonnegative")
    n = (a + 1) * (b + 1) * (a + b + 2) * (a + 2 * b + 3)
    assert n % 6 == 0
    return n // 6


def positive_roots(A):
    """Positive roots of a finite-type matrix with their coroot vectors.

    Each root is a coefficient tuple over the simple roots; its coroot is
    tracked as a coefficient tuple over the simple coroots, transforming
    contragradiently under the simple reflections.  Any other matrix has
    infinitely many, and is refused before the closure starts.
    """
    if not finite_type(A):
        raise ValueError("the matrix is not of finite type: it has infinitely many positive roots")
    # <h_k, root> and <coroot, alpha_k> over the nonzero entries of row and column k
    n = len(A.colors)
    rows = [[(t, a) for t, a in enumerate(row) if a] for row in A.rows]
    cols = [[(t, a) for t, a in enumerate(col) if a] for col in zip(*A.rows)]
    simple = [tuple(int(t == k) for t in range(n)) for k in range(n)]
    seen = dict(zip(simple, simple))
    found = list(seen.items())  # grows as it is read: breadth first
    for c, d in found:
        for k in range(n):
            # the reflection s_k changes entry k only, so a root leaves the
            # positive cone where that entry goes negative
            pair = sum(a * c[t] for t, a in rows[k])
            nc = (*c[:k], c[k] - pair, *c[k + 1:])
            if pair > c[k] or nc in seen:
                continue
            seen[nc] = nd = (*d[:k], d[k] - sum(d[t] * a for t, a in cols[k]), *d[k + 1:])
            found.append((nc, nd))
    return sorted(seen.items())


def weyl_dim_general(A, lam):
    """Weyl dimension product over the positive-root closure.

    lam is a sequence of pairings in index order, one per color.  A GCM is
    never edited, so the matrix object A keeps its closure: run_verification
    builds its matrix per call and computes the closure once per call.
    """
    if len(lam) != len(A.colors):
        raise ValueError(f"lam has {len(lam)} entries for {len(A.colors)} colors")
    lam = dict(zip(A.colors, lam))
    if "_roots" not in vars(A):
        A._roots = positive_roots(A)
    num = den = 1
    for _, coroot in A._roots:
        num *= sum(d * (lam[c] + 1) for d, c in zip(coroot, A.colors))
        den *= sum(coroot)
    assert num % den == 0, "non-integral Weyl quotient"
    return num // den


# -- the two-parent fork classification ---------------------------------------
#
# A fork is an element with eps1, eps2 >= 1; its raising deltas are the eps2
# change across e1 and the eps1 change across e2.  The classes (1,2), (1,1) and
# (0,2) are disjoint, so each fork goes to at most one entry of FORKS.  Raising
# words are digit strings applied left to right: "211" is e2, then e1 twice,
# which is walked as two runs, e2 and then e1^2.

@cache
def _runs(word):
    return tuple((int(i), len(list(run))) for i, run in groupby(word))


def _up(m, word):
    return pbw.raise_walk(m, _runs(word))


def _phi(m, j):
    # phi_j less its lam term, which cancels in a difference
    return m.a[0] + 2 * (m.x[0] - m.x[2] - m.x[3]) if j == 1 else m.x[3] - m.x[0] - m.x[1]


def _down_delta(m, i, j, lam):
    """Change of phi_j across one lowering i-step; None where the step is
    undefined, so a broken map is reported rather than raised."""
    w = pbw.kashiwara_step(m, i, lam)
    return None if w is None else _phi(w, j) - _phi(m, j)


def _match_interlocked(m):
    # coordinates ((a,b,a,b),(b,a,b,a)) with a,b >= 1
    a1, a2, a3, a4 = m.a
    return a3 == a1 >= 1 and a4 == a2 >= 1 and m.x == (a2, a1, a2, a1)


def _match_low_tail(m):
    # ((a,b,a,c),(b,a,c,a+2b-2c)) with a >= 1, 0 <= c < b
    a1, a2, a3, a4 = m.a
    return (
        a3 == a1 >= 1
        and 0 <= a4 < a2
        and m.x == (a2, a1, a4, a1 + 2 * a2 - 2 * a4)
    )


def _match_low_middle(m):
    # ((a,b,c,a+b-c),(b,a,b,c)) with b >= 1, 0 <= c < a
    a1, a2, a3, a4 = m.a
    return (
        a2 >= 1
        and 0 <= a3 < a1
        and a4 == a1 + a2 - a3
        and m.x == (a2, a1, a2, a3)
    )


def _family_12(m):
    return _match_interlocked(m) or _match_low_tail(m) or _match_low_middle(m)


# the (1,2) families, each with its lowering deltas at the branch points y and y'
FORK_CASES = {"interlocked": (_match_interlocked, (0, 1)), "low_tail": (_match_low_tail, (1, 1)),
              "low_middle": (_match_low_middle, (0, 0))}


def _close_12(m, lam, rep):
    """A (1,2) fork lies in exactly one family, which its lowering deltas at
    y (up by "211") and y' (up by "12211") tell apart, so (1,0) never occurs;
    each family closes with its own stated confluence or ledge equalities."""
    cases = [name for name, (f, _) in FORK_CASES.items() if f(m)]
    if len(cases) != 1:
        rep.add(f"{m}: matches cases {cases}, need exactly one")
        return
    case = cases[0]
    y, y1 = _up(m, "211"), _up(m, "12211")
    if y is None or y1 is None:
        rep.add(f"{m}: branch points missing ({y}, {y1})")
        return
    t, want = (_down_delta(y, 1, 2, lam), _down_delta(y1, 1, 2, lam)), FORK_CASES[case][1]
    if t != want:
        rep.add(f"{m}: case {case} has branch deltas {t}, want {want}")
        return
    if case == "interlocked":
        ends = [_up(m, w) for w in ("1212112", "1221112", "2111221", "2112121")]
        if None in ends or len(set(ends)) != 1:
            rep.add(f"{m}: four words disagree: {ends}")
            return
        a, b = m.a[0], m.a[1]
        zc = ((a - 1, b - 1, a - 1, b - 1), (b - 1, a - 1, b - 1, a - 1))
        if ends[0] != zc:
            rep.add(f"{m}: meet {ends[0]} != closed form {zc}")
        d = (_down_delta(ends[0], 1, 2, lam), _down_delta(ends[0], 2, 1, lam))
        if d != (1, 2):
            rep.add(f"{m}: lowering profile at meet is {d}")
        return
    if case == "low_tail":
        w1, w2 = _up(m, "12121"), _up(m, "21112")
        if not (w1 == w2 == y1):
            rep.add(f"{m}: alternating words miss y' ({w1}, {w2}, {y1})")
            return
    f2y1 = pbw.kashiwara_step(y1, 2, lam)
    e1y = _up(y, "1")
    if f2y1 is None or f2y1 != e1y:
        rep.add(f"{m}: ledge equality fails ({f2y1} vs {e1y})")
    want = 1 if case == "low_tail" else 2
    if _down_delta(y1, 2, 1, lam) != want:
        rep.add(f"{m}: delta at y' is not {want}")
    if case == "low_middle":
        w = pbw.kashiwara_step(y1, 1, lam)
        w = w and pbw.kashiwara_step(w, 1, lam)
        if w is None or _down_delta(w, 2, 1, lam) != 0:
            rep.add(f"{m}: delta two steps under y' is not 0")


def _pentagon(words, meet, m, lam, rep):
    """Closing check of a pentagon class: the three raising words agree and
    end at meet(*m.a)."""
    ends = [_up(m, w) for w in words]
    if None in ends or len(set(ends)) != 1:
        rep.add(f"{m}: pentagon words disagree: {ends}")
    elif ends[0] != meet(*m.a):
        rep.add(f"{m}: meet {ends[0]} != closed form {meet(*m.a)}")


def _family_11(m):
    # ((a,b,a+1,c),(b+1,a,c,a+2b-2c+1)) with a >= 2, 0 <= c <= b
    a1, a2, a3, a4 = m.a
    return (a1 >= 2 and a3 == a1 + 1 and 0 <= a4 <= a2
            and m.x == (a2 + 1, a1, a4, a1 + 2 * a2 - 2 * a4 + 1))


def _family_02(m):
    # ((a,b,c,a+b-c-1),(b,a-2,b+1,c)) with a >= 2, b >= 1, 0 <= c <= a-2
    a1, a2, a3, a4 = m.a
    return (a1 >= 2 and a2 >= 1 and 0 <= a3 <= a1 - 2 and a4 == a1 + a2 - a3 - 1
            and m.x == (a2, a1 - 2, a2 + 1, a3))


def _flat_ledge(m):
    # two raising 1-steps up, a raising 2-step exists and leaves eps1 as it is
    mm = _up(m, "11")
    return mm.x[0] >= 1 and _up(mm, "2").a[0] == mm.a[0]


# A fork class:
#   claim: report title, formatted with lam
#   eps1: least eps1 of a fork in the class
#   guard(m): a further condition on the fork, or None
#   family(m): the parametrized family the forks must equal
#   close(m, lam, rep): adds the fork's counterexamples to rep
Fork = namedtuple("Fork", "claim eps1 guard family close")


# raising deltas -> class, in report order
FORKS = {
    (1, 2): Fork("fork(1,2) classification at {}", 1, None, _family_12, _close_12),
    (1, 1): Fork("fork(1,1) pentagon at {}", 2, None, _family_11, partial(_pentagon,
        ("11221", "12121", "21112"),
        lambda a, b, _, c: ((a - 2, b + 1, a - 2, c), (b + 1, a - 2, c, a + 2 * b - 2 * c)))),
    (0, 2): Fork("fork(0,2) pentagon at {}", 2, _flat_ledge, _family_02, partial(_pentagon,
        ("11221", "12112", "21112"),
        lambda a, b, c, _: ((a - 1, b - 1, c, a + b - c - 2), (b - 1, a - 1, b - 1, c)))),
}


def verify_forks(lam, g=None):
    """The three fork suites in one pass over the crystal g (generate(lam)
    when not given); returns their reports in FORKS order.  A vertex with
    eps1 = a1 >= 1 and eps2 = x1 >= 1 goes to the one class with its raising
    deltas, one kernel call each; each class's forks must equal its family.
    A vertex meets only the families its first conditions allow: with
    u = a3 - a1 and v = a1 + a2 - a3 - a4, interlocked and low_tail need
    u = 0, low_middle v = 0, (1,1) u = 1 and (0,2) v = 1."""
    g = pbw.generate(lam) if g is None else g
    reps = {d: VerificationReport(f.claim.format(lam), len(g)) for d, f in FORKS.items()}
    hits = {d: set() for d in FORKS}
    members = {d: set() for d in FORKS}
    for m in g.labels:
        (a1, a2, a3, a4), (x1, x2, x3, x4) = m
        u, v = a3 - a1, a1 + a2 - a3 - a4
        if (u == 0 or v == 0) and _family_12(m):
            members[1, 2].add(m)
        if u == 1 and _family_11(m):
            members[1, 1].add(m)
        if v == 1 and _family_02(m):
            members[0, 2].add(m)
        if a1 < 1 or x1 < 1:
            continue
        d = (kernel.r_transfer((a1 - 1, a2, a3, a4))[0] - x1,
             kernel.r_inverse((x1 - 1, x2, x3, x4))[0] - a1)
        f = FORKS.get(d)
        if f is None or a1 < f.eps1 or (f.guard is not None and not f.guard(m)):
            continue
        hits[d].add(m)
        f.close(m, lam, reps[d])
    for d, rep in reps.items():
        if members[d] != hits[d]:
            rep.add(f"set identity fails: families minus forks {sorted(members[d] - hits[d])[:3]}, "
                    f"forks minus families {sorted(hits[d] - members[d])[:3]}")
    return list(reps.values())


# verify_forks serves the three suites in one pass; these three stay only
# because perfbench/tracing.py spans them, and they leave when it spans
# verify_forks instead (ROADMAP item 7)
def verify_kakunin1(lam):
    return verify_forks(lam)[0]


def verify_kakunin2(lam):
    return verify_forks(lam)[1]


def verify_kakunin3(lam):
    return verify_forks(lam)[2]


def verify_reversal(lam, g):
    """Arrow reversal of the crystal g = generate(lam) is again a
    certified crystal, isomorphic to g with raising and lowering swapped."""
    rep = VerificationReport(f"arrow-reversal involution at {lam}", domain_size=weyl_dim_b2(*lam))
    try:
        # the reversal runs check_all, and the walk from it certifies g
        iso = build_isomorphism(g.reverse(), g, b2_gcm())
    except (CertificationFailed, NotIsomorphic):
        iso = None
    # the map carries the reversal's top statistics to g's, which must be lam's
    holds = iso is not None and g.summit()[1] == {1: lam[0], 2: lam[1]}
    if holds:
        eg, pg = g.tables()  # indexed by position, which is the id in a generated graph
        vs = g.vertices()
        # the identification is an involution, and the raising and lowering
        # statistics swap across it
        holds = [iso[iso[v]] for v in vs] == vs and all(
            eg[i] == [pg[i][iso[v]] for v in vs] and pg[i] == [eg[i][iso[v]] for v in vs]
            for i in g.colors)
    if not holds:
        rep.add(f"{lam}: reversal is not an involutive crystal symmetry")
    return rep


# -- closed forms of the transition maps ------------------------------------

def closed_r_a3_ge_a1(a):
    """Transition map on the half-space a3 >= a1, in closed form."""
    a1, a2, a3, a4 = a
    if a3 < a1:
        raise HypothesisNotMet("needs a3 >= a1")
    lo, hi = (a2, a4) if a2 <= a4 else (a4, a2)
    return (hi + a3 - a1, a1, lo, a3 + 2 * a2 - 2 * lo)


def closed_r_a3_le_a1(a):
    """Transition map on the half-space a3 <= a1 (three-case form).

    The middle bound a4 + (a3 - a1)/2 may be half-integral; comparisons
    are done doubled so they stay exact.
    """
    a1, a2, a3, a4 = a
    if a3 > a1:
        raise HypothesisNotMet("needs a3 <= a1")
    if 2 * a2 >= 2 * a4 + (a3 - a1):
        return (a2, a3, a4, a1 + 2 * a2 - 2 * a4)
    if a2 >= a4 + a3 - a1:
        return (a2, 2 * a3 + 2 * a4 - a1 - 2 * a2, a1 + 2 * a2 - (a3 + a4), a3)
    return (a4 + a3 - a1, a1, a2, a3)


def closed_rinv_x3_ge_x1(x):
    """Inverse transition map on x3 >= x1, in closed form."""
    x1, x2, x3, x4 = x
    if x3 < x1:
        raise HypothesisNotMet("needs x3 >= x1")
    lo, hi = (x2, x4) if x2 <= x4 else (x4, x2)
    return (hi + 2 * (x3 - x1), x1, lo, x3 + x2 - lo)


def closed_rinv_x3_le_x1(x):
    """Inverse transition map on x3 <= x1 (three-case form)."""
    x1, x2, x3, x4 = x
    if x3 > x1:
        raise HypothesisNotMet("needs x3 <= x1")
    if x2 >= x4 + x3 - x1:
        return (x2, x3, x4, x1 + x2 - x4)
    if x2 >= x4 + 2 * (x3 - x1):
        return (x2, 2 * x3 + x4 - x1 - x2, 2 * x1 + 2 * x2 - 2 * x3 - x4, x3)
    return (x4 + 2 * (x3 - x1), x1, x2, x3)


# -- closed forms of two raising deltas --------------------------------------

def corollary_delta_2_1(m: pbw.PbwElement):
    """Closed form of the eps1 change across one raising 2-step.

    Valid for a3 >= a1 >= 1 and x1 >= 1.
    """
    a1, a2, a3, a4 = m.a
    if not (a3 >= a1 >= 1 and m.x[0] >= 1):
        raise HypothesisNotMet("needs a3 >= a1 >= 1 and x1 >= 1")
    d = 2 + a1 - a3 + 2 * a2 - 2 * (a2 if a2 >= a4 else a4)
    return d if d > 0 else 0


def corollary_delta_1_2(m: pbw.PbwElement):
    """Closed form of the eps2 change across one raising 1-step.

    Valid for x3 >= x1 >= 1 and a1 >= 1.
    """
    x1, x2, x3, x4 = m.x
    if not (x3 >= x1 >= 1 and m.a[0] >= 1):
        raise HypothesisNotMet("needs x3 >= x1 >= 1 and a1 >= 1")
    d = 1 + x1 - x3 + x2 - (x2 if x2 >= x4 else x4)
    return d if d > 0 else 0


def verify_lemmas(n):
    """Scan [0,n]^4: closed forms, inverses, weight identities, delta formulas.

    Each map is evaluated once per box point, and the delta corollaries
    navigate by the same tables.  The maps are looked up on ``kernel`` at
    call time, so a deliberately broken map patched there proves that the
    harness detects it.
    """
    if n < 0:
        raise ValueError("the box bound must be nonnegative")
    transfer, transfer_inv = kernel.r_transfer, kernel.r_inverse
    box = list(product(range(n + 1), repeat=4))
    image = dict(zip(box, map(transfer, box)))
    preimage = dict(zip(box, map(transfer_inv, box)))
    rep = VerificationReport(f"transition-map lemmas on [0,{n}]^4", domain_size=len(box))
    corollaries = []  # reported after the inverse scan's notes
    for a, x in image.items():
        a1, a2, a3, a4 = a
        x1, x2, x3, x4 = x
        if x1 < 0 or x2 < 0 or x3 < 0 or x4 < 0:
            rep.add(f"{a}: image {x} leaves N^4")
        else:
            back = preimage.get(x) or transfer_inv(x)  # the map itself off the box
            if back != a:
                rep.add(f"{a}: inverse roundtrip gives {back}")
            if a3 >= a1 and closed_r_a3_ge_a1(a) != x:
                rep.add(f"{a}: high closed form {closed_r_a3_ge_a1(a)} != {x}")
            if a3 <= a1 and closed_r_a3_le_a1(a) != x:
                rep.add(f"{a}: low closed form {closed_r_a3_le_a1(a)} != {x}")
            if a1 + 2 * a2 + a3 != x2 + 2 * x3 + x4 or a2 + a3 + a4 != x1 + x2 + x3:
                rep.add(f"{a}: weight identities fail for {x}")
        # delta corollaries and the product-zero fact, by navigation, at every point
        h21 = a3 >= a1 >= 1 and x1 >= 1
        h12 = x3 >= x1 >= 1 and a1 >= 1
        if h21 or h12:
            m = tuple.__new__(pbw.PbwElement, (a, x))
            if h21:
                step = (x1 - 1, x2, x3, x4)
                nav = (preimage.get(step) or transfer_inv(step))[0] - a1
                got = corollary_delta_2_1(m)
                if got != nav:
                    corollaries.append(f"{m}: delta(2,1) formula {got} != {nav}")
            if h12:
                nav = image[a1 - 1, a2, a3, a4][0] - x1
                if corollary_delta_1_2(m) != nav:
                    corollaries.append(f"{m}: delta(1,2) formula != {nav}")
        elif a1 > a3 and x1 > x3:
            d1 = image[a1 - 1, a2, a3, a4][0] - x1
            if x1 == 0:
                raise HypothesisNotMet(f"e_2 undefined at {pbw.PbwElement(a, x)}")
            step = (x1 - 1, x2, x3, x4)
            d2 = (preimage.get(step) or transfer_inv(step))[0] - a1
            if d1 * d2 != 0:
                corollaries.append(f"{pbw.PbwElement(a, x)}: delta product {d1}*{d2} != 0")
    for x, a in preimage.items():
        x1, _, x3, _ = x
        a1, a2, a3, a4 = a
        if a1 < 0 or a2 < 0 or a3 < 0 or a4 < 0:
            rep.add(f"{x}: preimage {a} leaves N^4")
            continue
        forth = image.get(a) or transfer(a)  # the map itself off the box
        if forth != x:
            rep.add(f"{x}: forward roundtrip gives {forth}")
        if x3 >= x1 and closed_rinv_x3_ge_x1(x) != a:
            rep.add(f"{x}: high closed form != {a}")
        if x3 <= x1 and closed_rinv_x3_le_x1(x) != a:
            rep.add(f"{x}: low closed form != {a}")
    for note in corollaries:
        rep.add(note)
    return rep


def run_verification(*, max_hw, max_box, extra=((4, 4),), budget=10**6):
    """The whole desk-scale battery; returns the list of reports.  Each weight's
    crystal is generated once, shared by its fork, reversal and dimension suites."""
    if max_hw < 0:
        raise ValueError("the weight bound must be nonnegative")
    if max_box >= 0 and (max_box + 1) ** 4 > budget:
        raise BudgetExceeded(f"the lemma box [0,{max_box}]^4 exceeds the budget {budget}")
    for lam in [(max_hw, max_hw), *extra]:  # the grid's largest crystal is at (max_hw, max_hw)
        if (n := weyl_dim_b2(*lam)) > budget:
            raise BudgetExceeded(f"the crystal at {lam} has {n} vertices, over the budget {budget}")
    reports = [verify_lemmas(max_box)]
    grid = [(a, b) for a in range(max_hw + 1) for b in range(max_hw + 1)]
    weights = grid + [t for t in extra if t not in grid]
    crystals = {lam: pbw.generate(lam, budget=budget) for lam in weights}
    for lam in weights:
        reports += verify_forks(lam, crystals[lam])
    for lam in grid:
        reports.append(verify_reversal(lam, crystals[lam]))
    dims = VerificationReport(f"vertex counts vs dimension formula [0,{max_hw}]^2",
                              domain_size=len(grid))
    A = b2_gcm()
    for lam in grid:
        got = len(crystals[lam])
        want = weyl_dim_b2(*lam)
        if got != want:
            dims.add(f"{lam}: generated {got}, formula {want}")
        wg = weyl_dim_general(A, lam)
        if wg != want:
            dims.add(f"{lam}: general product {wg}, rank-2 formula {want}")
    reports.append(dims)
    return reports
