"""Brute-force verification suites and independent counting oracles.

Everything here re-checks, on an explicit finite domain, facts that the
rest of the package relies on: the closed forms of the transition maps,
the classification of two-parent forks with their merge patterns, the
arrow-reversal symmetry, and the vertex counts against the Weyl dimension
product formula.  Reports carry the scanned domain size so "verified"
always names its finite domain.
"""

from dataclasses import dataclass, field
from itertools import product

from . import kernel, pbw
from .builder import verify_reversal_involution
from .cartan import b2_gcm
from .errors import BudgetExceeded


@dataclass
class VerificationReport:
    claim: str
    domain_size: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.counterexamples

    def add(self, note):
        if len(self.counterexamples) < 50:  # keep reports readable
            self.counterexamples.append(note)

    def to_dict(self):
        return {
            "claim": self.claim,
            "domain_size": self.domain_size,
            "pass": self.passed,
            "counterexamples": list(self.counterexamples),
        }

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


def positive_roots(A, budget=4096):
    """Positive roots of a finite-type matrix with their coroot vectors.

    Each root is a coefficient tuple over the simple roots; its coroot is
    tracked as a coefficient tuple over the simple coroots, transforming
    contragradiently under the simple reflections.  Closure growing past
    the budget means the matrix is not finite type.
    """
    n = len(A.colors)
    simple = []
    for k in range(n):
        c = tuple(1 if t == k else 0 for t in range(n))
        simple.append((c, c))
    seen = {c: d for c, d in simple}
    frontier = list(simple)
    while frontier:
        nxt = []
        for c, d in frontier:
            for k, i in enumerate(A.colors):
                # <h_i, root> and reflection of root and coroot
                pair = sum(A.a(i, A.colors[t]) * c[t] for t in range(n))
                nc = list(c)
                nc[k] -= pair
                nc = tuple(nc)
                if any(v < 0 for v in nc) or all(v == 0 for v in nc):
                    continue
                if nc in seen:
                    continue
                copair = sum(d[t] * A.a(A.colors[t], i) for t in range(n))
                nd = list(d)
                nd[k] -= copair
                nd = tuple(nd)
                seen[nc] = nd
                nxt.append((nc, nd))
                if len(seen) > budget:
                    raise BudgetExceeded("positive-root closure outgrew its budget (not finite type?)")
        frontier = nxt
    return sorted(seen.items())


def weyl_dim_general(A, lam):
    """Weyl dimension product over the positive-root closure.

    lam maps colors to pairings (sequence in index order also accepted).
    """
    if not isinstance(lam, dict):
        lam = dict(zip(A.colors, lam))
    num = den = 1
    for _, coroot in positive_roots(A):
        num *= sum(d * (lam[c] + 1) for d, c in zip(coroot, A.colors))
        den *= sum(coroot)
    assert num % den == 0, "non-integral Weyl quotient"
    return num // den


# -- the two-parent fork classification ---------------------------------------

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


FORK_CASES = {"interlocked": _match_interlocked, "low_tail": _match_low_tail,
              "low_middle": _match_low_middle}


def _delta_pair(m, lam):
    return (
        pbw.elem_delta(m, "e", "eps", 1, 2, lam),
        pbw.elem_delta(m, "e", "eps", 2, 1, lam),
    )


def _dpp(m, lam):
    return (
        pbw.elem_delta(m, "f", "phi", 1, 2, lam),
        pbw.elem_delta(m, "f", "phi", 2, 1, lam),
    )


def verify_kakunin1(lam, g=None):
    """Forks with raising deltas (1,2): set identity, case split, merges.

    The elements split into three parametrized families with lowering
    profiles (0,1), (1,1), (0,0) at the two branch points; (1,0) never
    occurs; each case closes with its own stated confluence or ledge
    equalities, checked by navigation.
    """
    rep = VerificationReport(f"fork(1,2) classification at {lam}")
    g = pbw.generate(lam) if g is None else g
    rep.domain_size = len(g)
    hits = set()
    for v in g.vertices():
        m = g.label(v)
        st = pbw.elem_stats(m, lam)
        if st.eps1 < 1 or st.eps2 < 1:
            continue
        if _delta_pair(m, lam) != (1, 2):
            continue
        hits.add(m)
        cases = [name for name, f in FORK_CASES.items() if f(m)]
        if len(cases) != 1:
            rep.add(f"{m}: matches cases {cases}, need exactly one")
            continue
        case = cases[0]
        y = pbw.elem_walk(m, [("e", 2), ("e", 1), ("e", 1)], lam)
        y1 = pbw.elem_walk(m, [("e", 1), ("e", 2), ("e", 2), ("e", 1), ("e", 1)], lam)
        if y is None or y1 is None:
            rep.add(f"{m}: branch points missing ({y}, {y1})")
            continue
        t = (
            pbw.elem_delta(y, "f", "phi", 1, 2, lam),
            pbw.elem_delta(y1, "f", "phi", 1, 2, lam),
        )
        want = {"interlocked": (0, 1), "low_tail": (1, 1), "low_middle": (0, 0)}[case]
        if t != want:
            rep.add(f"{m}: case {case} has branch deltas {t}, want {want}")
            continue
        if t == (1, 0):
            rep.add(f"{m}: forbidden branch deltas (1,0)")
        if case == "interlocked":
            a, b = m.a[0], m.a[1]
            words = [
                [("e", 1), ("e", 2), ("e", 1), ("e", 2), ("e", 1), ("e", 1), ("e", 2)],
                [("e", 1), ("e", 2), ("e", 2), ("e", 1), ("e", 1), ("e", 1), ("e", 2)],
                [("e", 2), ("e", 1), ("e", 1), ("e", 1), ("e", 2), ("e", 2), ("e", 1)],
                [("e", 2), ("e", 1), ("e", 1), ("e", 2), ("e", 1), ("e", 2), ("e", 1)],
            ]
            ends = [pbw.elem_walk(m, w, lam) for w in words]
            if None in ends or len(set(ends)) != 1:
                rep.add(f"{m}: four words disagree: {ends}")
                continue
            z = ends[0]
            zc = ((a - 1, b - 1, a - 1, b - 1), (b - 1, a - 1, b - 1, a - 1))
            if z != zc:
                rep.add(f"{m}: meet {z} != closed form {zc}")
            if _dpp(z, lam) != (1, 2):
                rep.add(f"{m}: lowering profile at meet is {_dpp(z, lam)}")
        elif case == "low_tail":
            w1 = pbw.elem_walk(m, [("e", 1), ("e", 2), ("e", 1), ("e", 2), ("e", 1)], lam)
            w2 = pbw.elem_walk(m, [("e", 2), ("e", 1), ("e", 1), ("e", 1), ("e", 2)], lam)
            if not (w1 == w2 == y1):
                rep.add(f"{m}: alternating words miss y' ({w1}, {w2}, {y1})")
                continue
            f2y1 = pbw.kashiwara_step(y1, "f", 2, lam)
            e1y = pbw.kashiwara_step(y, "e", 1, lam)
            if f2y1 is None or f2y1 != e1y:
                rep.add(f"{m}: ledge equality fails ({f2y1} vs {e1y})")
            if pbw.elem_delta(y1, "f", "phi", 2, 1, lam) != 1:
                rep.add(f"{m}: delta at y' is not 1")
        else:  # low_middle
            f2y1 = pbw.kashiwara_step(y1, "f", 2, lam)
            e1y = pbw.kashiwara_step(y, "e", 1, lam)
            if f2y1 is None or f2y1 != e1y:
                rep.add(f"{m}: ledge equality fails ({f2y1} vs {e1y})")
            if pbw.elem_delta(y1, "f", "phi", 2, 1, lam) != 2:
                rep.add(f"{m}: delta at y' is not 2")
            w = pbw.elem_walk(y1, [("f", 1), ("f", 1)], lam)
            if w is None or pbw.elem_delta(w, "f", "phi", 2, 1, lam) != 0:
                rep.add(f"{m}: delta two steps under y' is not 0")
    # the parametrized families, intersected with the crystal, equal the hits
    members = {m for v in g.vertices() for m in [g.label(v)]
               if any(f(m) for f in FORK_CASES.values())}
    if members != hits:
        rep.add(f"set identity fails: families minus forks {sorted(members - hits)[:3]}, "
                f"forks minus families {sorted(hits - members)[:3]}")
    return rep


def verify_kakunin2(lam, g=None):
    """Forks with deltas (1,1) and a raising 1-string of length >= 2:
    one parametrized family, closing pentagon with the stated meet."""
    rep = VerificationReport(f"fork(1,1) pentagon at {lam}")
    g = pbw.generate(lam) if g is None else g
    rep.domain_size = len(g)
    hits = set()
    for v in g.vertices():
        m = g.label(v)
        st = pbw.elem_stats(m, lam)
        if st.eps1 < 2 or st.eps2 < 1:
            continue
        if _delta_pair(m, lam) != (1, 1):
            continue
        hits.add(m)
        words = [
            [("e", 1), ("e", 1), ("e", 2), ("e", 2), ("e", 1)],
            [("e", 1), ("e", 2), ("e", 1), ("e", 2), ("e", 1)],
            [("e", 2), ("e", 1), ("e", 1), ("e", 1), ("e", 2)],
        ]
        ends = [pbw.elem_walk(m, w, lam) for w in words]
        if None in ends or len(set(ends)) != 1:
            rep.add(f"{m}: pentagon words disagree: {ends}")
            continue
        a, b, c = m.a[0], m.a[1], m.a[3]
        zc = ((a - 2, b + 1, a - 2, c), (b + 1, a - 2, c, a + 2 * b - 2 * c))
        if ends[0] != zc:
            rep.add(f"{m}: meet {ends[0]} != closed form {zc}")
    members = set()
    for v in g.vertices():
        m = g.label(v)
        a1, a2, a3, a4 = m.a
        if a1 >= 2 and a3 == a1 + 1 and 0 <= a4 <= a2 and m.x == (
            a2 + 1, a1, a4, a1 + 2 * a2 - 2 * a4 + 1
        ):
            members.add(m)
    if members != hits:
        rep.add(f"set identity fails: {sorted(members ^ hits)[:4]}")
    return rep


def verify_kakunin3(lam, g=None):
    """Forks with deltas (0,2) and a flat raising ledge two steps up:
    one parametrized family, closing pentagon with the stated meet."""
    rep = VerificationReport(f"fork(0,2) pentagon at {lam}")
    g = pbw.generate(lam) if g is None else g
    rep.domain_size = len(g)
    hits = set()
    for v in g.vertices():
        m = g.label(v)
        st = pbw.elem_stats(m, lam)
        if st.eps1 < 2 or st.eps2 < 1:
            continue
        if _delta_pair(m, lam) != (0, 2):
            continue
        mm = pbw.elem_walk(m, [("e", 1), ("e", 1)], lam)
        if pbw.elem_stats(mm, lam).eps2 < 1:
            continue
        if pbw.elem_delta(mm, "e", "eps", 2, 1, lam) != 0:
            continue
        hits.add(m)
        words = [
            [("e", 1), ("e", 1), ("e", 2), ("e", 2), ("e", 1)],
            [("e", 1), ("e", 2), ("e", 1), ("e", 1), ("e", 2)],
            [("e", 2), ("e", 1), ("e", 1), ("e", 1), ("e", 2)],
        ]
        ends = [pbw.elem_walk(m, w, lam) for w in words]
        if None in ends or len(set(ends)) != 1:
            rep.add(f"{m}: pentagon words disagree: {ends}")
            continue
        a, b, c = m.a[0], m.a[1], m.a[2]
        zc = ((a - 1, b - 1, c, a + b - c - 2), (b - 1, a - 1, b - 1, c))
        if ends[0] != zc:
            rep.add(f"{m}: meet {ends[0]} != closed form {zc}")
    members = set()
    for v in g.vertices():
        m = g.label(v)
        a1, a2, a3, a4 = m.a
        if (
            a1 >= 2
            and a2 >= 1
            and 0 <= a3 <= a1 - 2
            and a4 == a1 + a2 - a3 - 1
            and m.x == (a2, a1 - 2, a2 + 1, a3)
        ):
            members.add(m)
    if members != hits:
        rep.add(f"set identity fails: {sorted(members ^ hits)[:4]}")
    return rep


def verify_reversal(lam, g=None):
    rep = VerificationReport(f"arrow-reversal involution at {lam}", domain_size=weyl_dim_b2(*lam))
    if not verify_reversal_involution(lam, g):
        rep.add(f"{lam}: reversal is not an involutive crystal symmetry")
    return rep


def verify_lemmas(n, transfer=None, transfer_inv=None):
    """Scan [0,n]^4: closed forms, inverses, weight identities, delta formulas.

    The transfer arguments exist so a deliberately broken implementation
    can be injected to prove the harness detects it.
    """
    transfer = transfer or kernel.r_transfer
    transfer_inv = transfer_inv or kernel.r_inverse
    rep = VerificationReport(f"transition-map lemmas on [0,{n}]^4", domain_size=(n + 1) ** 4)
    for a in product(range(n + 1), repeat=4):
        x = transfer(a)
        if any(v < 0 for v in x):
            rep.add(f"{a}: image {x} leaves N^4")
            continue
        if transfer_inv(x) != a:
            rep.add(f"{a}: inverse roundtrip gives {transfer_inv(x)}")
        if a[2] >= a[0] and pbw.closed_r_a3_ge_a1(a) != x:
            rep.add(f"{a}: high closed form {pbw.closed_r_a3_ge_a1(a)} != {x}")
        if a[2] <= a[0] and pbw.closed_r_a3_le_a1(a) != x:
            rep.add(f"{a}: low closed form {pbw.closed_r_a3_le_a1(a)} != {x}")
        if (
            a[0] + 2 * a[1] + a[2] != x[1] + 2 * x[2] + x[3]
            or a[1] + a[2] + a[3] != x[0] + x[1] + x[2]
        ):
            rep.add(f"{a}: weight identities fail for {x}")
    for x in product(range(n + 1), repeat=4):
        a = transfer_inv(x)
        if any(v < 0 for v in a):
            rep.add(f"{x}: preimage {a} leaves N^4")
            continue
        if transfer(a) != x:
            rep.add(f"{x}: forward roundtrip gives {transfer(a)}")
        if x[2] >= x[0] and pbw.closed_rinv_x3_ge_x1(x) != a:
            rep.add(f"{x}: high closed form != {a}")
        if x[2] <= x[0] and pbw.closed_rinv_x3_le_x1(x) != a:
            rep.add(f"{x}: low closed form != {a}")
    # delta corollaries and the product-zero fact, by navigation
    for t in product(range(n + 1), repeat=4):
        m = pbw.PbwElement(t, transfer(t))
        a1, a2, a3, a4 = m.a
        x1, x2, x3, x4 = m.x
        if a3 >= a1 >= 1 and x1 >= 1:
            nav = pbw.elem_delta(m, "e", "eps", 2, 1)
            if pbw.corollary_delta_2_1(m) != nav:
                rep.add(f"{m}: delta(2,1) formula {pbw.corollary_delta_2_1(m)} != {nav}")
        if x3 >= x1 >= 1 and a1 >= 1:
            nav = pbw.elem_delta(m, "e", "eps", 1, 2)
            if pbw.corollary_delta_1_2(m) != nav:
                rep.add(f"{m}: delta(1,2) formula != {nav}")
        if a1 > a3 and x1 > x3:
            d1 = pbw.elem_delta(m, "e", "eps", 1, 2)
            d2 = pbw.elem_delta(m, "e", "eps", 2, 1)
            if d1 * d2 != 0:
                rep.add(f"{m}: delta product {d1}*{d2} != 0")
    return rep


def run_verification(max_hw=3, max_box=8, extra=((4, 4),)):
    """The whole desk-scale battery; returns the list of reports.  Each weight's
    crystal is generated once, shared by its fork, reversal and dimension suites."""
    reports = [verify_lemmas(max_box)]
    grid = [(a, b) for a in range(max_hw + 1) for b in range(max_hw + 1)]
    weights = grid + [t for t in extra if t not in grid]
    crystals = {lam: pbw.generate(lam) for lam in weights}
    for lam in weights:
        reports.append(verify_kakunin1(lam, crystals[lam]))
        reports.append(verify_kakunin2(lam, crystals[lam]))
        reports.append(verify_kakunin3(lam, crystals[lam]))
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
