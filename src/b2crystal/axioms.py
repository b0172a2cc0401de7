"""Local axiom checker for colored directed graphs.

Implements the classical rank-2 local axioms (string-difference equalities
and bounds, the square and octagon confluences) together with the extra
doubly-laced battery: the two depth-7 diamond axioms, the two pentagon
merge axioms, and their sub-conditions.  Everything is evaluated on the
literal graph; phi/eps are always string lengths, never trusted labels,
so the checker is meaningful on arbitrary graphs.

Violation tags: S1 (goodness, with the G-rule in the detail), S2, S3,
A_MINUS/B_MINUS (under S4), A_PLUS/B_PLUS (under S5), S6..S9 reported via
their innermost sub-condition D_MINUS/D_PLUS/C1_PLUS/P1_MINUS/Q1_MINUS/
R_MINUS, the variant tags S8_PRIME/P_MINUS/Q_MINUS, plus MAX (maximum
element count), WT (weight grading conflict), PHI0 (top statistics
mismatch) and CONFLUENCE (bounded search failure).
"""

from dataclasses import dataclass, field
from typing import Optional

from .cartan import B2, classify_pair
from .errors import InconsistentWeight, UnsupportedPair

DEFAULT_CONFLUENCE_DEPTH = 7


@dataclass(frozen=True)
class Violation:
    axiom: str
    pair: Optional[tuple]
    witness: Optional[int]
    detail: str

    def sort_key(self):
        return (
            -1 if self.witness is None else self.witness,
            self.axiom,
            self.pair or (),
            self.detail,
        )

    def to_dict(self):
        return {
            "axiom": self.axiom,
            "pair": list(self.pair) if self.pair else None,
            "witness": self.witness,
            "detail": self.detail,
        }


class _Ctx:
    """Navigation plus precomputed string statistics of a good graph."""

    def __init__(self, g):
        self.g = g
        self.e, self.f = g.e_step, g.f_step
        self.climb, self.descend = g.climb, g.descend
        self._eps, self._phi = g.tables()

    def eps(self, i, v):
        return self._eps[i][v]

    def phi(self, i, v):
        return self._phi[i][v]

    # delta of the j-statistic across a single step; None when the step
    # (or for the f/phi flavors, the step at the far end) is missing
    def de_eps(self, i, j, v):
        w = self.e(i, v)
        return None if w is None else self.eps(j, w) - self.eps(j, v)

    def de_phi(self, i, j, v):
        w = self.e(i, v)
        return None if w is None else self.phi(j, w) - self.phi(j, v)

    def df_phi(self, i, j, v):
        w = self.f(i, v)
        return None if w is None else self.phi(j, w) - self.phi(j, v)


def _sorted(violations):
    return sorted(violations, key=Violation.sort_key)


# -- S2 / S3 -----------------------------------------------------------------

def check_s2_s3(g, A, include_diagonal=False):
    """String-difference equality and sign bounds across every raising step.

    With include_diagonal the equality is also checked at j = i, where the
    differences are the constants -1 and +1 and the equality reads 2 = a_ii.
    """
    ctx = _Ctx(g)
    out = []
    for x in g.vertices():
        for i in g.colors:
            if ctx.e(i, x) is None:
                continue
            for j in g.colors:
                if j == i and not include_diagonal:
                    continue
                dphi = ctx.de_phi(i, j, x)
                deps = ctx.de_eps(i, j, x)
                if dphi - deps != A.a(j, i):
                    out.append(
                        Violation(
                            "S2", (i, j), x,
                            f"phi/eps difference {dphi}-{deps} != a[{j},{i}]={A.a(j, i)}",
                        )
                    )
                if j != i and not (dphi <= 0 <= deps):
                    out.append(
                        Violation("S3", (i, j), x, f"need {dphi} <= 0 <= {deps}")
                    )
    return _sorted(out)


# -- S4 / S5 -----------------------------------------------------------------

def _square_minus(ctx, x, k, ell, out):
    # raising square: both orders of one k-step and one ell-step meet,
    # and the closing lowering delta vanishes
    if ctx.de_eps(k, ell, x) != 0:
        return
    z1 = ctx.climb(x, [k, ell])
    z2 = ctx.climb(x, [ell, k])
    if z1 is None or z2 is None or z1 != z2:
        out.append(Violation("A_MINUS", (k, ell), x, f"square above does not close ({z1} vs {z2})"))
        return
    d = ctx.df_phi(ell, k, z1)
    if d != 0:
        out.append(Violation("A_MINUS", (k, ell), x, f"closing lowering delta is {d}, not 0"))


def _square_plus(ctx, x, k, ell, out):
    if ctx.df_phi(k, ell, x) != 0:
        return
    z1 = ctx.descend(x, [k, ell])
    z2 = ctx.descend(x, [ell, k])
    if z1 is None or z2 is None or z1 != z2:
        out.append(Violation("A_PLUS", (k, ell), x, f"square below does not close ({z1} vs {z2})"))
        return
    d = ctx.de_eps(ell, k, z1)
    if d != 0:
        out.append(Violation("A_PLUS", (k, ell), x, f"closing raising delta is {d}, not 0"))


def _octagon_minus(ctx, x, i, j, out):
    if (ctx.de_eps(i, j, x), ctx.de_eps(j, i, x)) != (1, 1):
        return
    z1 = ctx.climb(x, [i, j, j, i])
    z2 = ctx.climb(x, [j, i, i, j])
    if z1 is None or z2 is None or z1 != z2:
        out.append(Violation("B_MINUS", (i, j), x, f"length-4 words above do not meet ({z1} vs {z2})"))
        return
    d = (ctx.df_phi(i, j, z1), ctx.df_phi(j, i, z1))
    if d != (1, 1):
        out.append(Violation("B_MINUS", (i, j), x, f"closing lowering deltas {d} != (1,1)"))


def _octagon_plus(ctx, x, i, j, out):
    if (ctx.df_phi(i, j, x), ctx.df_phi(j, i, x)) != (1, 1):
        return
    z1 = ctx.descend(x, [i, j, j, i])
    z2 = ctx.descend(x, [j, i, i, j])
    if z1 is None or z2 is None or z1 != z2:
        out.append(Violation("B_PLUS", (i, j), x, f"length-4 words below do not meet ({z1} vs {z2})"))
        return
    d = (ctx.de_eps(i, j, z1), ctx.de_eps(j, i, z1))
    if d != (1, 1):
        out.append(Violation("B_PLUS", (i, j), x, f"closing raising deltas {d} != (1,1)"))


def check_s4_s5(g, A, ctx=None):
    """Square and length-4 confluences above and below every two-parent /
    two-child vertex, for every color pair."""
    ctx = ctx or _Ctx(g)
    out = []
    colors = g.colors
    for x in g.vertices():
        for ai, i in enumerate(colors):
            for j in colors[ai + 1:]:
                if ctx.e(i, x) is not None and ctx.e(j, x) is not None:
                    _square_minus(ctx, x, i, j, out)
                    _square_minus(ctx, x, j, i, out)
                    _octagon_minus(ctx, x, i, j, out)
                if ctx.f(i, x) is not None and ctx.f(j, x) is not None:
                    _square_plus(ctx, x, i, j, out)
                    _square_plus(ctx, x, j, i, out)
                    _octagon_plus(ctx, x, i, j, out)
    return _sorted(out)


# -- S6 .. S9 ----------------------------------------------------------------

def _b2_oriented_pairs(A):
    """Ordered color pairs whose 2x2 restriction is doubly laced with the
    long arrow from the first color (the orientation the axioms assume)."""
    return [(i, j) for (i, j) in A.pairs() if classify_pair(A, i, j) == B2]


def _check_c1_plus(ctx, x, i, j, via, out):
    z1 = ctx.descend(x, [i, i, j, j, i])
    z2 = ctx.descend(x, [j, i, i, i, j])
    if z1 is None or z2 is None or z1 != z2:
        out.append(
            Violation("C1_PLUS", (i, j), x, f"via {via}: pentagon words below do not meet ({z1} vs {z2})")
        )


def _check_s6(ctx, x, i, j, out):
    y = ctx.climb(x, [j, i, i])
    if y is None:
        out.append(Violation("D_MINUS", (i, j), x, "first branch point above is missing"))
        return
    y1 = ctx.climb(x, [i, j, j, i, i])
    if y1 is None:
        out.append(Violation("D_MINUS", (i, j), x, "second branch point above is missing"))
        return
    t = (ctx.df_phi(i, j, y), ctx.df_phi(i, j, y1))
    if t[0] is None or t[1] is None:
        out.append(Violation("D_MINUS", (i, j), x, "branch-point lowering deltas undefined"))
        return
    if t == (1, 0):
        out.append(Violation("D_MINUS", (i, j), x, "branch deltas (1,0) are forbidden"))
    elif t == (1, 1):
        fy1 = ctx.f(j, y1)
        ey = ctx.e(i, y)
        if fy1 is None or ey is None or fy1 != ey:
            out.append(Violation("P1_MINUS", (i, j), x, f"expected j-child of y' = i-parent of y ({fy1} vs {ey})"))
        elif ctx.df_phi(j, i, y1) != 1:
            out.append(Violation("P1_MINUS", (i, j), x, f"lowering delta at y' is {ctx.df_phi(j, i, y1)}, not 1"))
    elif t == (0, 1):
        z1 = ctx.climb(x, [i, j, j, i, i, i, j])
        z2 = ctx.climb(x, [j, i, i, i, j, j, i])
        if z1 is None or z2 is None or z1 != z2:
            out.append(Violation("Q1_MINUS", (i, j), x, f"depth-7 words above do not meet ({z1} vs {z2})"))
            return
        dz = (ctx.df_phi(i, j, z1), ctx.df_phi(j, i, z1))
        if dz != (1, 2):
            out.append(Violation("Q1_MINUS", (i, j), x, f"lowering deltas at the meet are {dz}, not (1,2)"))
    elif t == (0, 0):
        fy1 = ctx.f(j, y1)
        ey = ctx.e(i, y)
        if fy1 is None or ey is None or fy1 != ey:
            out.append(Violation("R_MINUS", (i, j), x, f"expected j-child of y' = i-parent of y ({fy1} vs {ey})"))
            return
        if ctx.df_phi(j, i, y1) != 2:
            out.append(Violation("R_MINUS", (i, j), x, f"lowering delta at y' is {ctx.df_phi(j, i, y1)}, not 2"))
            return
        w = ctx.descend(y1, [i, i])
        d = None if w is None else ctx.df_phi(j, i, w)
        if d != 0:
            out.append(Violation("R_MINUS", (i, j), x, f"delta two i-steps under y' is {d}, not 0"))


def _check_s7(ctx, x, i, j, out):
    y = ctx.descend(x, [j, i, i])
    if y is None:
        out.append(Violation("D_PLUS", (i, j), x, "first branch point below is missing"))
        return
    y1 = ctx.descend(x, [i, j, j, i, i])
    if y1 is None:
        out.append(Violation("D_PLUS", (i, j), x, "second branch point below is missing"))
        return
    t = (ctx.de_eps(i, j, y), ctx.de_eps(i, j, y1))
    if t[0] is None or t[1] is None:
        out.append(Violation("D_PLUS", (i, j), x, "branch-point raising deltas undefined"))
        return
    if t != (0, 1):
        return
    z1 = ctx.descend(x, [i, j, j, i, i, i, j])
    z2 = ctx.descend(x, [j, i, i, i, j, j, i])
    if z1 is None or z2 is None or z1 != z2:
        out.append(Violation("D_PLUS", (i, j), x, f"depth-7 words below do not meet ({z1} vs {z2})"))


def check_s6_s9(g, A, ctx=None):
    """The doubly-laced battery, per oriented pair of that type."""
    ctx = ctx or _Ctx(g)
    out = []
    for i, j in _b2_oriented_pairs(A):
        for x in g.vertices():
            up = ctx.e(i, x) is not None and ctx.e(j, x) is not None
            down = ctx.f(i, x) is not None and ctx.f(j, x) is not None
            if up and (ctx.de_eps(i, j, x), ctx.de_eps(j, i, x)) == (1, 2):
                _check_s6(ctx, x, i, j, out)
            if down:
                dp = (ctx.df_phi(i, j, x), ctx.df_phi(j, i, x))
                if dp == (1, 2):
                    _check_s7(ctx, x, i, j, out)
                if dp == (1, 1) and ctx.phi(i, x) >= 2:
                    _check_c1_plus(ctx, x, i, j, "two-child hypothesis", out)
                if dp == (0, 2):
                    v = ctx.descend(x, [i, i])
                    if v is not None and ctx.f(j, v) is not None and ctx.df_phi(j, i, v) == 0:
                        _check_c1_plus(ctx, x, i, j, "flat-ledge hypothesis", out)
    return _sorted(out)


# -- variant axioms ----------------------------------------------------------

def check_variants(g, A, ctx=None):
    """Mirror and long-form variants plus the post-merge delta fact.

    These are consequences of the main battery on true crystals; checking
    them separately exercises the equivalence claims.
    """
    ctx = ctx or _Ctx(g)
    out = []
    for i, j in _b2_oriented_pairs(A):
        for x in g.vertices():
            if ctx.e(i, x) is None or ctx.e(j, x) is None:
                continue
            d = (ctx.de_eps(i, j, x), ctx.de_eps(j, i, x))
            if d == (1, 1) and ctx.eps(i, x) >= 2:
                z1 = ctx.climb(x, [i, i, j, j, i])
                z2 = ctx.climb(x, [j, i, i, i, j])
                if z1 is None or z2 is None or z1 != z2:
                    out.append(Violation("S8_PRIME", (i, j), x, f"pentagon words above do not meet ({z1} vs {z2})"))
            if d != (1, 2):
                continue
            y = ctx.climb(x, [j, i, i])
            y1 = ctx.climb(x, [i, j, j, i, i])
            if y is None or y1 is None:
                continue  # reported by check_s6_s9
            t = (ctx.df_phi(i, j, y), ctx.df_phi(i, j, y1))
            if t == (1, 1):
                wa = ctx.climb(x, [i, j, i, j, i])
                wb = ctx.climb(x, [j, i, i, i, j])
                if not (wa == wb == y1) or wa is None:
                    out.append(Violation("P_MINUS", (i, j), x, f"alternating words above miss y' ({wa}, {wb} vs {y1})"))
                elif ctx.df_phi(j, i, y1) != 1:
                    out.append(Violation("P_MINUS", (i, j), x, "lowering delta at y' is not 1"))
            elif t == (0, 1):
                words = [
                    [i, j, i, j, i, i, j],
                    [i, j, j, i, i, i, j],
                    [j, i, i, i, j, j, i],
                    [j, i, i, j, i, j, i],
                ]
                ends = [ctx.climb(x, w) for w in words]
                if None in ends or len(set(ends)) != 1:
                    out.append(Violation("Q_MINUS", (i, j), x, f"four depth-7 words disagree ({ends})"))
                    continue
                z = ends[0]
                if (ctx.df_phi(i, j, z), ctx.df_phi(j, i, z)) != (1, 2):
                    out.append(Violation("Q_MINUS", (i, j), x, "lowering deltas at the meet are not (1,2)"))
                    continue
                # post-merge raising deltas under the meet
                u = ctx.descend(z, [j, i, i])
                v = ctx.descend(z, [i, j, j, i, i])
                du = None if u is None else ctx.de_eps(i, j, u)
                dv = None if v is None else ctx.de_eps(i, j, v)
                if (du, dv) != (0, 1):
                    out.append(Violation("Q1_MINUS", (i, j), x, f"post-merge raising deltas ({du},{dv}) != (0,1)"))
    return _sorted(out)


# -- bounded homogeneous local confluence ------------------------------------

def check_confluence(g, s_max=DEFAULT_CONFLUENCE_DEPTH, ctx=None):
    """Search for equal-multiset raising paths joining every two-parent fork.

    A violation is a bounded-search failure at depth s_max, not a proof
    of absence.
    """
    ctx = ctx or _Ctx(g)
    out = []
    colors = g.colors
    for x in g.vertices():
        for ai, i in enumerate(colors):
            for j in colors[ai + 1:]:
                if ctx.e(i, x) is None or ctx.e(j, x) is None:
                    continue
                if not _meets_within(ctx, x, i, j, s_max):
                    out.append(
                        Violation(
                            "CONFLUENCE", (i, j), x,
                            f"no equal-multiset meet above within {s_max} steps",
                        )
                    )
    return _sorted(out)


def _meets_within(ctx, x, i, j, s_max):
    def start(c):
        ms = [0] * len(ctx.g.colors)
        ms[ctx.g.colors.index(c)] = 1
        return {(ctx.e(c, x), tuple(ms))}

    def grow(level):
        nxt = set()
        for v, ms in level:
            for idx, c in enumerate(ctx.g.colors):
                w = ctx.e(c, v)
                if w is not None:
                    nxt.add((w, ms[:idx] + (ms[idx] + 1,) + ms[idx + 1:]))
        return nxt

    side_i, side_j = start(i), start(j)
    for _ in range(s_max - 1):
        side_i, side_j = grow(side_i), grow(side_j)
        if not side_i or not side_j:
            return False
        if side_i & side_j:
            return True
    return False


# -- the aggregate check -----------------------------------------------------

@dataclass
class CheckReport:
    violations: list = field(default_factory=list)
    max_element: Optional[int] = None
    phi0: Optional[dict] = None
    n_vertices: int = 0
    # wt_assign of the maximum element, kept for build_isomorphism's layers;
    # not part of to_dict()
    grading: Optional[dict] = field(default=None, repr=False, compare=False)

    @property
    def passed(self):
        return not self.violations

    def to_dict(self):
        return {
            "pass": self.passed,
            "violations": [v.to_dict() for v in self.violations],
            "max_element": self.max_element,
            "phi0": self.phi0,
            "n_vertices": self.n_vertices,
        }

    def summary(self):
        if self.passed:
            return f"pass ({self.n_vertices} vertices)"
        worst = ", ".join(sorted({v.axiom for v in self.violations}))
        return f"FAIL: {len(self.violations)} violation(s) [{worst}]"


def check_all(g, A, expected_phi0=None):
    """Goodness, unique maximum, weight grading, then the axiom batteries.

    A graph passing with zero violations is regular in the axiomatic sense
    and therefore the highest-weight crystal graph for the top statistics.
    """
    report = CheckReport(n_vertices=len(g))
    for gv in g.is_good():
        report.violations.append(Violation("S1", None, gv.witness, f"{gv.rule}: {gv.detail}"))
    if report.violations:
        report.violations = _sorted(report.violations)
        return report

    maxes = g.maximum_elements()
    if len(maxes) != 1:
        report.violations.append(
            Violation("MAX", None, maxes[0] if maxes else None,
                      f"found {len(maxes)} maximum elements, need exactly 1")
        )
        report.violations = _sorted(report.violations)
        return report
    x0 = maxes[0]
    report.max_element = x0

    try:
        report.grading = g.wt_assign(x0)
    except InconsistentWeight as exc:
        report.violations.append(
            Violation("WT", None, exc.vertex, f"conflicting multisets {exc.first} vs {exc.second}")
        )

    ctx = _Ctx(g)
    report.violations.extend(check_s2_s3(g, A))
    report.violations.extend(check_s4_s5(g, A, ctx=ctx))
    try:
        report.violations.extend(check_s6_s9(g, A, ctx=ctx))
    except UnsupportedPair as exc:
        report.violations.append(Violation("S1", None, None, f"unsupported pair: {exc}"))

    report.phi0 = {i: ctx.phi(i, x0) for i in g.colors}
    if expected_phi0 is not None:
        expected = dict(expected_phi0)
        if report.phi0 != expected:
            report.violations.append(
                Violation("PHI0", None, x0, f"top statistics {report.phi0} != expected {expected}")
            )
    report.violations = _sorted(report.violations)
    return report
