"""Local axiom checker for colored directed graphs.

Implements the classical rank-2 local axioms (string-difference equalities
and bounds, the square and octagon confluences) together with the extra
doubly-laced battery: the two depth-7 diamond axioms, the two pentagon
merge axioms, and their sub-conditions.  Everything is evaluated on the
literal graph; phi/eps are always string lengths, never trusted labels,
so the checker is meaningful on arbitrary graphs.  The batteries scan the
graph's per-color position lists and its string tables, one pass over
positions per color pair, and report witnesses as vertex ids.

Violation tags: S1 (goodness, with the G-rule in the detail), S2, S3,
A_MINUS/B_MINUS (under S4), A_PLUS/B_PLUS (under S5), S6..S9 reported via
their innermost sub-condition D_MINUS/D_PLUS/C1_PLUS/P1_MINUS/Q1_MINUS/
R_MINUS, the variant tags S8_PRIME/P_MINUS/Q_MINUS, plus MAX (maximum
element count), WT (weight grading conflict), PHI0 (top statistics
mismatch) and CONFLUENCE (bounded search failure).
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from .cartan import B2, classify_pair
from .errors import InconsistentWeight, UnsupportedPair
from .graph import delta

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


def _sorted(violations):
    return sorted(violations, key=Violation.sort_key)


# The batteries scan the graph's lists with its string tables (eps, phi):
# x, y, z, w are positions, and g.ids / _vid turn them back into vertex ids
# for the reports.  Each scan tests its hypotheses inline on the flat lists;
# a witness helper runs only where one fires.

def _vid(g, k):
    """The vertex id at position k (None stays None)."""
    return None if k is None else g.ids[k]


# -- S2 / S3 -----------------------------------------------------------------

def check_s2_s3(g, A, include_diagonal=False, tables=None):
    """String-difference equality and sign bounds across every raising step.

    With include_diagonal the equality is also checked at j = i, where the
    differences are the constants -1 and +1 and the equality reads 2 = a_ii.
    """
    eps, phi = tables or g.tables()
    ids = g.ids
    out = []
    for i in g.colors:
        up_i = g.up[i]
        for j in g.colors:
            if j == i and not include_diagonal:
                continue
            a = A.a(j, i)
            eps_j, phi_j = eps[j], phi[j]
            for x, w in enumerate(up_i):
                if w is None:
                    continue
                dphi = phi_j[w] - phi_j[x]
                deps = eps_j[w] - eps_j[x]
                if dphi - deps != a:
                    out.append(
                        Violation(
                            "S2", (i, j), ids[x],
                            f"phi/eps difference {dphi}-{deps} != a[{j},{i}]={a}",
                        )
                    )
                if j != i and not (dphi <= 0 <= deps):
                    out.append(
                        Violation("S3", (i, j), ids[x], f"need {dphi} <= 0 <= {deps}")
                    )
    return _sorted(out)


# -- S4 / S5 -----------------------------------------------------------------

# The two sides of S4/S5: the raising side scans parents and eps, walks up
# and closes on the lowering deltas; the lowering side is its mirror.
def _sides(g, eps, phi):
    return (("MINUS", "above", "lowering", g.up, eps, g.climb, g.down, phi),
            ("PLUS", "below", "raising", g.down, phi, g.descend, g.up, eps))


def _square(g, side, x, k, ell, out):
    # at a vertex whose delta of the ell-statistic across its k-step is 0:
    # both orders of one k-step and one ell-step meet, and the closing
    # delta vanishes
    sign, where, closing, _, _, walk, steps, stat = side
    z1, z2 = walk(x, (k, ell)), walk(x, (ell, k))
    if z1 is None or z2 is None or z1 != z2:
        out.append(Violation("A_" + sign, (k, ell), g.ids[x],
                             f"square {where} does not close ({_vid(g, z1)} vs {_vid(g, z2)})"))
        return
    d = delta(steps, stat, ell, k, z1)
    if d != 0:
        out.append(Violation("A_" + sign, (k, ell), g.ids[x], f"closing {closing} delta is {d}, not 0"))


def _octagon(g, side, x, i, j, out):
    # at a vertex whose deltas are (1,1)
    sign, where, closing, _, _, walk, steps, stat = side
    z1, z2 = walk(x, (i, j, j, i)), walk(x, (j, i, i, j))
    if z1 is None or z2 is None or z1 != z2:
        out.append(Violation("B_" + sign, (i, j), g.ids[x],
                             f"length-4 words {where} do not meet ({_vid(g, z1)} vs {_vid(g, z2)})"))
        return
    d = (delta(steps, stat, i, j, z1), delta(steps, stat, j, i, z1))
    if d != (1, 1):
        out.append(Violation("B_" + sign, (i, j), g.ids[x], f"closing {closing} deltas {d} != (1,1)"))


def check_s4_s5(g, A, tables=None):
    """Square and length-4 confluences above and below every two-parent /
    two-child vertex, for every color pair."""
    eps, phi = tables or g.tables()
    out = []
    colors = g.colors
    for ai, i in enumerate(colors):
        for j in colors[ai + 1:]:
            for side in _sides(g, eps, phi):
                steps, stat = side[3], side[4]
                stat_i, stat_j = stat[i], stat[j]
                for x, (si, sj) in enumerate(zip(steps[i], steps[j])):
                    if si is None or sj is None:
                        continue
                    dij = stat_j[si] - stat_j[x]
                    dji = stat_i[sj] - stat_i[x]
                    if dij == 0:
                        _square(g, side, x, i, j, out)
                    if dji == 0:
                        _square(g, side, x, j, i, out)
                    if dij == 1 and dji == 1:
                        _octagon(g, side, x, i, j, out)
    return _sorted(out)


# -- S6 .. S9 ----------------------------------------------------------------

def _b2_oriented_pairs(A):
    """Ordered color pairs whose 2x2 restriction is doubly laced with the
    long arrow from the first color (the orientation the axioms assume)."""
    return [(i, j) for (i, j) in A.pairs() if classify_pair(A, i, j) == B2]


def _check_c1_plus(g, x, i, j, via, out):
    z1 = g.descend(x, (i, i, j, j, i))
    z2 = g.descend(x, (j, i, i, i, j))
    if z1 is None or z2 is None or z1 != z2:
        out.append(
            Violation("C1_PLUS", (i, j), g.ids[x],
                      f"via {via}: pentagon words below do not meet ({_vid(g, z1)} vs {_vid(g, z2)})")
        )


def _check_s6(g, phi, x, i, j, out):
    # at a vertex whose raising deltas are (1,2)
    wx = g.ids[x]
    down = g.down
    y = g.climb(x, (j, i, i))
    if y is None:
        out.append(Violation("D_MINUS", (i, j), wx, "first branch point above is missing"))
        return
    y1 = g.climb(x, (i, j, j, i, i))
    if y1 is None:
        out.append(Violation("D_MINUS", (i, j), wx, "second branch point above is missing"))
        return
    t = (delta(down, phi, i, j, y), delta(down, phi, i, j, y1))
    if t[0] is None or t[1] is None:
        out.append(Violation("D_MINUS", (i, j), wx, "branch-point lowering deltas undefined"))
        return
    if t == (1, 0):
        out.append(Violation("D_MINUS", (i, j), wx, "branch deltas (1,0) are forbidden"))
    elif t == (1, 1):
        fy1 = down[j][y1]
        ey = g.up[i][y]
        if fy1 is None or ey is None or fy1 != ey:
            out.append(Violation("P1_MINUS", (i, j), wx,
                                 f"expected j-child of y' = i-parent of y ({_vid(g, fy1)} vs {_vid(g, ey)})"))
        elif delta(down, phi, j, i, y1) != 1:
            out.append(Violation("P1_MINUS", (i, j), wx,
                                 f"lowering delta at y' is {delta(down, phi, j, i, y1)}, not 1"))
    elif t == (0, 1):
        z1 = g.climb(x, (i, j, j, i, i, i, j))
        z2 = g.climb(x, (j, i, i, i, j, j, i))
        if z1 is None or z2 is None or z1 != z2:
            out.append(Violation("Q1_MINUS", (i, j), wx,
                                 f"depth-7 words above do not meet ({_vid(g, z1)} vs {_vid(g, z2)})"))
            return
        dz = (delta(down, phi, i, j, z1), delta(down, phi, j, i, z1))
        if dz != (1, 2):
            out.append(Violation("Q1_MINUS", (i, j), wx, f"lowering deltas at the meet are {dz}, not (1,2)"))
    elif t == (0, 0):
        fy1 = down[j][y1]
        ey = g.up[i][y]
        if fy1 is None or ey is None or fy1 != ey:
            out.append(Violation("R_MINUS", (i, j), wx,
                                 f"expected j-child of y' = i-parent of y ({_vid(g, fy1)} vs {_vid(g, ey)})"))
            return
        if delta(down, phi, j, i, y1) != 2:
            out.append(Violation("R_MINUS", (i, j), wx,
                                 f"lowering delta at y' is {delta(down, phi, j, i, y1)}, not 2"))
            return
        w = g.descend(y1, (i, i))
        d = None if w is None else delta(down, phi, j, i, w)
        if d != 0:
            out.append(Violation("R_MINUS", (i, j), wx, f"delta two i-steps under y' is {d}, not 0"))


def _check_s7(g, eps, x, i, j, out):
    # at a vertex whose lowering deltas are (1,2)
    wx = g.ids[x]
    y = g.descend(x, (j, i, i))
    if y is None:
        out.append(Violation("D_PLUS", (i, j), wx, "first branch point below is missing"))
        return
    y1 = g.descend(x, (i, j, j, i, i))
    if y1 is None:
        out.append(Violation("D_PLUS", (i, j), wx, "second branch point below is missing"))
        return
    t = (delta(g.up, eps, i, j, y), delta(g.up, eps, i, j, y1))
    if t[0] is None or t[1] is None:
        out.append(Violation("D_PLUS", (i, j), wx, "branch-point raising deltas undefined"))
        return
    if t != (0, 1):
        return
    z1 = g.descend(x, (i, j, j, i, i, i, j))
    z2 = g.descend(x, (j, i, i, i, j, j, i))
    if z1 is None or z2 is None or z1 != z2:
        out.append(Violation("D_PLUS", (i, j), wx,
                             f"depth-7 words below do not meet ({_vid(g, z1)} vs {_vid(g, z2)})"))


def check_s6_s9(g, A, tables=None):
    """The doubly-laced battery, per oriented pair of that type."""
    eps, phi = tables or g.tables()
    out = []
    for i, j in _b2_oriented_pairs(A):
        eps_i, eps_j = eps[i], eps[j]
        for x, (pi, pj) in enumerate(zip(g.up[i], g.up[j])):
            if pi is None or pj is None:
                continue
            if eps_j[pi] - eps_j[x] == 1 and eps_i[pj] - eps_i[x] == 2:
                _check_s6(g, phi, x, i, j, out)
        down_i, down_j = g.down[i], g.down[j]
        phi_i, phi_j = phi[i], phi[j]
        for x, (ci, cj) in enumerate(zip(down_i, down_j)):
            if ci is None or cj is None:
                continue
            dp = (phi_j[ci] - phi_j[x], phi_i[cj] - phi_i[x])
            if dp == (1, 2):
                _check_s7(g, eps, x, i, j, out)
            elif dp == (1, 1):
                if phi_i[x] >= 2:
                    _check_c1_plus(g, x, i, j, "two-child hypothesis", out)
            elif dp == (0, 2):
                v = down_i[ci]
                if v is not None:
                    w = down_j[v]
                    if w is not None and phi_i[w] == phi_i[v]:
                        _check_c1_plus(g, x, i, j, "flat-ledge hypothesis", out)
    return _sorted(out)


# -- variant axioms ----------------------------------------------------------

def check_variants(g, A):
    """Mirror and long-form variants plus the post-merge delta fact.

    These are consequences of the main battery on true crystals; checking
    them separately exercises the equivalence claims.
    """
    eps, phi = g.tables()
    ids, up, down, climb = g.ids, g.up, g.down, g.climb
    out = []
    for i, j in _b2_oriented_pairs(A):
        for x, (pi, pj) in enumerate(zip(up[i], up[j])):
            if pi is None or pj is None:
                continue
            d = (delta(up, eps, i, j, x), delta(up, eps, j, i, x))
            if d == (1, 1) and eps[i][x] >= 2:
                z1 = climb(x, (i, i, j, j, i))
                z2 = climb(x, (j, i, i, i, j))
                if z1 is None or z2 is None or z1 != z2:
                    out.append(Violation("S8_PRIME", (i, j), ids[x],
                                         f"pentagon words above do not meet ({_vid(g, z1)} vs {_vid(g, z2)})"))
            if d != (1, 2):
                continue
            y = climb(x, (j, i, i))
            y1 = climb(x, (i, j, j, i, i))
            if y is None or y1 is None:
                continue  # reported by check_s6_s9
            t = (delta(down, phi, i, j, y), delta(down, phi, i, j, y1))
            if t == (1, 1):
                wa = climb(x, (i, j, i, j, i))
                wb = climb(x, (j, i, i, i, j))
                if not (wa == wb == y1) or wa is None:
                    out.append(Violation("P_MINUS", (i, j), ids[x],
                                         f"alternating words above miss y' ({_vid(g, wa)}, {_vid(g, wb)} vs {_vid(g, y1)})"))
                elif delta(down, phi, j, i, y1) != 1:
                    out.append(Violation("P_MINUS", (i, j), ids[x], "lowering delta at y' is not 1"))
            elif t == (0, 1):
                words = [
                    (i, j, i, j, i, i, j),
                    (i, j, j, i, i, i, j),
                    (j, i, i, i, j, j, i),
                    (j, i, i, j, i, j, i),
                ]
                ends = [climb(x, w) for w in words]
                if None in ends or len(set(ends)) != 1:
                    out.append(Violation("Q_MINUS", (i, j), ids[x],
                                         f"four depth-7 words disagree ({[_vid(g, e) for e in ends]})"))
                    continue
                z = ends[0]
                if (delta(down, phi, i, j, z), delta(down, phi, j, i, z)) != (1, 2):
                    out.append(Violation("Q_MINUS", (i, j), ids[x], "lowering deltas at the meet are not (1,2)"))
                    continue
                # post-merge raising deltas under the meet
                u = g.descend(z, (j, i, i))
                v = g.descend(z, (i, j, j, i, i))
                du = None if u is None else delta(up, eps, i, j, u)
                dv = None if v is None else delta(up, eps, i, j, v)
                if (du, dv) != (0, 1):
                    out.append(Violation("Q1_MINUS", (i, j), ids[x],
                                         f"post-merge raising deltas ({du},{dv}) != (0,1)"))
    return _sorted(out)


# -- bounded homogeneous local confluence ------------------------------------

def check_confluence(g, s_max=DEFAULT_CONFLUENCE_DEPTH):
    """Search for equal-multiset raising paths joining every two-parent fork.

    A violation is a bounded-search failure at depth s_max, not a proof
    of absence.
    """
    out = []
    colors = g.colors
    for ai, i in enumerate(colors):
        for j in colors[ai + 1:]:
            for x, (pi, pj) in enumerate(zip(g.up[i], g.up[j])):
                if pi is None or pj is None:
                    continue
                if not _meets_within(g, colors, x, i, j, s_max):
                    out.append(
                        Violation(
                            "CONFLUENCE", (i, j), g.ids[x],
                            f"no equal-multiset meet above within {s_max} steps",
                        )
                    )
    return _sorted(out)


def _meets_within(g, colors, x, i, j, s_max):
    def start(c):
        ms = [0] * len(colors)
        ms[colors.index(c)] = 1
        return {(g.up[c][x], tuple(ms))}

    def grow(level):
        nxt = set()
        for v, ms in level:
            for idx, c in enumerate(colors):
                w = g.up[c][v]
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

    tables = g.tables()  # one pair for all three batteries, even when unfrozen
    report.violations.extend(check_s2_s3(g, A, tables=tables))
    report.violations.extend(check_s4_s5(g, A, tables=tables))
    try:
        report.violations.extend(check_s6_s9(g, A, tables=tables))
    except UnsupportedPair as exc:
        report.violations.append(Violation("S1", None, None, f"unsupported pair: {exc}"))

    k0 = bisect_left(g.ids, x0)
    report.phi0 = {i: tables[1][i][k0] for i in g.colors}
    if expected_phi0 is not None:
        expected = dict(expected_phi0)
        if report.phi0 != expected:
            report.violations.append(
                Violation("PHI0", None, x0, f"top statistics {report.phi0} != expected {expected}")
            )
    report.violations = _sorted(report.violations)
    return report
