"""Local axiom checker for colored directed graphs.

Implements the classical rank-2 local axioms (string-difference equalities
and bounds, the square and octagon confluences) together with the extra
doubly-laced battery: the two depth-7 diamond axioms, the two pentagon
merge axioms, and their sub-conditions.  Everything is evaluated on the
literal graph; phi/eps are always string lengths, never trusted labels,
so the checker is meaningful on arbitrary graphs.  The batteries read the
graph's per-color position lists and its string tables, and report
witnesses as vertex ids.  Each side (raising, lowering) of each color pair
is read in one pass over positions (S2/S3's on the raising side), grouping
them by their two deltas; the graph keeps it for every rule on the pair.

Every rule is a row of one table, decided on a grouping by scan(): the
lowering-side rules (square, octagon, the pentagon's two hypotheses, the
diamond) are RULES, which the synthesizer (builder) merges by, and S6 is
the diamond read through the raising side.  The checker asserts them all.

Violation tags: S1 (goodness, with the G-rule in the detail), S2, S3,
A_MINUS/B_MINUS (under S4), A_PLUS/B_PLUS (under S5), S6..S9 reported via
their innermost sub-condition D_MINUS/D_PLUS/C1_PLUS/P1_MINUS/Q1_MINUS/
R_MINUS, plus MAX (maximum element count) and WT (weight grading
conflict); a report's max_element and phi0 hold the graph's summit() (the
maximum element as an id) for callers to compare.
"""

from collections import defaultdict, namedtuple

from .cartan import B2, classify_pair
from .errors import InconsistentWeight, UnsupportedPair


class Violation(namedtuple("Violation", "axiom pair witness detail")):
    """axiom: the tag; pair: a color pair or None; witness: an id or None."""
    __slots__ = ()

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
# x, y, z, w are positions, and side.ids / _vid turn them back into vertex
# ids for the reports.  Each scan tests its hypotheses on the flat lists; the
# words are walked only where one fires, one list pass per letter.

def _vid(side, k):
    """The vertex id at position k (None stays None)."""
    return None if k is None else side.ids[k]


# -- S2 / S3 -----------------------------------------------------------------

def check_s2_s3(g, A):
    """String-difference equality and sign bounds across every raising
    step, for j != i (at j = i the equality reads 2 = a_ii, which GCM
    already requires), in one pass per color pair {i, j}, which keeps the
    pair's raising grouping: each position with both steps by its eps deltas."""
    eps, phi = g.tables()
    out = []
    for ai, i in enumerate(g.colors):
        for j in g.colors[ai + 1:]:
            a_ji, a_ij = A.a(j, i), A.a(i, j)
            eps_i, phi_i, eps_j, phi_j = eps[i], phi[i], eps[j], phi[j]
            groups = defaultdict(list)
            for x, (wi, wj) in enumerate(zip(g.up[i], g.up[j])):
                if wi is not None:
                    dphi, d_ij = phi_j[wi] - phi_j[x], eps_j[wi] - eps_j[x]
                    if dphi - d_ij != a_ji or dphi > 0 or d_ij < 0:
                        _s2_s3(out, (i, j), g.ids[x], dphi, d_ij, a_ji)
                if wj is not None:
                    dphi, d_ji = phi_i[wj] - phi_i[x], eps_i[wj] - eps_i[x]
                    if dphi - d_ji != a_ij or dphi > 0 or d_ji < 0:
                        _s2_s3(out, (j, i), g.ids[x], dphi, d_ji, a_ij)
                    if wi is not None:
                        groups[d_ij, d_ji].append(x)
            g.keep(("grouping", "MINUS", i, j), lambda g: groups)
    return _sorted(out)


def _s2_s3(out, pair, v, dphi, deps, a):
    """Report the S2 and S3 violations at vertex v across its pair[0]-step."""
    if dphi - deps != a:
        out.append(Violation("S2", pair, v, f"phi/eps difference {dphi}-{deps} != a[{pair[1]},{pair[0]}]={a}"))
    if not (dphi <= 0 <= deps):
        out.append(Violation("S3", pair, v, f"need {dphi} <= 0 <= {deps}"))


# -- the lowering-side rules -------------------------------------------------
#
# Each rule: at a vertex x whose deltas (ij, ji) across its i- and j-steps
# match the hypothesis, the two words over i and j applied from x meet, and
# the deltas (ij, ji) at the meet, read on the other side, match the closing
# values.  The checker asserts the rules (S5, S7, S8/S9, and S4 and S6 for
# the square, octagon and diamond read through the raising side); the
# synthesizer merges the last-step candidates of the two words.

ORDERED, UNORDERED, ORIENTED = "ordered", "unordered", "B2-oriented"


# A direction through the graph, named for reports, with the opposite steps
# and statistic that closing deltas read, and the vertex ids that witnesses
# are reported by.
Side = namedtuple("Side", "sign where other steps stat back back_stat ids")


def lowering(g, eps, phi):
    return Side("PLUS", "below", "raising", g.down, phi, g.up, eps, g.ids)


def raising(g, eps, phi):
    return Side("MINUS", "above", "lowering", g.up, eps, g.down, phi, g.ids)


def walk_all(steps, xs, word):
    """The end of the walk along word from each position of xs (None where
    a step is undefined), one list pass per letter."""
    for c in word:
        step = steps[c]
        xs = [None if x is None else step[x] for x in xs]
    return xs


class Rule(namedtuple("Rule", "tag name pairs hypothesis words apart closing unclosed guard",
                      defaults=(None, "", None))):
    """tag: reported with _PLUS or _MINUS; name: used in synthesis errors;
    pairs: the color pairs it runs on; hypothesis / closing: the deltas
    (ij, ji) at x / at the meet, None where free (a closing of None tests
    nothing); words(i, j): the two words; guard(side, xs, i, j): a further
    test with a verdict for each x, True (assert the words), False (nothing
    to assert) or a defect (tag, detail) reported under its own tag; apart /
    unclosed: the details when the words do not meet / the closing deltas
    are off."""
    __slots__ = ()


def _two_child(side, xs, i, j):
    stat_i = side.stat[i]
    return [stat_i[x] >= 2 for x in xs]


def _flat_ledge(side, xs, i, j):
    # the j-step two i-steps from x leaves the i-statistic flat (the first
    # i-step is there by the hypothesis)
    step_i, step_j, stat_i = side.steps[i], side.steps[j], side.stat[i]
    ledges = [step_i[step_i[x]] for x in xs]
    return [v is not None and step_j[v] is not None and stat_i[step_j[v]] == stat_i[v] for v in ledges]


def _branch_points(side, xs, i, j):
    """For each x of xs, the diamond's two branch points from x and their
    deltas (ij), read on the other side; or the detail of what is missing."""
    back, stat = side.back[i], side.back_stat[j]
    out = []
    # back[y] and back[y1] exist: each walk ends in an i-step, whose arrow defines the step back
    for y, y1 in zip(walk_all(side.steps, xs, (j, i, i)), walk_all(side.steps, xs, (i, j, j, i, i))):
        if y is None:
            out.append(f"first branch point {side.where} is missing")
        elif y1 is None:
            out.append(f"second branch point {side.where} is missing")
        else:
            out.append((y, y1, (stat[back[y]] - stat[y], stat[back[y1]] - stat[y1])))
    return out


def _diamond_fork(side, xs, i, j):
    # the diamond closes only where the branch-point deltas are (0,1)
    return [("D", b) if isinstance(b, str) else b[2] == (0, 1) for b in _branch_points(side, xs, i, j)]


def _raised_fork(side, xs, i, j):
    # the S6 guard: at x, the lowering deltas t of the diamond's branch
    # points y, y' above decide what must hold
    return [_raised_verdict(side, b, i, j) for b in _branch_points(side, xs, i, j)]


def _raised_verdict(side, found, i, j):
    # under (0,1) (Q1) the words meet and close; under (1,1) (P1) or (0,0)
    # (R) the j-child of y' is the i-parent of y, and the lowering delta at
    # y' is 1 or 2; under (0,0) it is 0 two i-steps under y'
    if isinstance(found, str):
        return "D", found
    y, y1, t = found
    if t == (1, 0):
        return "D", "branch deltas (1,0) are forbidden"
    if t not in ((1, 1), (0, 0)):
        return t == (0, 1)
    down, phi = side.back, side.back_stat
    tag, want = ("P1", 1) if t == (1, 1) else ("R", 2)
    fy1, ey = down[j][y1], side.steps[i][y]
    if fy1 is None or ey is None or fy1 != ey:
        return tag, f"expected j-child of y' = i-parent of y ({_vid(side, fy1)} vs {_vid(side, ey)})"
    if phi[i][fy1] - phi[i][y1] != want:
        return tag, f"lowering delta at y' is {phi[i][fy1] - phi[i][y1]}, not {want}"
    if t == (0, 0):
        (w,) = walk_all(down, [y1], (i, i))
        d = None if w is None or down[j][w] is None else phi[i][down[j][w]] - phi[i][w]
        if d != 0:
            return tag, f"delta two i-steps under y' is {d}, not 0"
    return False


SQUARE = Rule("A", "square", ORDERED, (0, None), lambda i, j: ((i, j), (j, i)),
              "square {where} does not close ({} vs {})",
              closing=(None, 0), unclosed="closing {other} delta is {1}, not 0")
OCTAGON = Rule("B", "length-4 confluence", UNORDERED, (1, 1), lambda i, j: ((i, j, j, i), (j, i, i, j)),
               "length-4 words {where} do not meet ({} vs {})",
               closing=(1, 1), unclosed="closing {other} deltas ({0}, {1}) != (1,1)")
PENTAGON = Rule("C1", "pentagon", ORIENTED, (1, 1), lambda i, j: ((i, i, j, j, i), (j, i, i, i, j)),
                "via two-child hypothesis: pentagon words {where} do not meet ({} vs {})",
                guard=_two_child)
LEDGE_PENTAGON = PENTAGON._replace(
    hypothesis=(0, 2), guard=_flat_ledge,
    apart="via flat-ledge hypothesis: pentagon words {where} do not meet ({} vs {})")
DIAMOND = Rule("D", "diamond", ORIENTED, (1, 2), lambda i, j: ((i, j, j, i, i, i, j), (j, i, i, i, j, j, i)),
               "depth-7 words {where} do not meet ({} vs {})", guard=_diamond_fork)
# S6 reads the diamond through the raising side: where its hypothesis holds
# the branch-point deltas decide what must hold, and under (0,1) (Q1) the
# words meet and close on the lowering deltas (1,2)
RAISED_DIAMOND = DIAMOND._replace(tag="Q1", guard=_raised_fork, closing=(1, 2),
                                  unclosed="{other} deltas at the meet are ({0}, {1}), not (1,2)")
TWO_SIDED = (SQUARE, OCTAGON)  # the checker reads these through both sides
DOUBLY_LACED = (PENTAGON, LEDGE_PENTAGON, DIAMOND)
RULES = TWO_SIDED + DOUBLY_LACED


def rule_pairs(A, i, j, rules=RULES):
    """(rule, oriented pair) for each rule the color pair {i, j} runs: an
    ordered rule on (i, j) and (j, i), an unordered one on (i, j), a
    B2-oriented one on the orientation that classifies as B2."""
    out = []
    for rule in rules:
        pairs = [(i, j), (j, i)]
        if rule.pairs == UNORDERED:
            pairs = pairs[:1]
        elif rule.pairs == ORIENTED:
            pairs = [p for p in pairs if classify_pair(A, *p) == B2]
        out.extend((rule, p) for p in pairs)
    return out


def grouping(side, xs, i, j):
    """The positions of the range xs with both an i- and a j-step on the
    side, grouped by their deltas (ij, ji): the change of the j-statistic
    across the i-step and of the i-statistic across the j-step."""
    steps_i, steps_j, stat_i, stat_j = side.steps[i], side.steps[j], side.stat[i], side.stat[j]
    groups = defaultdict(list)
    for x, si, sj in zip(xs, steps_i[xs.start:xs.stop], steps_j[xs.start:xs.stop]):
        if si is not None and sj is not None:
            groups[stat_j[si] - stat_j[x], stat_i[sj] - stat_i[x]].append(x)
    return groups


def scan(side, groups, i, j, entries):
    """(rule, pair, fired, defects) for each (rule, oriented pair) of
    entries on the color pair {i, j}: the positions of the grouping (side,
    i, j) where the hypothesis holds, decided once per delta pair, and
    (x, (tag, detail)) where the guard found a defect instead.  An entry on
    (j, i) reads the keys swapped."""
    for rule, pair in entries:
        h_ij, h_ji = rule.hypothesis if pair[0] == i else rule.hypothesis[::-1]
        fired = [x for (d_ij, d_ji), group in groups.items()
                 if h_ij in (None, d_ij) and h_ji in (None, d_ji) for x in group]
        defects = []
        if rule.guard is not None:
            verdicts = rule.guard(side, fired, *pair)
            defects = [(x, v) for x, v in zip(fired, verdicts) if isinstance(v, tuple)]
            fired = [x for x, v in zip(fired, verdicts) if v is True]
        yield rule, pair, fired, defects


def _assert(side, hits, out):
    """Report each guard defect under its tag, and each fired entry whose
    words do not meet or whose closing deltas are off."""
    ids = side.ids
    for rule, (i, j), fired, defects in hits:
        out.extend(Violation(f"{t}_{side.sign}", (i, j), ids[x], detail) for x, (t, detail) in defects)
        if not fired:
            continue
        tag = f"{rule.tag}_{side.sign}"
        w1, w2 = rule.words(i, j)
        closing = rule.closing
        # the closing deltas (ij, ji) at the meet z, read on the other side
        back_i, back_j, stat_i, stat_j = side.back[i], side.back[j], side.back_stat[i], side.back_stat[j]
        for x, z1, z2 in zip(fired, walk_all(side.steps, fired, w1), walk_all(side.steps, fired, w2)):
            if z1 is None or z1 != z2:
                out.append(Violation(tag, (i, j), ids[x],
                                     rule.apart.format(_vid(side, z1), _vid(side, z2), where=side.where)))
            elif closing is not None:
                u, v = back_i[z1], back_j[z1]
                d = (None if closing[0] is None or u is None else stat_j[u] - stat_j[z1],
                     None if closing[1] is None or v is None else stat_i[v] - stat_i[z1])
                if d != closing:
                    out.append(Violation(tag, (i, j), ids[x], rule.unclosed.format(*d, other=side.other)))


# -- S4 .. S9 ----------------------------------------------------------------

def _battery(g, A, raised, lowered):
    """Assert the rules of raised through the raising side and those of
    lowered through the lowering side, on every color pair {i, j} (i first
    in g's color order) by its grouping, which g keeps per side."""
    eps, phi = g.tables()
    sides = ((raising(g, eps, phi), raised), (lowering(g, eps, phi), lowered))
    out = []
    colors = g.colors
    for ai, i in enumerate(colors):
        for j in colors[ai + 1:]:
            for side, rules in sides:
                groups = g.keep(("grouping", side.sign, i, j), lambda g: grouping(side, range(len(g)), i, j))
                _assert(side, scan(side, groups, i, j, rule_pairs(A, i, j, rules)), out)
    return _sorted(out)


def check_s4_s5(g, A):
    """S4 / S5: square and length-4 confluences above and below every
    two-parent / two-child vertex, for every color pair."""
    return _battery(g, A, TWO_SIDED, TWO_SIDED)


def check_s6_s9(g, A):
    """S6 .. S9: the doubly-laced battery, per oriented pair of that type."""
    return _battery(g, A, (RAISED_DIAMOND,), DOUBLY_LACED)


# -- the aggregate check -----------------------------------------------------

class CheckReport:
    def __init__(self, n_vertices):
        self.violations = []
        self.max_element = None
        self.phi0 = None
        self.n_vertices = n_vertices

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


def check_all(g, A):
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

    top = g.summit()
    if top is None:
        report.violations.append(Violation("MAX", None, None, "found 0 maximum elements, need exactly 1"))
        return report
    k0, report.phi0 = top
    report.max_element = g.ids[k0]

    try:
        g.weight_codes()
    except InconsistentWeight as exc:
        report.violations.append(
            Violation("WT", None, exc.vertex, f"conflicting multisets {exc.first} vs {exc.second}")
        )

    report.violations.extend(check_s2_s3(g, A))
    report.violations.extend(check_s4_s5(g, A))
    try:
        report.violations.extend(check_s6_s9(g, A))
    except UnsupportedPair as exc:
        report.violations.append(Violation("S1", None, None, f"unsupported pair: {exc}"))
    report.violations = _sorted(report.violations)
    return report
