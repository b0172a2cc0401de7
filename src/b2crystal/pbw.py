"""Rank-2 crystal elements in dual PBW coordinates.

An element is a pair of 4-tuples (a, x) of naturals linked by the
transition map, carrying the same vertex in the two reduced-word
coordinate systems (a along s1s2s1s2, x along s2s1s2s1).  Raising acts on
a1 or x1 with a recompute of the other side; lowering likewise.  A run of
r raising steps of one color is one such update by r, and raise_walk takes
a raising word as such runs.  generate looks a child up by the side its
step changes and calls the map only for a new vertex, whose other side must
name no vertex yet (DuplicateEdge).  The Cartan matrix here is always
[[2,-2],[-1,2]] with colors 1, 2.

``lam`` arguments take a pairing pair (l1, l2) for a highest-weight
crystal, or None for the unbounded crystal (lowering never guarded).
"""

from typing import NamedTuple, Optional, Tuple

from . import kernel
from .cartan import b2_gcm
from .errors import BudgetExceeded, DuplicateEdge, HypothesisNotMet, MembershipViolation
from .graph import ColoredGraph

Nat4 = Tuple[int, int, int, int]


class PbwElement(NamedTuple):
    a: Nat4
    x: Nat4


ZERO = PbwElement((0, 0, 0, 0), (0, 0, 0, 0))


def kashiwara_step(m: PbwElement, direction, i, lam=None) -> Optional[PbwElement]:
    """One raising ('e') or lowering ('f') step of color i, or None.

    Raising is guarded by eps_i > 0, and is a run of length one.  Lowering
    is guarded by phi_i > 0 when lam is a highest weight and unguarded when
    lam is None.
    """
    if direction == "e":
        return raise_walk(m, ((i, 1),))
    if direction != "f":
        raise ValueError(f"direction must be 'e' or 'f', not {direction!r}")
    side = _lowered(m, i, lam)
    if side is None:
        return None
    # Elements are built with tuple.__new__ rather than PbwElement(...), whose
    # generated __new__ is one more Python call per step on the hot path.
    if i == 1:
        return tuple.__new__(PbwElement, (side, kernel.r_transfer(side)))
    return tuple.__new__(PbwElement, (kernel.r_inverse(side), side))


def _lowered(m, i, lam):
    """The side f_i changes, with its first coordinate one up (a for color
    1, x for color 2), or None where lam is given and phi_i = 0."""
    a, x = m
    if i == 1:
        if lam is not None and a[0] + lam[0] + 2 * (x[0] - x[2] - x[3]) <= 0:
            return None
        return (a[0] + 1, a[1], a[2], a[3])
    if i == 2:
        if lam is not None and lam[1] - x[0] - x[1] + x[3] <= 0:
            return None
        return (x[0] + 1, x[1], x[2], x[3])
    raise ValueError(f"color must be 1 or 2, not {i!r}")


def raise_walk(m: PbwElement, runs) -> Optional[PbwElement]:
    """Apply raising runs (color i, length r), first run first: e_i^r for
    each; None where a run finds eps_i < r.

    Along the reduced word that starts with s_i, e_i lowers the first
    coordinate of that side by one, and its guard reads that coordinate
    only; the other side is recomputed from it.  So a run is one update and
    one transition-map call, and gives the element its last single step
    gives, whatever the map.  A negative coordinate, which only a broken map
    makes, never reaches 0 on the way down and steps on, as single steps do.
    """
    a, x = m
    for i, r in runs:
        if i == 1:
            if 0 <= a[0] < r:
                return None
            a = (a[0] - r, a[1], a[2], a[3])
            x = kernel.r_transfer(a)
        elif i == 2:
            if 0 <= x[0] < r:
                return None
            x = (x[0] - r, x[1], x[2], x[3])
            a = kernel.r_inverse(x)
        else:
            raise ValueError(f"color must be 1 or 2, not {i!r}")
    return tuple.__new__(PbwElement, (a, x))


def elem_walk(m, ops, lam=None):
    """Apply (direction, color) steps, first entry first; None if any fails."""
    for direction, i in ops:
        m = kashiwara_step(m, direction, i, lam)
        if m is None:
            return None
    return m


# eps_j and phi_j of an element, phi_j less its lam term, which cancels in a difference
_STATS = {("eps", 1): lambda m: m.a[0], ("eps", 2): lambda m: m.x[0],
          ("phi", 1): lambda m: m.a[0] + 2 * (m.x[0] - m.x[2] - m.x[3]),
          ("phi", 2): lambda m: m.x[3] - m.x[0] - m.x[1]}


def elem_delta(m, direction, stat, i, j, lam=None):
    """Change of the j-statistic across one i-step, by element navigation.

    Differences of eps/phi do not depend on lam, but the step itself is
    guarded by it; None-steps raise.
    """
    w = kashiwara_step(m, direction, i, lam)
    if w is None:
        raise HypothesisNotMet(f"{direction}_{i} undefined at {m}")
    f = _STATS[stat, j]
    return f(w) - f(m)


# -- highest-weight membership ---------------------------------------------

def _member_tail(m, lam):
    # starred statistics against the pairings: x4 <= l1, a4 <= l2
    return m.x[3] <= lam[0] and m.a[3] <= lam[1]


def _member_third(m, lam):
    # the other cutoff candidate: x3 <= l1, a3 <= l2
    return m.x[2] <= lam[0] and m.a[2] <= lam[1]


MEMBERSHIP_RULES = {"x4": _member_tail, "x3": _member_third}

# Pinned empirically: with the "x4" rule every vertex reached by guarded
# lowering satisfies the predicate and the vertex counts match the Weyl
# dimension oracle across the test grid; the "x3" rule fails already for
# lam=(1,0).  See tests/test_pbw.py::test_membership_rule_pinned.
DEFAULT_MEMBERSHIP = "x4"


# -- full generation ---------------------------------------------------------

def generate(lam, membership=DEFAULT_MEMBERSHIP, budget=10**6) -> ColoredGraph:
    """Closure of the zero element under guarded lowering, as a graph.

    BFS order (color 1 before color 2, FIFO) fixes vertex ids.  f_1 changes
    a and f_2 changes x, so the side a step changes names its child: the
    vertices found so far are indexed by a and by x, a 1-child is looked up
    by a + e1 and a 2-child by x + e1, and the transition map is called only
    on a miss, once per new vertex, for its other side.  If that side
    already names a vertex, the map is not injective and DuplicateEdge is
    raised at once; under the real map this never happens, and no two
    arrows of one color can reach one vertex.  The membership predicate is
    asserted on every new vertex so a wrong cutoff rule surfaces as
    MembershipViolation instead of a silent drift.  The graph is loaded in
    bulk after the BFS.
    """
    if len(lam) != 2:
        raise ValueError(f"lam has {len(lam)} entries for 2 colors")
    if not all(type(v) is int and v >= 0 for v in lam):  # a bool or a float is refused
        raise ValueError(f"lam {lam!r}: pairings must be nonnegative integers")
    if budget < 1:  # the top vertex counts
        raise BudgetExceeded(f"vertex budget {budget} exceeded")
    pred = MEMBERSHIP_RULES[membership]
    if not pred(ZERO, lam):
        raise MembershipViolation(f"zero element rejected by rule {membership!r}")
    labels, by_a, by_x = [ZERO], {ZERO.a: 0}, {ZERO.x: 0}  # the vertex with id k is labels[k]
    src1, dst1, src2, dst2 = [], [], [], []

    def new(k, i, child):
        # child is f_i of vertex k, and its side f_i leaves was just computed by the map
        j = by_x.get(child.x) if i == 1 else by_a.get(child.a)
        if j is not None:
            raise DuplicateEdge(f"the {i}-arrow from vertex {k} reaches {child}, whose "
                                f"{'xa'[i - 1]} side names vertex {j}: the transition map is not injective")
        n = len(labels)
        if n >= budget:
            raise BudgetExceeded(f"vertex budget {budget} exceeded")
        if not pred(child, lam):
            raise MembershipViolation(f"{child} reached by lowering but rejected by rule {membership!r}")
        by_a[child[0]] = by_x[child[1]] = n
        labels.append(child)
        return n

    for k, m in enumerate(labels):  # labels grows as the BFS queue
        a = _lowered(m, 1, lam)
        if a is not None:
            c = by_a.get(a)
            if c is None:
                c = new(k, 1, tuple.__new__(PbwElement, (a, kernel.r_transfer(a))))
            src1.append(k)
            dst1.append(c)
        x = _lowered(m, 2, lam)
        if x is not None:
            c = by_x.get(x)
            if c is None:
                c = new(k, 2, tuple.__new__(PbwElement, (kernel.r_inverse(x), x)))
            src2.append(k)
            dst2.append(c)
    del by_a, by_x  # the indexes go before the graph is built, to keep the peak down
    g = ColoredGraph((1, 2), cartan=b2_gcm())
    g.add_vertices(range(len(labels)), labels)
    g.add_arrows(1, src1, dst1)
    g.add_arrows(2, src2, dst2)
    return g
