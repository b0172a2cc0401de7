"""Rank-2 crystal elements in dual PBW coordinates.

An element is a pair of 4-tuples (a, x) of naturals linked by the
transition map, carrying the same vertex in the two reduced-word
coordinate systems (a along s1s2s1s2, x along s2s1s2s1).  Raising acts on
a1 or x1 with a recompute of the other side; lowering likewise.  A run of
r raising steps of one color is one such update by r, and raise_walk takes
a raising word as such runs.  generate is graph.closure of the zero
element: a names an element for color 1 and x for color 2, so a child is
looked up by the side its step changes and the map is called only for a
new vertex, whose other side must name no vertex yet (DuplicateEdge), and
which must satisfy the x4 rule (x4 <= l1, a4 <= l2).  The Cartan matrix
here is always [[2,-2],[-1,2]] with colors 1, 2.

``lam`` arguments take a pairing pair (l1, l2) for a highest-weight
crystal, or None for the unbounded crystal (lowering never guarded).
"""

from functools import partial
from typing import NamedTuple, Optional, Tuple

from . import kernel
from .cartan import b2_gcm
from .errors import HypothesisNotMet, MembershipViolation
from .graph import ColoredGraph, closure

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
    side = _lowered(lam, m, i)
    if side is None:
        return None
    # Elements are built with tuple.__new__ rather than PbwElement(...), whose
    # generated __new__ is one more Python call per step on the hot path.
    if i == 1:
        return tuple.__new__(PbwElement, (side, kernel.r_transfer(side)))
    return tuple.__new__(PbwElement, (kernel.r_inverse(side), side))


def _lowered(lam, m, i):
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


# -- full generation ---------------------------------------------------------

def generate(lam, budget=10**6) -> ColoredGraph:
    """Closure of the zero element under guarded lowering, as a graph.

    graph.closure runs the BFS with a as color 1's key and x as color 2's.
    Every new vertex is asserted to satisfy the x4 rule (x4 <= l1,
    a4 <= l2), so a lowering that leaves the highest-weight crystal
    surfaces as MembershipViolation instead of a silent drift.
    """
    if len(lam) != 2:
        raise ValueError(f"lam has {len(lam)} entries for 2 colors")
    if not all(type(v) is int and v >= 0 for v in lam):  # a bool or a float is refused
        raise ValueError(f"lam {lam!r}: pairings must be nonnegative integers")
    l1, l2 = lam

    def complete(side, i):
        a, x = (side, kernel.r_transfer(side)) if i == 1 else (kernel.r_inverse(side), side)
        m = tuple.__new__(PbwElement, (a, x))
        if x[3] > l1 or a[3] > l2:
            raise MembershipViolation(f"{m} reached by lowering but rejected by the x4 rule")
        return m

    g = closure(ZERO, (1, 2), partial(_lowered, lam), complete, budget)
    g.cartan = b2_gcm()
    return g
