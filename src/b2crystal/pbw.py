"""Rank-2 crystal elements in dual PBW coordinates.

An element is a pair of 4-tuples (a, x) of naturals linked by the
transition map, carrying the same vertex in the two reduced-word
coordinate systems (a along s1s2s1s2, x along s2s1s2s1).  Raising acts on
a1 or x1 with a recompute of the other side; lowering likewise.  The
Cartan matrix here is always [[2,-2],[-1,2]] with colors 1, 2.

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

    Raising is guarded by eps_i > 0.  Lowering is guarded by phi_i > 0
    when lam is a highest weight and unguarded when lam is None.
    """
    # Elements are built with tuple.__new__ rather than PbwElement(...), whose
    # generated __new__ is one more Python call per step on the hot path.
    a, x = m
    if direction == "e":
        if i == 1:
            if a[0] == 0:
                return None
            na = (a[0] - 1, a[1], a[2], a[3])
            return tuple.__new__(PbwElement, (na, kernel.r_transfer(na)))
        if i == 2:
            if x[0] == 0:
                return None
            nx = (x[0] - 1, x[1], x[2], x[3])
            return tuple.__new__(PbwElement, (kernel.r_inverse(nx), nx))
    elif direction == "f":
        if i == 1:
            if lam is not None and a[0] + lam[0] + 2 * (x[0] - x[2] - x[3]) <= 0:
                return None
            na = (a[0] + 1, a[1], a[2], a[3])
            return tuple.__new__(PbwElement, (na, kernel.r_transfer(na)))
        if i == 2:
            if lam is not None and lam[1] - x[0] - x[1] + x[3] <= 0:
                return None
            nx = (x[0] + 1, x[1], x[2], x[3])
            return tuple.__new__(PbwElement, (kernel.r_inverse(nx), nx))
    else:
        raise ValueError(f"direction must be 'e' or 'f', not {direction!r}")
    raise ValueError(f"color must be 1 or 2, not {i!r}")


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

    BFS order (color 1 before color 2, FIFO) fixes vertex ids.  The
    membership predicate is asserted on every vertex so a wrong cutoff
    rule surfaces as MembershipViolation instead of a silent drift.  The
    graph is loaded in bulk after the BFS; two i-arrows into one vertex raise DuplicateEdge.
    """
    l1, l2 = lam
    if l1 < 0 or l2 < 0:
        raise ValueError("highest weight pairings must be nonnegative")
    if budget < 1:  # the top vertex counts
        raise BudgetExceeded(f"vertex budget {budget} exceeded")
    pred = MEMBERSHIP_RULES[membership]
    if not pred(ZERO, lam):
        raise MembershipViolation(f"zero element rejected by rule {membership!r}")
    labels, ids = [ZERO], {ZERO: 0}  # the vertex with id k is labels[k]
    arrows = {1: ([], []), 2: ([], [])}
    for k, m in enumerate(labels):  # labels grows as the BFS queue
        for i, (srcs, dsts) in arrows.items():
            child = kashiwara_step(m, "f", i, lam)
            if child is None:
                continue
            cid = ids.get(child)
            if cid is None:
                if len(ids) >= budget:
                    raise BudgetExceeded(f"vertex budget {budget} exceeded")
                if not pred(child, lam):
                    raise MembershipViolation(
                        f"{child} reached by lowering but rejected by rule {membership!r}"
                    )
                cid = ids[child] = len(labels)
                labels.append(child)
            srcs.append(k)
            dsts.append(cid)
    g = ColoredGraph((1, 2), cartan=b2_gcm())
    g.add_vertices(range(len(labels)), labels)
    for i, (srcs, dsts) in arrows.items():
        if len(set(dsts)) < len(dsts):  # sources cannot repeat: each element steps once per color
            d = next(d for d in dsts if dsts.count(d) > 1)
            raise DuplicateEdge(f"vertex {d} already has an incoming {i}-arrow")
        g.add_arrows(i, srcs, dsts)
    return g
