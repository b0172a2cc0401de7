"""Hand-built fixture graphs, mutation helpers, the bounded confluence
search, the candidate membership rules, and the reference document builder,
graph passes, axiom checker, synthesis merges and verification scans shared
by the tests."""

import random
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product
from math import lcm
from typing import NamedTuple, Tuple

from b2crystal import axioms, builder, kernel, pbw
from b2crystal.oracle import (
    FORKS,
    VerificationReport,
    closed_r_a3_ge_a1,
    closed_r_a3_le_a1,
    closed_rinv_x3_ge_x1,
    closed_rinv_x3_le_x1,
    corollary_delta_1_2,
    corollary_delta_2_1,
    positive_roots,
)
from b2crystal.axioms import CheckReport, Violation
from b2crystal.cartan import B2, GCM, b2_gcm, b3_gcm, classify_all_pairs, classify_pair
from b2crystal.errors import (
    HypothesisNotMet,
    InconsistentWeight,
    MembershipViolation,
    NonTerminating,
    SynthesisInconsistency,
    UnsupportedPair,
)
from b2crystal.graph import ColoredGraph, GraphViolation, closure, decode_weights, string_tables
from b2crystal.pbw import PbwElement

# The rank-3 symplectic matrix: the other orientation of cartan.B3_MATRIX_ROWS
# (swap -1/-2 in the lower right block), where (1,0,0) gives 6 vertices.
C3_MATRIX_ROWS = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]

# B2 [0,4]^2, B3 and C3 at three weights, and A3 (1,1,1): some of their
# layers have merge classes of three members
SYNTHESIS_CASES = [(b2_gcm(), lam) for lam in product(range(5), repeat=2)]
SYNTHESIS_CASES += [(M, lam) for M in (b3_gcm(), GCM(C3_MATRIX_ROWS)) for lam in ((1, 0, 0), (0, 0, 1), (1, 1, 1))]
SYNTHESIS_CASES.append((GCM([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), (1, 1, 1)))

# Coordinates at and past the limits of 64-bit integers (2**63 + 2**63 is
# 2**64), where fixed-width arithmetic would wrap around or overflow.
LARGE_BOX = list(product((0, 1, 2**62, 2**62 + 1, 2**63), repeat=4))


def build_graph(colors, ids, edges=(), labels=None, cartan=None):
    """Graph on the vertex ids (an int n meaning 0..n-1, or ids in
    any order, labels[k] labelling ids[k]) with the (src, dst, color)
    arrows, loaded through add_vertices in increasing id order and one
    add_arrows call per color, arrows in the given order."""
    ids = list(range(ids)) if isinstance(ids, int) else list(ids)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    g = ColoredGraph(colors, cartan=cartan)
    g.add_vertices([ids[k] for k in order], None if labels is None else [labels[k] for k in order])
    edges = list(edges)
    for i in dict.fromkeys(c for _, _, c in edges):
        mine = [(s, d) for s, d, c in edges if c == i]
        g.add_arrows(i, [position(g, s) for s, _ in mine], [position(g, d) for _, d in mine])
    return g


def position(g, v):
    """The position of vertex v in g, None if v is not a vertex."""
    k = bisect_left(g.ids, v)
    return k if k < len(g.ids) and g.ids[k] == v else None


def f_step(g, i, v):
    """Id of the target of the i-arrow out of vertex v, or None."""
    k = position(g, v)
    w = None if k is None else g.down[i][k]
    return None if w is None else g.ids[w]


def e_step(g, i, v):
    """Id of the source of the i-arrow into vertex v, or None."""
    k = position(g, v)
    w = None if k is None else g.up[i][k]
    return None if w is None else g.ids[w]


def recorded_edges(g):
    """Every recorded arrow as (src, dst, color), duplicates included, in
    the order recorded per color."""
    return [(g.ids[s], g.ids[d], i) for i, (srcs, dsts) in g.arrows.items() for s, d in zip(srcs, dsts)]


def a2_crystal_2_0():
    """Six-element simply-laced crystal with top statistics (2,0).

    Shape: a 1-string of length two into a square that closes, then a
    trailing 2-arrow; exercises the commuting-square axiom.
    """
    return build_graph((1, 2), 6, [(0, 1, 1), (1, 2, 2), (1, 3, 1), (2, 4, 1), (3, 4, 2), (4, 5, 2)])


def a2_crystal_1_1():
    """Eight-element simply-laced crystal with top statistics (1,1);
    its bottom vertex exercises the length-4 confluence."""
    return build_graph((1, 2), 8, [(0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 4, 1),
                                   (3, 5, 2), (4, 6, 1), (5, 7, 1), (6, 7, 2)])


def bad_confluence_graph():
    """Five vertices, two paths to the sink with multisets {1,2} vs {2,2,1}.

    Good, has a maximum element, but the weight grading is inconsistent
    and no equal-multiset meet exists above the sink.
    """
    return build_graph((1, 2), 5, [
        (0, 1, 1),  # x0 -> a
        (1, 2, 2),  # a  -> z
        (0, 3, 2),  # x0 -> b
        (3, 4, 2),  # b  -> c
        (4, 2, 1),  # c  -> z
    ])


DEFAULT_CONFLUENCE_DEPTH = 7


def check_confluence(g, s_max=DEFAULT_CONFLUENCE_DEPTH):
    """Search for equal-multiset raising paths joining every two-parent fork
    (acceptance criterion 9: the axioms imply this bounded homogeneous local
    confluence, so the tests run it beside them).

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
    return sorted(out, key=Violation.sort_key)


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


def copy_mutable(g, skip_edge=None, extra_edges=()):
    """Copy of g, optionally leaving out every copy of one
    (src, dst, color) arrow and recording extra_edges after the rest; an
    endpoint of extra_edges that g lacks becomes a new unlabelled vertex."""
    edges = [e for e in recorded_edges(g) if e != skip_edge] + list(extra_edges)
    new = sorted({v for s, d, _ in extra_edges for v in (s, d)} - set(g.ids))
    return build_graph(g.colors, g.ids + new, edges, labels=g.labels + [None] * len(new), cartan=g.cartan)


def deletion_mutants(g):
    """Every graph obtained from g by dropping one arrow."""
    for edge in g.edges():
        yield edge, copy_mutable(g, skip_edge=edge)


def redirect_mutants(g):
    """Every graph obtained by rerouting one arrow to a fresh vertex."""
    for edge in g.edges():
        s, d, c = edge
        yield edge, copy_mutable(g, skip_edge=edge, extra_edges=[(s, g.ids[-1] + 1, c)])


def duplicate_mutants(g):
    """Every graph obtained by recording one arrow twice (G1 and G2)."""
    for edge in g.edges():
        yield edge, copy_mutable(g, extra_edges=[edge])


def recolor_mutants(g):
    """Every graph obtained by giving one arrow another of g's colors."""
    for edge in g.edges():
        s, d, c = edge
        for other in g.colors:
            if other != c:
                yield edge, copy_mutable(g, skip_edge=edge, extra_edges=[(s, d, other)])


def renaming(g, seed):
    """Vertex v -> 1000 + 7*pi(v), pi a seeded permutation, so that no new
    id equals its position in sorted order."""
    ids = g.vertices()
    perm = random.Random(seed).sample(range(len(ids)), len(ids))
    return {v: 1000 + 7 * k for v, k in zip(ids, perm)}


def relabelled(g, seed):
    """Copy of g with each vertex v renamed renaming(g, seed)[v]."""
    name = renaming(g, seed)
    return build_graph(g.colors, map(name.get, g.ids), [(name[s], name[d], c) for s, d, c in g.edges()],
                       labels=g.labels, cartan=g.cartan)


def reference_load(doc, cartan=None):
    """A document's graph built without cli.doc_to_graph: its vertices
    sorted by id, then each arrow recorded on its own, in document order."""
    g = build_graph(doc["index_set"], [v["id"] for v in doc["vertices"]], cartan=cartan)
    for e in doc["edges"]:
        g.add_arrows(e["color"], [position(g, e["from"])], [position(g, e["to"])])
    return g


def reference_graph_to_doc(g, stats=False):
    """A graph's document as a dict tree, the way the CLI built it before
    `gen` formatted its text directly: json.dumps of this tree with compact
    separators is the reference for cli.graph_to_json.  With stats, also
    each vertex's wt/eps/phi, read from the graph's weight_codes and its
    string tables."""
    vertices = [{"id": v} for v in g.ids]
    for entry, label in zip(vertices, g.labels):
        if isinstance(label, PbwElement):
            entry["a"], entry["x"] = list(label.a), list(label.x)
    maxes = g.maximum_elements()
    if stats:
        codes, (eps, phi) = g.weight_codes(), g.tables()
        order = sorted(g.colors)
        keys = list(map(str, order))
        wts = {c: {str(i): wt[i] for i in order if i in wt}
               for c, wt in decode_weights(codes, len(g) + 1, g.colors).items()}
        for entry, c, e, p in zip(vertices, codes, zip(*map(eps.get, order)), zip(*map(phi.get, order))):
            entry["wt"], entry["eps"], entry["phi"] = dict(wts[c]), dict(zip(keys, e)), dict(zip(keys, p))
    doc = {
        "index_set": list(g.colors),
        "cartan": [list(r) for r in g.cartan.rows] if g.cartan else None,
        "vertices": vertices,
        "edges": [{"from": s, "to": d, "color": c} for s, d, c in g.edges()],
    }
    if maxes:
        doc["max"] = maxes[0]
    return doc


# -- reference graph passes ------------------------------------------------------
#
# The goodness, maximum-element, weight-grading and string-table passes as
# they were before the graph stored positions: every map is keyed by vertex
# id and every step goes through the id-level e_step / f_step above.  The
# differential tests require graph.py's list passes to return exactly what
# these do.

def reference_is_good(g):
    """All G1/G2/G3 violations (empty list means the graph is good)."""
    violations = []
    for i in g.colors:
        out_deg = {}
        in_deg = {}
        for s, d, c in g.edges():
            if c != i:
                continue
            out_deg[s] = out_deg.get(s, 0) + 1
            in_deg[d] = in_deg.get(d, 0) + 1
        for v in sorted(out_deg):
            if out_deg[v] > 1:
                violations.append(
                    GraphViolation("G1", v, f"{out_deg[v]} outgoing {i}-arrows")
                )
        for v in sorted(in_deg):
            if in_deg[v] > 1:
                violations.append(
                    GraphViolation("G2", v, f"{in_deg[v]} incoming {i}-arrows")
                )
        # cycle detection along the navigation successor map
        state = {}  # 0 visiting, 1 done
        for v in g.vertices():
            if v in state:
                continue
            path = []
            u = v
            while u is not None and u not in state:
                state[u] = 0
                path.append(u)
                u = f_step(g, i, u)
            if u is not None and state.get(u) == 0:
                violations.append(
                    GraphViolation("G3", u, f"monochromatic {i}-cycle")
                )
            for p in path:
                state[p] = 1
    return violations


def reference_maximum_elements(g):
    """No vertex reaches another source, so only a sole source can qualify."""
    sources = [v for v in g.vertices() if all(e_step(g, i, v) is None for i in g.colors)]
    if len(sources) != 1:
        return []
    (v,) = sources
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for i in g.colors:
            w = f_step(g, i, u)
            if w is not None and w not in seen:
                seen.add(w)
                queue.append(w)
    return [v] if len(seen) == len(g) else []


def pairing_of_root_count(A, count):
    """Pairings of a sum of simple roots: component j is sum_i a_ji * count[i]."""
    for c in count:
        if c not in A.colors:
            raise ValueError(f"color {c} not in index set")
    return {j: sum(A.a(j, i) * m for i, m in count.items()) for j in A.colors}


def add_counts(c1, c2):
    """Componentwise sum of two color multisets."""
    out = dict(c1)
    for k, v in c2.items():
        out[k] = out.get(k, 0) + v
    return out


def reference_wt_assign(g, x0):
    """BFS weight/distance grading from a maximum element, as
    {vertex: (color multiset dict, dist)}; InconsistentWeight on a conflict."""
    if x0 not in g.vertices():
        raise ValueError(f"no vertex {x0}")
    wt = {x0: {}}
    dist = {x0: 0}
    frontier = [x0]
    while frontier:
        nxt = []
        for u in frontier:
            for i in g.colors:
                v = f_step(g, i, u)
                if v is None:
                    continue
                cand = add_counts(wt[u], {i: 1})
                if v in wt:
                    if wt[v] != cand:
                        raise InconsistentWeight(v, wt[v], cand)
                else:
                    wt[v] = cand
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    if len(wt) != len(g):
        missing = sorted(set(g.vertices()) - set(wt))[0]
        raise ValueError(f"{x0} is not a maximum element: {missing} unreachable")
    return {v: (wt[v], dist[v]) for v in g.vertices()}


def reference_string_tables(g):
    """eps/phi of every vertex for every color, keyed by vertex id.

    Requires a good graph (strings decompose into disjoint chains).
    """
    eps = {i: {} for i in g.colors}
    phi = {i: {} for i in g.colors}
    for i in g.colors:
        for v in g.vertices():
            if e_step(g, i, v) is not None:
                continue
            chain = [v]
            while True:
                nxt = f_step(g, i, chain[-1])
                if nxt is None:
                    break
                chain.append(nxt)
                if len(chain) > len(g) + 1:
                    raise NonTerminating(f"monochromatic {i}-cycle through {v}")
            top = len(chain) - 1
            for k, u in enumerate(chain):
                eps[i][u] = k
                phi[i][u] = top - k
    for i in g.colors:
        if len(eps[i]) != len(g):
            raise NonTerminating(f"some {i}-string has no head (cycle)")
    return eps, phi


# -- reference axiom checker ---------------------------------------------------
#
# The per-vertex batteries as they were before the checker scanned dense
# positions: every statistic is a dict lookup by vertex id, and every
# hypothesis is evaluated through _Ctx.  The differential tests require
# axioms.check_all and each battery to report exactly what these do.

class _Ctx:
    """Navigation by vertex id plus the string statistics of a good graph."""

    def __init__(self, g):
        self.g = g
        self.e, self.f = partial(e_step, g), partial(f_step, g)
        self._eps, self._phi = reference_string_tables(g)

    def climb(self, v, colors):
        for c in colors:
            v = self.e(c, v)
            if v is None:
                return None
        return v

    def descend(self, v, colors):
        for c in colors:
            v = self.f(c, v)
            if v is None:
                return None
        return v

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

def reference_check_s2_s3(g, A):
    """String-difference equality and sign bounds across every raising step."""
    ctx = _Ctx(g)
    out = []
    for x in g.vertices():
        for i in g.colors:
            if ctx.e(i, x) is None:
                continue
            for j in g.colors:
                if j == i:
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
                if not (dphi <= 0 <= deps):
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


def reference_check_s4_s5(g, A, ctx=None):
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


def reference_check_s6_s9(g, A, ctx=None):
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



# -- the aggregate check ---------------------------------------------------------

def reference_check_all(g, A):
    """Goodness, unique maximum, weight grading, then the axiom batteries.

    A graph passing with zero violations is regular in the axiomatic sense
    and therefore the highest-weight crystal graph for the top statistics.
    """
    report = CheckReport(n_vertices=len(g))
    for gv in reference_is_good(g):
        report.violations.append(Violation("S1", None, gv.witness, f"{gv.rule}: {gv.detail}"))
    if report.violations:
        report.violations = _sorted(report.violations)
        return report

    maxes = reference_maximum_elements(g)
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
        reference_wt_assign(g, x0)
    except InconsistentWeight as exc:
        report.violations.append(
            Violation("WT", None, exc.vertex, f"conflicting multisets {exc.first} vs {exc.second}")
        )

    ctx = _Ctx(g)
    report.violations.extend(reference_check_s2_s3(g, A))
    report.violations.extend(reference_check_s4_s5(g, A, ctx=ctx))
    try:
        report.violations.extend(reference_check_s6_s9(g, A, ctx=ctx))
    except UnsupportedPair as exc:
        report.violations.append(Violation("S1", None, None, f"unsupported pair: {exc}"))

    report.phi0 = {i: ctx.phi(i, x0) for i in g.colors}
    report.violations = _sorted(report.violations)
    return report


# -- reference synthesis merges --------------------------------------------------
#
# builder._collect_merges as it was before the synthesizer read the checker's
# rule table: each lowering-side rule written out again over the synthesis
# state, with its own delta tests and words.  The pinned-synthesis test
# requires synthesize to build exactly the documents it builds with this
# patched in.

def walk(steps, k, colors):
    """Apply steps[c] to position k for each c in turn (steps: g.up to
    climb, g.down to descend); None as soon as a step is undefined."""
    for c in colors:
        k = steps[c][k]
        if k is None:
            return None
    return k


def delta(steps, stat, i, j, k):
    """Change of stat[j] across the step steps[i] from position k, or None
    where that step is undefined (steps/stat: g.up with eps, g.down with phi)."""
    w = steps[i][k]
    return None if w is None else stat[j][w] - stat[j][k]


def reference_collect_merges(st, k, candidates):
    """The candidate pairs forced together by every lowering-side axiom
    whose conclusion lands in layer k."""
    A = st.A
    types = classify_all_pairs(A)
    up, down = st.g.up, st.g.down
    eps, phi = st.eps, st.phi
    pairs = []

    def merge(c1, c2, reason):
        for c in (c1, c2):
            if c not in candidates:
                raise SynthesisInconsistency(
                    f"layer {k}: {reason} forces child {c} but its statistic is 0"
                )
        pairs.append((c1, c2))

    # squares: one step of each color commutes when the lowering delta is flat
    for w in st.layer(k - 2):
        for i, j in A.pairs():
            fi, fj = down[i][w], down[j][w]
            if fi is None or fj is None:
                continue
            if delta(down, phi, i, j, w) == 0:
                merge((fi, j), (fj, i), f"square at {w} ({i},{j})")

    # length-4 confluence for every pair with a (1,1) lowering profile
    for w in st.layer(k - 4):
        for ai, i in enumerate(A.colors):
            for j in A.colors[ai + 1:]:
                if (delta(down, phi, i, j, w), delta(down, phi, j, i, w)) != (1, 1):
                    continue
                p = walk(down, w, (i, j, j))
                q = walk(down, w, (j, i, i))
                if p is None or q is None:
                    raise SynthesisInconsistency(
                        f"layer {k}: length-4 confluence at {w} lost its prefix"
                    )
                merge((p, i), (q, j), f"length-4 confluence at {w}")

    b2_pairs = [(i, j) for (i, j), t in types.items() if t == B2]

    # pentagon merges (two hypotheses share one conclusion)
    for w in st.layer(k - 5):
        for i, j in b2_pairs:
            dp = (delta(down, phi, i, j, w), delta(down, phi, j, i, w))
            fire = False
            if dp == (1, 1) and phi[i][w] >= 2:
                fire = True
            elif dp == (0, 2):
                v = walk(down, w, (i, i))
                if v is not None and delta(down, phi, j, i, v) == 0:
                    fire = True
            if not fire:
                continue
            p = walk(down, w, (i, i, j, j))
            q = walk(down, w, (j, i, i, i))
            if p is None or q is None:
                raise SynthesisInconsistency(f"layer {k}: pentagon at {w} lost its prefix")
            merge((p, i), (q, j), f"pentagon at {w}")

    # depth-7 diamond
    for w in st.layer(k - 7):
        for i, j in b2_pairs:
            if (delta(down, phi, i, j, w), delta(down, phi, j, i, w)) != (1, 2):
                continue
            y = walk(down, w, (j, i, i))
            y1 = walk(down, w, (i, j, j, i, i))
            if y is None or y1 is None:
                raise SynthesisInconsistency(f"layer {k}: diamond at {w} lost its branch points")
            if (delta(up, eps, i, j, y), delta(up, eps, i, j, y1)) != (0, 1):
                continue
            p = walk(down, w, (i, j, j, i, i, i))
            q = walk(down, w, (j, i, i, i, j, j))
            if p is None or q is None:
                raise SynthesisInconsistency(f"layer {k}: diamond at {w} lost its prefix")
            merge((q, i), (p, j), f"diamond at {w}")
    return pairs


def reference_merge_classes(candidates, pairs):
    """builder._merge_classes by brute force: start from one class per
    candidate and join the two classes of each pair in turn."""
    classes = [{c} for c in candidates]
    for a, b in pairs:
        ca, cb = (next(s for s in classes if c in s) for c in (a, b))
        if ca is not cb:
            ca |= cb
            classes.remove(cb)
    return sorted(sorted(s) for s in classes)


def reference_raising_groupings(g):
    """{(i, j): axioms.grouping(raising side, every position, i, j) as a
    list of (deltas, positions) items} for each color pair {i, j}, i first
    in g's color order, from freshly computed string tables."""
    side = axioms.raising(g, *string_tables(g))
    return {(i, j): list(axioms.grouping(side, range(len(g)), i, j).items())
            for a, i in enumerate(g.colors) for j in g.colors[a + 1:]}


def reference_build_isomorphism(X, Y, gcm):
    """build_isomorphism by certifying both graphs with check_all, the
    first one first, and then walking."""
    rx = builder._certify("first", X, gcm)
    ry = builder._certify("second", Y, gcm)
    return builder._match(X, rx, Y, ry)


# -- PBW statistics read only by the tests -----------------------------------------

def from_a(a):
    """The element with a-coordinates a."""
    return pbw.PbwElement(a, kernel.r_transfer(a))


class ElemStats(NamedTuple):
    eps1: int
    eps2: int
    phi1: int
    phi2: int
    wt: Tuple[int, int]  # pairings (<h1,wt>, <h2,wt>)


def elem_stats(m, lam=None):
    """String statistics and weight pairings of an element, from its
    coordinates; lam=None behaves as (0, 0).  The reference that
    pbw.kashiwara_step's guard and elem_step's guards are tested against."""
    l1, l2 = lam if lam is not None else (0, 0)
    x1, x2, x3, x4 = m.x
    h1 = l1 + 2 * x1 - 2 * x3 - 2 * x4
    h2 = l2 - 2 * x1 - x2 + x4
    eps1 = m.a[0]
    eps2 = x1
    return ElemStats(eps1, eps2, eps1 + h1, eps2 + h2, (h1, h2))


# -- single-step navigation, the reference for the program's walks ------------------

def elem_step(m, direction, i, lam=None):
    """One raising ('e') or lowering ('f') step of color i, or None.

    e_i and f_i move a1 (color 1) or x1 (color 2) by one and recompute the
    other side through kernel, looked up at call time so that a map patched
    onto it is the one navigated.  Raising is guarded by eps_i != 0, so a
    negative coordinate, which only a broken map makes, steps on.  Lowering
    is guarded by phi_i > 0 when lam is a highest weight, and unguarded when
    lam is None: the unbounded crystal."""
    if direction not in ("e", "f"):
        raise ValueError(f"direction must be 'e' or 'f', not {direction!r}")
    if i not in (1, 2):
        raise ValueError(f"color must be 1 or 2, not {i!r}")
    a, x = m
    if direction == "e" and (a if i == 1 else x)[0] == 0:
        return None
    if direction == "f" and lam is not None and elem_stats(m, lam)[i + 1] <= 0:
        return None
    d = 1 if direction == "f" else -1
    if i == 1:
        a = (a[0] + d,) + a[1:]
        return PbwElement(a, kernel.r_transfer(a))
    x = (x[0] + d,) + x[1:]
    return PbwElement(kernel.r_inverse(x), x)


def elem_walk(m, ops, lam=None):
    """Apply (direction, color) steps, first entry first; None if any fails."""
    for direction, i in ops:
        m = elem_step(m, direction, i, lam)
        if m is None:
            return None
    return m


def elem_delta(m, direction, stat, i, j, lam=None):
    """Change of the j-statistic ('eps' or 'phi') across one i-step.
    Differences do not depend on lam, but the step itself is guarded by it;
    an undefined step raises HypothesisNotMet."""
    w = elem_step(m, direction, i, lam)
    if w is None:
        raise HypothesisNotMet(f"{direction}_{i} undefined at {m}")
    field = j - 1 if stat == "eps" else j + 1
    return elem_stats(w)[field] - elem_stats(m)[field]


def root_count(m):
    """Multiset of simple roots subtracted from the highest weight."""
    x1, x2, x3, x4 = m.x
    return {1: x2 + 2 * x3 + x4, 2: x1 + x2 + x3}


def epsilon_star(m):
    """The two starred string statistics (tail coordinates x4, a4)."""
    return (m.x[3], m.a[3])


# The candidate membership cutoff rules: the starred-statistic rule "x4",
# which pbw.generate asserts, and the third-coordinate rule "x3", which the
# pinning tests show lowering breaks.
MEMBERSHIP_RULES = {
    "x4": lambda m, lam: m.x[3] <= lam[0] and m.a[3] <= lam[1],
    "x3": lambda m, lam: m.x[2] <= lam[0] and m.a[2] <= lam[1],
}


def in_highest_weight(m, lam, rule="x4"):
    """Membership of an unbounded-crystal element in B with pairings lam."""
    return MEMBERSHIP_RULES[rule](m, lam)


def closure_under_rule(lam, rule):
    """pbw.generate's closure with the candidate rule asserted on each new
    vertex in place of the x4 rule; MembershipViolation where lowering
    reaches an element the rule rejects."""
    def complete(side, i):
        m = PbwElement(side, kernel.r_transfer(side)) if i == 1 else PbwElement(kernel.r_inverse(side), side)
        if not MEMBERSHIP_RULES[rule](m, lam):
            raise MembershipViolation(f"{m} reached by lowering but rejected by rule {rule!r}")
        return m

    return closure(pbw.ZERO, (1, 2), partial(pbw._lowered, lam), complete, 10**6)


def closed_form_r(a):
    """Closed-form transition map, total on N^4 (agrees with r_transfer)."""
    return closed_r_a3_ge_a1(a) if a[2] >= a[0] else closed_r_a3_le_a1(a)


def closed_form_rinv(x):
    """Closed-form inverse transition map, total on N^4."""
    return closed_rinv_x3_ge_x1(x) if x[2] >= x[0] else closed_rinv_x3_le_x1(x)


def verification_dict(rep):
    """An oracle.VerificationReport as a JSON-ready dict."""
    return {
        "claim": rep.claim,
        "domain_size": rep.domain_size,
        "pass": rep.passed,
        "counterexamples": list(rep.counterexamples),
    }


# -- reference verification scans ------------------------------------------------
#
# oracle.verify_lemmas and oracle.verify_forks as they were before they read
# the maps from one evaluation per box point and the fork deltas from the
# coordinates: every map value is recomputed where it is used, and every delta
# goes through elem_delta.  The differential tests require the oracle's
# reports to equal these.

def reference_verify_lemmas(n):
    """Scan [0,n]^4: closed forms, inverses, weight identities, delta
    formulas; the maps are kernel's at call time, as elem_delta's are."""
    transfer, transfer_inv = kernel.r_transfer, kernel.r_inverse
    rep = VerificationReport(f"transition-map lemmas on [0,{n}]^4", domain_size=(n + 1) ** 4)
    corollaries = []  # reported after the inverse scan's notes
    for a in product(range(n + 1), repeat=4):
        x = transfer(a)
        if any(v < 0 for v in x):
            rep.add(f"{a}: image {x} leaves N^4")
        else:
            if transfer_inv(x) != a:
                rep.add(f"{a}: inverse roundtrip gives {transfer_inv(x)}")
            if a[2] >= a[0] and closed_r_a3_ge_a1(a) != x:
                rep.add(f"{a}: high closed form {closed_r_a3_ge_a1(a)} != {x}")
            if a[2] <= a[0] and closed_r_a3_le_a1(a) != x:
                rep.add(f"{a}: low closed form {closed_r_a3_le_a1(a)} != {x}")
            if (
                a[0] + 2 * a[1] + a[2] != x[1] + 2 * x[2] + x[3]
                or a[1] + a[2] + a[3] != x[0] + x[1] + x[2]
            ):
                rep.add(f"{a}: weight identities fail for {x}")
        # delta corollaries and the product-zero fact, by navigation, at every point
        m = pbw.PbwElement(a, x)
        a1, a2, a3, a4 = a
        x1, x2, x3, x4 = x
        if a3 >= a1 >= 1 and x1 >= 1:
            nav = elem_delta(m, "e", "eps", 2, 1)
            if corollary_delta_2_1(m) != nav:
                corollaries.append(f"{m}: delta(2,1) formula {corollary_delta_2_1(m)} != {nav}")
        if x3 >= x1 >= 1 and a1 >= 1:
            nav = elem_delta(m, "e", "eps", 1, 2)
            if corollary_delta_1_2(m) != nav:
                corollaries.append(f"{m}: delta(1,2) formula != {nav}")
        if a1 > a3 and x1 > x3:
            d1 = elem_delta(m, "e", "eps", 1, 2)
            d2 = elem_delta(m, "e", "eps", 2, 1)
            if d1 * d2 != 0:
                corollaries.append(f"{m}: delta product {d1}*{d2} != 0")
    for x in product(range(n + 1), repeat=4):
        a = transfer_inv(x)
        if any(v < 0 for v in a):
            rep.add(f"{x}: preimage {a} leaves N^4")
            continue
        if transfer(a) != x:
            rep.add(f"{x}: forward roundtrip gives {transfer(a)}")
        if x[2] >= x[0] and closed_rinv_x3_ge_x1(x) != a:
            rep.add(f"{x}: high closed form != {a}")
        if x[2] <= x[0] and closed_rinv_x3_le_x1(x) != a:
            rep.add(f"{x}: low closed form != {a}")
    for note in corollaries:
        rep.add(note)
    return rep


def reference_verify_forks(lam, g=None):
    """The three fork suites in one pass over the crystal g; each vertex's
    statistics come from elem_stats and its deltas from elem_delta."""
    g = pbw.generate(lam) if g is None else g
    reps = {d: VerificationReport(f.claim.format(lam), len(g)) for d, f in FORKS.items()}
    hits = {d: set() for d in FORKS}
    members = {d: set() for d in FORKS}
    for m in g.labels:
        for d, f in FORKS.items():
            if f.family(m):
                members[d].add(m)
        st = elem_stats(m, lam)
        if st.eps1 < 1 or st.eps2 < 1:
            continue
        d = (elem_delta(m, "e", "eps", 1, 2, lam), elem_delta(m, "e", "eps", 2, 1, lam))
        f = FORKS.get(d)
        if f is None or st.eps1 < f.eps1 or (f.guard is not None and not f.guard(m)):
            continue
        hits[d].add(m)
        f.close(m, lam, reps[d])
    for d, rep in reps.items():
        if members[d] != hits[d]:
            rep.add(f"set identity fails: families minus forks {sorted(members[d] - hits[d])[:3]}, "
                    f"forks minus families {sorted(hits[d] - members[d])[:3]}")
    return list(reps.values())


# -- weight multiplicities by Freudenthal's recursion ------------------------------

def weight_counts(g):
    """How many vertices of g have each weight lam - sum_i beta_i alpha_i:
    a Counter keyed by beta, the color counts in g.colors order, decoded
    from weight_codes."""
    codes = Counter(g.weight_codes())
    weights = decode_weights(codes, len(g) + 1, g.colors)
    return Counter({tuple(weights[c].get(i, 0) for i in g.colors): k for c, k in codes.items()})


def symmetrizer(A):
    """Positive integers d, one per color in order, with d_i a_ij = d_j a_ji,
    for a connected matrix A that has them."""
    d = {A.colors[0]: Fraction(1)}
    for _ in A.colors:
        for i, j in A.pairs():
            if i in d and j not in d and A.a(i, j):
                d[j] = d[i] * A.a(i, j) / A.a(j, i)
    assert len(d) == len(A.colors), "the matrix is not connected"
    scale = lcm(*(q.denominator for q in d.values()))
    return [int(d[i] * scale) for i in A.colors]


def freudenthal(A, lam):
    """The weight multiplicities of the irreducible module of finite type
    A with highest weight pairings lam (in color order), keyed as
    weight_counts keys them, every multiplicity positive.

    Freudenthal's recursion, m(lam - beta) (2 (lam + rho, beta) - (beta,
    beta)) = 2 sum over positive roots r and k >= 1 of (lam - beta + k r,
    r) m(lam - beta + k r), in exact integers with the form (alpha_i,
    alpha_j) = d_i a_ij, so that (lam + rho, alpha_i) = d_i (lam_i + 1).
    Each weight but lam lies one simple root under another weight, so beta
    grows from 0 one simple root at a time, one height per pass; where the
    sum is 0, lam - beta is not a weight."""
    n, d = len(A.colors), symmetrizer(A)
    form = [[d[p] * A.a(i, j) for j in A.colors] for p, i in enumerate(A.colors)]

    def pair(u, v):
        return sum(u[p] * form[p][q] * v[q] for p in range(n) for q in range(n))

    roots = [(r, sum(d[p] * lam[p] * r[p] for p in range(n))) for r, _ in positive_roots(A)]  # (r, (lam, r))
    mult = {(0,) * n: 1}
    layer = [(0,) * n]
    while layer:
        grown = {b[:p] + (b[p] + 1,) + b[p + 1:] for b in layer for p in range(n)}
        layer = []
        for beta in sorted(grown):
            total = 0
            for r, lam_r in roots:
                g = tuple(b - c for b, c in zip(beta, r))
                while min(g) >= 0:  # lam - g = lam - beta + k r
                    total += mult.get(g, 0) * (lam_r - pair(g, r))
                    g = tuple(b - c for b, c in zip(g, r))
            if total:
                den = 2 * sum(beta[p] * d[p] * (lam[p] + 1) for p in range(n)) - pair(beta, beta)
                m, rest = divmod(2 * total, den)
                assert den > 0 and rest == 0 and m > 0, (lam, beta)
                mult[beta] = m
                layer.append(beta)
    return mult


# -- Demazure characters against Demazure crystals ---------------------------------

def weyl_elements(A):
    """The Weyl group of the finite-type matrix A, breadth first from the
    identity by the pairings of w rho: s_i lengthens w iff <h_i, w rho> >
    0, and <h_j, s_i mu> = <h_j, mu> - <h_i, mu> a_ji.  A list of (parent,
    p), element 0 the identity and each other element s_i times its
    parent, i = A.colors[p], so that its letters down the parents are a
    reduced word; parents come first."""
    colors = A.colors
    queue = [(1,) * len(colors)]  # w rho of each element, in order
    seen, out = {queue[0]: 0}, [(None, None)]
    for w, mu in enumerate(queue):
        for p, i in enumerate(colors):
            if mu[p] > 0:
                nu = tuple(m - mu[p] * A.a(j, i) for m, j in zip(mu, colors))
                if nu not in seen:
                    seen[nu] = len(out)
                    out.append((w, p))
                    queue.append(nu)
    return out


def demazure_operator(A, lam, p, char):
    """D_i of the character char, i = A.colors[p]: {beta: multiplicity},
    beta keying the weight lam - sum_j beta_j alpha_j, as weight_counts
    keys it.  Where q = <h_i, lam - sum_j beta_j alpha_j>, e^beta becomes
    the sum of e^(beta + k alpha_i) for k = 0..q when q >= 0, nothing when
    q = -1, and minus the sum of e^(beta - k alpha_i) for k = 1..-q-1 when
    q <= -2.  Exact integers; zero multiplicities are dropped."""
    i, out = A.colors[p], Counter()
    for beta, m in char.items():
        q = lam[p] - sum(b * A.a(i, j) for b, j in zip(beta, A.colors))
        for k in range(q + 1) if q >= 0 else range(-1, q, -1):
            out[beta[:p] + (beta[p] + k,) + beta[p + 1:]] += m if q >= 0 else -m
    return {beta: m for beta, m in out.items() if m}


def demazure_mismatches(g, A, lam):
    """The Weyl elements w, as indexes into weyl_elements(A), at which the
    Demazure crystal of g disagrees with Demazure's character formula.  The
    crystal side is B_w = F_i(B_v) for w = s_i v, from {top}, F_i(S) being S
    with each f_i-string walked to its end on g.down, its weights decoded
    from weight_codes; the character side is D_i of v's character, from
    e^lam (M. Demazure 1974; M. Kashiwara, Duke Math. J. 71, 1993)."""
    codes = g.weight_codes()
    decoded = decode_weights(codes, len(g) + 1, g.colors)
    beta = [tuple(decoded[c].get(i, 0) for i in g.colors) for c in codes]
    sets, chars, bad = [frozenset([position(g, g.maximum_elements()[0])])], [{(0,) * len(lam): 1}], []
    for w, (parent, p) in enumerate(weyl_elements(A)[1:], 1):
        down, grown = g.down[A.colors[p]], set(sets[parent])
        for v in sets[parent]:
            v = down[v]
            while v is not None and v not in grown:
                grown.add(v)
                v = down[v]
        sets.append(frozenset(grown))
        chars.append(demazure_operator(A, lam, p, chars[parent]))
        if Counter(map(beta.__getitem__, grown)) != chars[w]:
            bad.append(w)
    return bad
