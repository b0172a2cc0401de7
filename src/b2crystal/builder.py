"""Synthesis of the unique axiom-satisfying graph from a highest weight,
and the isomorphism between two such graphs.

Synthesis grows the graph one distance layer at a time: the driver
(synthesize) finds each layer's merge classes, and _layer checks and
loads them.  Each vertex of the previous layer contributes one child
candidate per color with a positive lowering statistic; the checker's
lowering-side rules (axioms.RULES, found by axioms.scan on a layer's
grouping), evaluated on sealed layers, force the last steps of their two
words to coincide, and the layer's classes are the connected components
of those merge pairs over its candidates, found before anything is
materialized.  Each class is one new vertex, and a finished layer goes
into the graph with one add_vertices call and one add_arrows call per
color.  The statistics are per-color eps/phi, flat lists over positions.
Raising statistics come from the parents, lowering ones from the pairing
<h_c, wt> = phi_c - eps_c of the head parent less the Cartan entry of the
step; no weight is kept, as the graph derives its grading itself.  One
final check_all certifies the result, its grading and its top statistics
(a wrong merge or a missed one cannot survive it).

The isomorphism is one breadth-first walk over both graphs from their
tops, each a maximum element with its top statistics: the i-child of a
mapped vertex goes to the i-child of its image, which checks every arrow of
both graphs on the way.  A graph that passes check_all is the crystal of
its top statistics, so a graph with clean degrees and one source that the
walk maps onto it arrow for arrow is that crystal too: only the first graph
runs check_all, and the second runs it only where the walk fails, for the
verdict that certifying both first would give.
"""

from bisect import bisect_left
from collections import defaultdict
from itertools import compress

from .axioms import check_all, grouping, lowering, rule_pairs, scan, walk_all
from .errors import (
    BudgetExceeded,
    CertificationFailed,
    NotIsomorphic,
    SynthesisInconsistency,
)
from .graph import ColoredGraph


class _Build:
    """Mutable synthesis state.  Vertex ids are allocated 0, 1, 2, ..., so
    they are the graph's positions, each layer is a range of them, and the
    statistics are per-color lists over them."""

    def __init__(self, A, phi0, budget):
        self.A = A
        self.budget = budget
        self.g = ColoredGraph(A.colors, cartan=A)
        self.g.add_vertices([0])
        self.eps = {i: [0] for i in A.colors}
        self.phi = {i: [phi0[i]] for i in A.colors}
        self.layers = [range(1)]
        self.side = lowering(self.g, self.eps, self.phi)
        self.plan = defaultdict(list)  # (word length, i, j) -> the entries on {i, j}
        for n, i in enumerate(A.colors):
            for j in A.colors[n + 1:]:
                for rule, pair in rule_pairs(A, i, j):
                    self.plan[len(rule.words(*pair)[0]), i, j].append((rule, pair))
        self.reach = max((n for n, _, _ in self.plan), default=0)  # the longest word
        self.groupings = {}  # layer -> (i, j) -> the layer's grouping on {i, j}

    def layer(self, k):
        return self.layers[k] if 0 <= k < len(self.layers) else range(0)

    def grouping(self, k, i, j):
        """Layer k's grouping on {i, j}, final once its children exist;
        kept until no word reaches back to it."""
        kept = self.groupings.setdefault(k, {})
        if (i, j) not in kept:
            kept[i, j] = grouping(self.side, self.layer(k), i, j)
        return kept[i, j]


def _collect_merges(st, k, candidates):
    """The candidate pairs forced together by every lowering-side rule whose
    two words end in layer k: the last steps of the two words from x must
    reach one child."""
    st.groupings.pop(k - st.reach - 1, None)
    pairs = []
    for (n, i, j), entries in st.plan.items():
        for rule, (p, q), fired, defects in scan(st.side, st.grouping(k - n, i, j), i, j, entries):
            if defects:
                x, (_, detail) = defects[0]
                raise SynthesisInconsistency(f"layer {k}: {rule.name} at {x} ({p},{q}): {detail}")
            if not fired:
                continue
            (*w1, c1), (*w2, c2) = rule.words(p, q)
            for x, e1, e2 in zip(fired, walk_all(st.g.down, fired, w1), walk_all(st.g.down, fired, w2)):
                ends = (e1, c1), (e2, c2)
                for end in ends:
                    if end[0] is None:
                        raise SynthesisInconsistency(
                            f"layer {k}: {rule.name} at {x} ({p},{q}) lost its prefix"
                        )
                    if end not in candidates:
                        raise SynthesisInconsistency(
                            f"layer {k}: {rule.name} at {x} ({p},{q}) forces child {end} "
                            "but its statistic is 0"
                        )
                pairs.append(ends)
    return pairs


def _merge_classes(candidates, pairs):
    """The classes that the pairs join among the candidates: the connected
    components, each sorted, in the order of their least members."""
    linked = defaultdict(list)
    for a, b in pairs:
        linked[a].append(b)
        linked[b].append(a)
    seen, classes = set(), []
    for c in sorted(candidates):
        if c not in seen:
            seen.add(c)
            group = [c]
            for x in group:
                for y in linked[x]:
                    if y not in seen:
                        seen.add(y)
                        group.append(y)
            classes.append(sorted(group))
    return classes


def _layer(st, k, classes):
    """Check layer k's merge classes and load them into st, one vertex per
    class with its arrows and eps/phi."""
    colors, eps, phi = st.A.colors, st.eps, st.phi
    first, n = len(st.g), len(classes)
    if first + n > st.budget:
        raise BudgetExceeded(f"vertex budget {st.budget} exceeded")
    # the class's first member is its vertex's head parent; up[c] lists
    # each new vertex's parent through color c, None where it has none
    heads = [group[0] for group in classes]
    up = {c: [p if i == c else None for p, i in heads] for c in colors}
    # no weight check: a rule's two words use each color equally often, so
    # the candidates that a merge pair joins have one weight
    errors = []  # (vertex, kind, text); the least one is raised
    for t, group in enumerate(classes):
        for q, j in group[1:]:
            if up[j][t] is not None:
                errors.append((first + t, 0, f"layer {k}: merged candidates collide on color {j}: "
                                             f"vertex {first + t} already has an incoming {j}-arrow"))
                break
            up[j][t] = q
    st.g.add_vertices(range(first, first + n))
    for t, c in enumerate(colors, 1):
        mask = [q is not None for q in up[c]]
        st.g.add_arrows(c, compress(up[c], mask), compress(range(first, first + n), mask))
        # phi - eps is the pairing <h_c, wt>: the head parent's, less <h_c, alpha_i>
        e, f, a = eps[c], phi[c], {i: st.A.a(c, i) for i in colors}
        e.extend([0 if q is None else e[q] + 1 for q in up[c]])
        f.extend([e[v] + f[p] - e[p] - a[i] for v, (p, i) in enumerate(heads, first)])
        if min(f[first:]) < 0:
            v = next(v for v in range(first, first + n) if f[v] < 0)
            errors.append((v, t, f"layer {k}: vertex {v} got negative lowering statistic for {c}"))
    if errors:
        raise SynthesisInconsistency(min(errors)[2])
    st.layers.append(range(first, first + n))


def synthesize(A, phi0, budget_vertices=10**6, check=True):
    """Build the unique axiom-satisfying graph with the given top statistics.

    phi0 is a sequence of nonnegative integers in index order, one per
    color.  The result is labeled with nothing, and has passed check_all
    unless check=False.
    """
    if len(phi0) != len(A.colors):
        raise ValueError(f"phi0 has {len(phi0)} entries for {len(A.colors)} colors")
    phi0 = dict(zip(A.colors, phi0))
    if any(v < 0 for v in phi0.values()):
        raise ValueError("top statistics must be nonnegative")

    if budget_vertices < 1:  # the top vertex counts
        raise BudgetExceeded(f"vertex budget {budget_vertices} exceeded")
    st = _Build(A, phi0, budget_vertices)
    k = 1
    while cands := [(p, i) for i in A.colors for p in st.layer(k - 1) if st.phi[i][p] > 0]:
        _layer(st, k, _merge_classes(cands, _collect_merges(st, k, set(cands))))
        k += 1

    if check:
        report = check_all(st.g, A)
        if not report.passed:
            raise SynthesisInconsistency(
                f"synthesized graph failed certification: {report.summary()}"
            )
        # the bookkept eps/phi are then the string tables: a new vertex's
        # eps_c is its c-parent's plus one, the string length, as the
        # collision check allows one incoming c-arrow, and S2 moves the literal
        # phi - eps by a_ci on every arrow, as the bookkeeping does, so the two
        # differ everywhere by the literal top statistics less phi0
        if report.phi0 != phi0:
            raise SynthesisInconsistency(f"synthesized graph has top statistics {report.phi0}, not {phi0}")
    return st.g


def build_isomorphism(X, Y, gcm):
    """The unique color-preserving isomorphism between two certified graphs.

    Both inputs must have the matrix's colors and pass check_all for it
    (CertificationFailed otherwise, the first graph tested first), and
    agree on the top statistics (NotIsomorphic otherwise), in whatever order
    each lists its colors.  Returns the map as a dict from X's ids to Y's.
    Found by one walk from the maximum elements: for each mapped vertex and
    color, both i-children are missing or both present, and the image of
    the child is the child of the image (NotIsomorphic otherwise).
    X runs check_all; Y runs it only where its pre-check (the matrix's
    colors, clean G1/G2 degrees, one source) or the walk fails, for the
    outcome of certifying both graphs first.
    """
    tx = _certify("first", X, gcm)
    found = Y.sources()
    if set(Y.colors) != set(gcm.colors) or any(map(Y.degree_violations, Y.colors)) or len(found) != 1:
        return _match(X, tx, Y, _certify("second", Y, gcm))
    phi0 = {}  # the lengths of the source's strings, paths by the clean degrees
    for i in Y.colors:
        k, phi0[i] = found[0], 0
        while Y.down[i][k] is not None:
            k, phi0[i] = Y.down[i][k], phi0[i] + 1
    try:
        return _match(X, tx, Y, (Y.ids[found[0]], phi0))
    except NotIsomorphic:
        _certify("second", Y, gcm)
        raise


def _certify(name, g, A):
    """The top (x0, phi0) of g, which must pass check_all for A."""
    if set(g.colors) != set(A.colors):
        raise CertificationFailed(
            f"{name} graph has colors {tuple(g.colors)} but the Cartan matrix has {tuple(A.colors)}"
        )
    rep = check_all(g, A)
    if not rep.passed:
        raise CertificationFailed(f"{name} graph fails certification: {rep.summary()}")
    return rep.max_element, rep.phi0


def _match(X, tx, Y, ty):
    """The walk of build_isomorphism from the tops tx and ty of X and Y,
    each a maximum element and its top statistics; both graphs have the
    matrix's colors, and Y is read in X's color order."""
    (x_top, x_phi), (y_top, y_phi) = tx, ty
    if x_phi != y_phi:
        raise NotIsomorphic(f"top statistics differ: {x_phi} vs {y_phi}")

    # h maps X's positions to Y's and hit marks its image; ids are for messages
    xid, yid = X.ids, Y.ids
    h, hit = [None] * len(X), [False] * len(Y)
    x0, y0 = bisect_left(xid, x_top), bisect_left(yid, y_top)
    h[x0], hit[y0] = y0, True
    queue = [x0]
    for x in queue:
        for i in X.colors:
            u, v = X.down[i][x], Y.down[i][h[x]]
            if (u is None) != (v is None):
                raise NotIsomorphic(f"{i}-child at only one of {xid[x]} and its image {yid[h[x]]}")
            if u is None:
                continue
            if h[u] is None:
                if hit[v]:
                    raise NotIsomorphic(f"two vertices map onto {yid[v]}")
                h[u], hit[v] = v, True
                queue.append(u)
            elif h[u] != v:
                raise NotIsomorphic(f"edge ({xid[x]},{xid[u]},{i}) not preserved")
    if len(X) != len(Y):
        raise NotIsomorphic("map is not onto")
    return dict(zip(xid, map(yid.__getitem__, h)))
