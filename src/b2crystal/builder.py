"""Synthesis of the unique axiom-satisfying graph from a highest weight,
and the isomorphism between two such graphs.

Synthesis grows the graph one distance layer at a time.  Each vertex of
the previous layer contributes one child candidate per color with a
positive lowering statistic; the checker's lowering-side rules
(axioms.RULES, found by axioms.scan on a layer's grouping), evaluated on
sealed layers, force the last steps of their two words to coincide, and
union-find collects those merges before anything is materialized.  Raising
statistics of new vertices come from their parents; lowering statistics
are defined through the weight grading and the top statistics, and a
final full check certifies the result (a wrong merge or a missed one
cannot survive it silently).

The isomorphism is one breadth-first walk over both graphs from their
maximum elements: the i-child of a mapped vertex goes to the i-child of
its image, which checks every arrow of both graphs on the way.
"""

from bisect import bisect_left
from collections import defaultdict

from .axioms import check_all, grouping, lowering, rule_pairs, scan, walk_all
from .cartan import b2_gcm, pairing_of_root_count
from .errors import (
    BudgetExceeded,
    CertificationFailed,
    DuplicateEdge,
    NotIsomorphic,
    PrereqFailed,
    SynthesisInconsistency,
)
from .graph import ColoredGraph


class UnionFind:
    """Minimal union-find over hashable keys; min key becomes the root so
    runs are reproducible."""

    def __init__(self):
        self.parent = {}

    def add(self, k):
        self.parent.setdefault(k, k)

    def find(self, k):
        root = k
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[k] != root:
            self.parent[k], k = root, self.parent[k]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        lo, hi = (ra, rb) if ra <= rb else (rb, ra)
        self.parent[hi] = lo
        return lo

    def classes(self):
        groups = {}
        for k in self.parent:
            groups.setdefault(self.find(k), []).append(k)
        return [sorted(groups[r]) for r in sorted(groups)]


class _Build:
    """Mutable synthesis state.  Vertex ids are allocated 0, 1, 2, ..., so
    they are the graph's positions, each layer is a range of them, and the
    statistics are per-color lists over them."""

    def __init__(self, A, phi0):
        self.A = A
        self.phi0 = dict(phi0)
        self.g = ColoredGraph(A.colors, cartan=A)
        v0 = self.g.add_vertex()
        self.eps = {i: [0] for i in A.colors}
        self.phi = {i: [self.phi0[i]] for i in A.colors}
        self.wt = [{}]
        self.layers = [range(v0, v0 + 1)]
        self.side = lowering(self.g, self.eps, self.phi)
        self.plan = defaultdict(list)  # (word length, i, j) -> the entries on {i, j}
        for n, i in enumerate(A.colors):
            for j in A.colors[n + 1:]:
                for rule, pair in rule_pairs(A, i, j):
                    self.plan[len(rule.words(*pair)[0]), i, j].append((rule, pair))

    def layer(self, k):
        return self.layers[k] if 0 <= k < len(self.layers) else range(0)


def _collect_merges(st, k, uf, candidates):
    """Fire every lowering-side rule whose two words end in layer k: the
    last steps of the two words from x must reach one child."""
    for (n, i, j), entries in st.plan.items():
        groups = grouping(st.side, st.layer(k - n), i, j)
        for rule, (p, q), fired, defects in scan(st.side, groups, i, j, entries):
            if defects:
                x, detail = defects[0]
                raise SynthesisInconsistency(f"layer {k}: {rule.name} at {x} ({p},{q}): {detail}")
            (*w1, c1), (*w2, c2) = rule.words(p, q)
            for x, e1, e2 in zip(fired, walk_all(st.g.down, fired, w1), walk_all(st.g.down, fired, w2)):
                ends = [(e1, c1), (e2, c2)]
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
                uf.union(*ends)


def synthesize(A, phi0, budget_vertices=10**6, budget_layers=10**4, check=True):
    """Build the unique axiom-satisfying graph with the given top statistics.

    phi0 maps colors to nonnegative integers (a sequence in index order is
    also accepted).  The result is frozen, labeled with nothing, and has
    passed check_all unless check=False.
    """
    if not isinstance(phi0, dict):
        phi0 = dict(zip(A.colors, phi0))
    if set(phi0) != set(A.colors):
        raise ValueError("phi0 must assign every color")
    if any(v < 0 for v in phi0.values()):
        raise ValueError("top statistics must be nonnegative")

    st = _Build(A, phi0)
    k = 0
    while True:
        k += 1
        if k > budget_layers:
            raise BudgetExceeded(f"layer budget {budget_layers} exceeded")
        prev = st.layer(k - 1)
        first = len(st.g)
        uf = UnionFind()
        candidates = set()
        for p in prev:
            for i in A.colors:
                if st.phi[i][p] > 0:
                    uf.add((p, i))
                    candidates.add((p, i))
        if not candidates:
            break
        _collect_merges(st, k, uf, candidates)

        for group in uf.classes():
            if len(st.g) >= budget_vertices:
                raise BudgetExceeded(f"vertex budget {budget_vertices} exceeded")
            v = st.g.add_vertex()
            wts = []
            for p, i in group:
                try:
                    st.g.add_edge(p, v, i)
                except DuplicateEdge as exc:
                    raise SynthesisInconsistency(
                        f"layer {k}: merged candidates collide on color {i}: {exc}"
                    ) from None
                wts.append((p, i))
            wt0 = None
            for p, i in wts:
                wt = dict(st.wt[p])
                wt[i] = wt.get(i, 0) + 1
                if wt0 is None:
                    wt0 = wt
                elif wt != wt0:
                    raise SynthesisInconsistency(
                        f"layer {k}: vertex {v} merged with unequal weights {wt0} vs {wt}"
                    )
            st.wt.append(wt0)
            drop = pairing_of_root_count(A, wt0)
            for c in A.colors:
                parent = st.g.up[c][v]
                eps_c = 0 if parent is None else st.eps[c][parent] + 1
                phi_c = eps_c + st.phi0[c] - drop[c]
                if phi_c < 0:
                    raise SynthesisInconsistency(
                        f"layer {k}: vertex {v} got negative lowering statistic for {c}"
                    )
                st.eps[c].append(eps_c)
                st.phi[c].append(phi_c)
        st.layers.append(range(first, len(st.g)))

    g = st.g.freeze()
    if check:
        report = check_all(g, A, expected_phi0=phi0)
        if not report.passed:
            raise SynthesisInconsistency(
                f"synthesized graph failed certification: {report.summary()}"
            )
        # the (K1)-defined statistics must coincide with the literal strings
        eps_t, phi_t = g.tables()
        if (eps_t, phi_t) != (st.eps, st.phi):
            v = next(v for v in range(len(g)) if any(
                eps_t[c][v] != st.eps[c][v] or phi_t[c][v] != st.phi[c][v] for c in A.colors))
            raise SynthesisInconsistency(f"vertex {v}: bookkeeping stats differ from string lengths")
    g.synthesis_stats = {
        v: (st.wt[v], {c: st.eps[c][v] for c in A.colors}, {c: st.phi[c][v] for c in A.colors})
        for v in range(len(g))
    }
    return g


def build_isomorphism(X, Y, gcm=None):
    """The unique color-preserving isomorphism between two certified graphs.

    Both inputs must have the matrix's colors and pass check_all for it
    (CertificationFailed otherwise, the first graph tested first), list
    their colors in one order and agree on the top statistics (PrereqFailed
    otherwise).  Returns the map as a dict from X's ids to Y's.
    Found by one walk from the maximum elements: for each mapped vertex and
    color, both i-children are missing or both present, and the image of
    the child is the child of the image (NotIsomorphic otherwise).
    """
    A = gcm or X.cartan or Y.cartan
    if A is None:
        raise PrereqFailed("no Cartan matrix available")
    rx = _certify("first", X, A)
    ry = _certify("second", Y, A)
    return _match(X, rx, Y, ry)


def _certify(name, g, A):
    if set(g.colors) != set(A.colors):
        raise CertificationFailed(
            f"{name} graph has colors {tuple(g.colors)} but the Cartan matrix has {tuple(A.colors)}"
        )
    rep = check_all(g, A)
    if not rep.passed:
        raise CertificationFailed(f"{name} graph fails certification: {rep.summary()}")
    return rep


def _match(X, rx, Y, ry):
    """build_isomorphism on graphs whose passing reports are rx and ry."""
    if X.colors != Y.colors:
        raise PrereqFailed("color sets differ")
    if rx.phi0 != ry.phi0:
        raise PrereqFailed(f"top statistics differ: {rx.phi0} vs {ry.phi0}")

    # h maps X's positions to Y's and hit marks its image; ids are for messages
    xid, yid = X.ids, Y.ids
    h, hit = [None] * len(X), [False] * len(Y)
    x0, y0 = bisect_left(xid, rx.max_element), bisect_left(yid, ry.max_element)
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


def verify_reversal_involution(lam, g=None):
    """Arrow reversal of a generated crystal is again a certified crystal,
    isomorphic to the original with raising and lowering swapped.  g is the
    frozen crystal generate(lam), generated here when not given."""
    from .pbw import generate  # read at call time, so a patched pbw.generate is seen

    g = generate(lam) if g is None else g
    r = g.reverse()
    A = b2_gcm()
    rep = check_all(r, A)
    if not rep.passed or rep.phi0 != {1: lam[0], 2: lam[1]}:
        return False
    # build_isomorphism(g, r), with r's report reused instead of re-certified
    iso = _match(g, _certify("first", g, A), r, rep)
    eg, pg = g.tables()  # indexed by position, which is the id in a generated graph
    for v in g.vertices():
        if iso[iso[v]] != v:  # the identification must be an involution
            return False
        for i in g.colors:
            # raising/lowering statistics swap across the identification
            if eg[i][v] != pg[i][iso[v]] or pg[i][v] != eg[i][iso[v]]:
                return False
    return True
