"""Synthesis of the unique axiom-satisfying graph from a highest weight,
and the layered isomorphism between two such graphs.

Synthesis grows the graph one distance layer at a time.  Each vertex of
the previous layer contributes one child candidate per color with a
positive lowering statistic; the lowering-side axioms, evaluated entirely
on sealed layers, force some candidates to coincide, and union-find
collects those merges before anything is materialized.  Raising
statistics of new vertices come from their parents; lowering statistics
are defined through the weight grading and the top statistics, and a
final full check certifies the result (a wrong merge or a missed one
cannot survive it silently).
"""

from dataclasses import dataclass

from .axioms import check_all
from .cartan import B2, classify_all_pairs, pairing_of_root_count
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
    """Mutable synthesis state."""

    def __init__(self, A, phi0):
        self.A = A
        self.phi0 = dict(phi0)
        self.g = ColoredGraph(A.colors, cartan=A)
        self.e, self.f, self.descend = self.g.e_step, self.g.f_step, self.g.descend
        self.eps = {}
        self.phi = {}
        self.wt = {}
        self.layers = []
        v0 = self.g.add_vertex()
        self.eps[v0] = {i: 0 for i in A.colors}
        self.phi[v0] = dict(self.phi0)
        self.wt[v0] = {}
        self.layers.append([v0])

    def df_phi(self, i, j, w):
        c = self.f(i, w)
        return None if c is None else self.phi[c][j] - self.phi[w][j]

    def de_eps(self, i, j, w):
        p = self.e(i, w)
        return None if p is None else self.eps[p][j] - self.eps[w][j]

    def layer(self, k):
        return self.layers[k] if 0 <= k < len(self.layers) else []


def _collect_merges(st, k, uf, candidates):
    """Fire every lowering-side axiom whose conclusion lands in layer k."""
    A = st.A
    types = classify_all_pairs(A)

    def merge(c1, c2, reason):
        for c in (c1, c2):
            if c not in candidates:
                raise SynthesisInconsistency(
                    f"layer {k}: {reason} forces child {c} but its statistic is 0"
                )
        uf.union(c1, c2)

    # squares: one step of each color commutes when the lowering delta is flat
    for w in st.layer(k - 2):
        for i, j in A.pairs():
            fi, fj = st.f(i, w), st.f(j, w)
            if fi is None or fj is None:
                continue
            if st.df_phi(i, j, w) == 0:
                merge((fi, j), (fj, i), f"square at {w} ({i},{j})")

    # length-4 confluence for every pair with a (1,1) lowering profile
    for w in st.layer(k - 4):
        for ai, i in enumerate(A.colors):
            for j in A.colors[ai + 1:]:
                if st.f(i, w) is None or st.f(j, w) is None:
                    continue
                if (st.df_phi(i, j, w), st.df_phi(j, i, w)) != (1, 1):
                    continue
                p = st.descend(w, [i, j, j])
                q = st.descend(w, [j, i, i])
                if p is None or q is None:
                    raise SynthesisInconsistency(
                        f"layer {k}: length-4 confluence at {w} lost its prefix"
                    )
                merge((p, i), (q, j), f"length-4 confluence at {w}")

    b2_pairs = [(i, j) for (i, j), t in types.items() if t == B2]

    # pentagon merges (two hypotheses share one conclusion)
    for w in st.layer(k - 5):
        for i, j in b2_pairs:
            if st.f(i, w) is None or st.f(j, w) is None:
                continue
            dp = (st.df_phi(i, j, w), st.df_phi(j, i, w))
            fire = False
            if dp == (1, 1) and st.phi[w][i] >= 2:
                fire = True
            elif dp == (0, 2):
                v = st.descend(w, [i, i])
                if v is not None and st.f(j, v) is not None and st.df_phi(j, i, v) == 0:
                    fire = True
            if not fire:
                continue
            p = st.descend(w, [i, i, j, j])
            q = st.descend(w, [j, i, i, i])
            if p is None or q is None:
                raise SynthesisInconsistency(f"layer {k}: pentagon at {w} lost its prefix")
            merge((p, i), (q, j), f"pentagon at {w}")

    # depth-7 diamond
    for w in st.layer(k - 7):
        for i, j in b2_pairs:
            if st.f(i, w) is None or st.f(j, w) is None:
                continue
            if (st.df_phi(i, j, w), st.df_phi(j, i, w)) != (1, 2):
                continue
            y = st.descend(w, [j, i, i])
            y1 = st.descend(w, [i, j, j, i, i])
            if y is None or y1 is None:
                raise SynthesisInconsistency(f"layer {k}: diamond at {w} lost its branch points")
            if (st.de_eps(i, j, y), st.de_eps(i, j, y1)) != (0, 1):
                continue
            p = st.descend(w, [i, j, j, i, i, i])
            q = st.descend(w, [j, i, i, i, j, j])
            if p is None or q is None:
                raise SynthesisInconsistency(f"layer {k}: diamond at {w} lost its prefix")
            merge((q, i), (p, j), f"diamond at {w}")


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
    classify_all_pairs(A)  # raises UnsupportedPair early

    st = _Build(A, phi0)
    k = 0
    while True:
        k += 1
        if k > budget_layers:
            raise BudgetExceeded(f"layer budget {budget_layers} exceeded")
        prev = st.layer(k - 1)
        uf = UnionFind()
        candidates = set()
        for p in prev:
            for i in A.colors:
                if st.phi[p][i] > 0:
                    uf.add((p, i))
                    candidates.add((p, i))
        if not candidates:
            break
        _collect_merges(st, k, uf, candidates)

        new_layer = []
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
            st.wt[v] = wt0
            eps_v = {}
            for c in A.colors:
                parent = st.e(c, v)
                eps_v[c] = 0 if parent is None else st.eps[parent][c] + 1
            st.eps[v] = eps_v
            drop = pairing_of_root_count(A, wt0)
            phi_v = {}
            for c in A.colors:
                phi_v[c] = eps_v[c] + st.phi0[c] - drop[c]
                if phi_v[c] < 0:
                    raise SynthesisInconsistency(
                        f"layer {k}: vertex {v} got negative lowering statistic for {c}"
                    )
            st.phi[v] = phi_v
            new_layer.append(v)
        st.layers.append(new_layer)

    g = st.g.freeze()
    if check:
        report = check_all(g, A, expected_phi0=phi0)
        if not report.passed:
            raise SynthesisInconsistency(
                f"synthesized graph failed certification: {report.summary()}"
            )
        # the (K1)-defined statistics must coincide with the literal strings
        eps_t, phi_t = g.tables()
        for v in g.vertices():
            for c in A.colors:
                if eps_t[c][v] != st.eps[v][c] or phi_t[c][v] != st.phi[v][c]:
                    raise SynthesisInconsistency(
                        f"vertex {v}: bookkeeping stats differ from string lengths"
                    )
    g.synthesis_stats = {v: (st.wt[v], st.eps[v], st.phi[v]) for v in g.vertices()}
    return g


@dataclass
class IsoMap:
    forward: dict

    def __getitem__(self, v):
        return self.forward[v]

    def pairs(self):
        return [[x, y] for x, y in sorted(self.forward.items())]

    def __len__(self):
        return len(self.forward)


def _layers(report):
    layers = {}
    for v, (_, dist) in report.grading.items():
        layers.setdefault(dist, []).append(v)
    return [sorted(layers[d]) for d in sorted(layers)]


def build_isomorphism(X, Y, gcm=None):
    """The unique color-preserving isomorphism between two certified graphs.

    Both inputs must pass check_all for the same Cartan matrix
    (CertificationFailed otherwise, the first graph tested first), share
    their colors and agree on the top statistics (PrereqFailed otherwise).
    Constructed layer by layer: the image of a vertex is the i-child of the
    image of any of its i-parents, and every parent choice must agree.
    """
    A = gcm or X.cartan or Y.cartan
    if A is None:
        raise PrereqFailed("no Cartan matrix available")
    rx = _certify("first", X, A)
    ry = _certify("second", Y, A)
    return _match(X, rx, Y, ry)


def _certify(name, g, A):
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

    lx = _layers(rx)
    ly = _layers(ry)
    if [len(l) for l in lx] != [len(l) for l in ly]:
        raise NotIsomorphic(0, f"layer profiles differ: {[len(l) for l in lx]} vs {[len(l) for l in ly]}")

    h = {rx.max_element: ry.max_element}
    for k in range(1, len(lx)):
        taken = set()
        for x in lx[k]:
            images = set()
            for i in X.colors:
                p = X.e_step(i, x)
                if p is None:
                    continue
                q = Y.f_step(i, h[p])
                if q is None:
                    raise NotIsomorphic(k, f"image of parent of {x} has no {i}-child")
                images.add(q)
            if len(images) != 1:
                raise NotIsomorphic(k, f"parent images of {x} disagree: {sorted(images)}")
            (y,) = images
            if y in taken:
                raise NotIsomorphic(k, f"two vertices map onto {y}")
            taken.add(y)
            h[x] = y
        if taken != set(ly[k]):
            raise NotIsomorphic(k, "layer image is not the whole target layer")

    # edge preservation both ways, and string statistics
    for u, v, i in X.edges():
        if Y.f_step(i, h[u]) != h[v]:
            raise NotIsomorphic(-1, f"edge ({u},{v},{i}) not preserved")
    if len(h) != len(Y.vertices()):
        raise NotIsomorphic(-1, "map is not onto")
    ex, px = X.tables()
    ey, py = Y.tables()
    for v in X.vertices():
        for i in X.colors:
            if ex[i][v] != ey[i][h[v]] or px[i][v] != py[i][h[v]]:
                raise NotIsomorphic(-1, f"string statistics differ at {v}")
    return IsoMap(h)


def verify_reversal_involution(lam):
    """Arrow reversal of a generated crystal is again a certified crystal,
    isomorphic to the original with raising and lowering swapped."""
    from .cartan import b2_gcm
    from .pbw import generate

    g = generate(lam)
    r = g.reverse()
    A = b2_gcm()
    rep = check_all(r, A)
    if not rep.passed or rep.phi0 != {1: lam[0], 2: lam[1]}:
        return False
    # build_isomorphism(g, r), with r's report reused instead of re-certified
    iso = _match(g, _certify("first", g, A), r, rep)
    eg, pg = g.tables()
    for v in g.vertices():
        if iso[iso[v]] != v:  # the identification must be an involution
            return False
        for i in g.colors:
            # raising/lowering statistics swap across the identification
            if eg[i][v] != pg[i][iso[v]] or pg[i][v] != eg[i][iso[v]]:
                return False
    return True
