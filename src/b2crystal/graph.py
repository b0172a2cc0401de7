"""Finite I-colored directed graphs and their string statistics.

Vertices are integer ids.  For each color the arrows form a partial
successor map f and its inverse partial predecessor map e; the goodness
conditions (per-color out-degree <= 1, in-degree <= 1, finite
monochromatic strings) make the up/down string lengths eps/phi and the
delta differences well defined.  Graphs are built mutably, then frozen;
every query below is read-only.  A frozen graph keeps what it derives from
its arrows once computed: its string tables, its maximum elements and its
DenseView, the flat per-color lists (positions instead of ids) that the
axiom checker scans.
"""

from dataclasses import dataclass

from .cartan import add_counts
from .errors import DuplicateEdge, InconsistentWeight, NonTerminating, UndefinedStep


@dataclass(frozen=True)
class GraphViolation:
    rule: str  # G1, G2 or G3
    witness: int
    detail: str


class ColoredGraph:
    def __init__(self, colors, cartan=None):
        self.colors = tuple(colors)
        if len(set(self.colors)) != len(self.colors) or not self.colors:
            raise ValueError("colors must be a nonempty list of distinct labels")
        self.cartan = cartan
        self._vertices = set()
        self._label = {}
        self._edges = {i: [] for i in self.colors}  # raw (src, dst) lists
        self._succ = {i: {} for i in self.colors}
        self._pred = {i: {} for i in self.colors}
        self._frozen = False
        self._kept = {}
        self._next_id = 0

    # -- construction ------------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise RuntimeError("graph is frozen")

    def add_vertex(self, vid=None, label=None):
        self._check_mutable()
        if vid is None:
            while self._next_id in self._vertices:
                self._next_id += 1
            vid = self._next_id
            self._next_id += 1
        if vid in self._vertices:
            raise ValueError(f"vertex {vid} already present")
        self._vertices.add(vid)
        if label is not None:
            self._label[vid] = label
        return vid

    def add_edge(self, src, dst, color):
        """Add the i-colored arrow src -> dst, refusing G1/G2 violations."""
        self._check_mutable()
        if src not in self._vertices or dst not in self._vertices:
            raise ValueError("edge endpoints must be existing vertices")
        if color not in self._edges:
            raise ValueError(f"unknown color {color}")
        if src in self._succ[color]:
            raise DuplicateEdge(f"vertex {src} already has an outgoing {color}-arrow")
        if dst in self._pred[color]:
            raise DuplicateEdge(f"vertex {dst} already has an incoming {color}-arrow")
        self._edges[color].append((src, dst))
        self._succ[color][src] = dst
        self._pred[color][dst] = src

    def add_edge_unchecked(self, src, dst, color):
        """Record an arrow without the G1/G2 guard (for crafting bad graphs).

        Navigation keeps the first arrow per (vertex, color); is_good still
        sees every recorded arrow.
        """
        self._check_mutable()
        self._edges[color].append((src, dst))
        self._succ[color].setdefault(src, dst)
        self._pred[color].setdefault(dst, src)

    def freeze(self):
        self._frozen = True
        return self

    # -- basic queries -----------------------------------------------------

    def vertices(self):
        return sorted(self._vertices)

    def __len__(self):
        return len(self._vertices)

    def label(self, v):
        return self._label.get(v)

    def edges(self):
        """All arrows as (src, dst, color), sorted."""
        out = []
        for i in self.colors:
            out.extend((s, d, i) for s, d in self._edges[i])
        out.sort()
        return out

    def f_step(self, i, v):
        """Target of the i-arrow out of v, or None."""
        return self._succ[i].get(v)

    def e_step(self, i, v):
        """Source of the i-arrow into v, or None."""
        return self._pred[i].get(v)

    def descend(self, v, colors):
        """Apply f_c for each c in turn; None as soon as a step is undefined."""
        for c in colors:
            v = self._succ[c].get(v)
            if v is None:
                return None
        return v

    def step(self, direction, i, v):
        if direction == "f":
            return self._succ[i].get(v)
        if direction == "e":
            return self._pred[i].get(v)
        raise ValueError(f"direction must be 'e' or 'f', not {direction!r}")

    # -- string statistics -------------------------------------------------

    def _string_length(self, maps, i, v):
        n = 0
        cap = len(self._vertices) + 1
        while True:
            v = maps[i].get(v)
            if v is None:
                return n
            n += 1
            if n >= cap:
                raise NonTerminating(f"monochromatic {i}-cycle through {v}")

    def eps(self, i, v):
        """Length of the maximal e_i-chain above v."""
        return self._string_length(self._pred, i, v)

    def phi(self, i, v):
        """Length of the maximal f_i-chain below v."""
        return self._string_length(self._succ, i, v)

    def _keep(self, key, compute):
        """compute(self); a frozen graph computes it once and keeps it, so
        callers share one read-only copy."""
        if not self._frozen:
            return compute(self)
        if key not in self._kept:
            self._kept[key] = compute(self)
        return self._kept[key]

    def tables(self):
        """string_tables(self), kept once the graph is frozen."""
        return self._keep("tables", string_tables)

    def dense(self):
        """DenseView(self), kept once the graph is frozen."""
        return self._keep("dense", DenseView)

    def string_stats(self, v):
        """Per-color (eps, phi) vectors at v."""
        return (
            {i: self.eps(i, v) for i in self.colors},
            {i: self.phi(i, v) for i in self.colors},
        )

    def delta(self, direction, stat, i, j, v):
        """Change of the j-statistic across one i-step from v."""
        if stat not in ("eps", "phi"):
            raise ValueError(f"stat must be 'eps' or 'phi', not {stat!r}")
        w = self.step(direction, i, v)
        if w is None:
            raise UndefinedStep(f"{direction}_{i} undefined at {v}")
        measure = self.eps if stat == "eps" else self.phi
        return measure(j, w) - measure(j, v)

    # -- structure checks --------------------------------------------------

    def is_good(self):
        """All G1/G2/G3 violations (empty list means the graph is good)."""
        violations = []
        for i in self.colors:
            out_deg = {}
            in_deg = {}
            for s, d in self._edges[i]:
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
            for v in self.vertices():
                if v in state:
                    continue
                path = []
                u = v
                while u is not None and u not in state:
                    state[u] = 0
                    path.append(u)
                    u = self._succ[i].get(u)
                if u is not None and state.get(u) == 0:
                    violations.append(
                        GraphViolation("G3", u, f"monochromatic {i}-cycle")
                    )
                for p in path:
                    state[p] = 1
        return violations

    def maximum_elements(self):
        """Vertices with no incoming arrows that f-reach every vertex, kept
        once the graph is frozen."""
        return list(self._keep("max", _maximum_elements))

    def wt_assign(self, x0):
        """BFS weight/distance grading from a maximum element.

        Returns {vertex: (color multiset dict, dist)}.  Every arrow must be
        weight-consistent: WT(dst) = WT(src) + color.  A conflict raises
        InconsistentWeight, the practical detection of a failed homogeneous
        local confluence.
        """
        if x0 not in self._vertices:
            raise ValueError(f"no vertex {x0}")
        wt = {x0: {}}
        dist = {x0: 0}
        frontier = [x0]
        while frontier:
            nxt = []
            for u in frontier:
                for i in self.colors:
                    v = self._succ[i].get(u)
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
        if len(wt) != len(self._vertices):
            missing = sorted(self._vertices - set(wt))[0]
            raise ValueError(f"{x0} is not a maximum element: {missing} unreachable")
        return {v: (wt[v], dist[v]) for v in self.vertices()}

    def reverse(self):
        """New graph with every arrow reversed; colors and labels kept."""
        rev = ColoredGraph(self.colors, cartan=self.cartan)
        for v in self.vertices():
            rev.add_vertex(vid=v, label=self._label.get(v))
        for i in self.colors:
            for s, d in self._edges[i]:
                rev.add_edge_unchecked(d, s, i)
        if self._frozen:
            rev.freeze()
        return rev

    def copy_mutable(self, skip_edge=None):
        """Unfrozen copy, optionally leaving out one (src, dst, color) arrow."""
        cp = ColoredGraph(self.colors, cartan=self.cartan)
        for v in self.vertices():
            cp.add_vertex(vid=v, label=self._label.get(v))
        for i in self.colors:
            for s, d in self._edges[i]:
                if skip_edge == (s, d, i):
                    continue
                cp.add_edge_unchecked(s, d, i)
        return cp


def _maximum_elements(g):
    """No vertex reaches another source, so only a sole source can qualify."""
    sources = g._vertices.difference(*(g._pred[i] for i in g.colors))
    if len(sources) != 1:
        return []
    (v,) = sources
    seen = {v}
    queue = [v]
    while queue:
        u = queue.pop()
        for i in g.colors:
            w = g._succ[i].get(u)
            if w is not None and w not in seen:
                seen.add(w)
                queue.append(w)
    return [v] if len(seen) == len(g._vertices) else []


def string_tables(g):
    """eps/phi of every vertex for every color, in O(V) per color.

    Requires a good graph (strings decompose into disjoint chains).
    """
    eps = {i: {} for i in g.colors}
    phi = {i: {} for i in g.colors}
    for i in g.colors:
        for v in g.vertices():
            if g.e_step(i, v) is not None:
                continue
            chain = [v]
            while True:
                nxt = g.f_step(i, chain[-1])
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


class DenseView:
    """A good graph's arrows and string lengths as flat lists over positions.

    Position k is the k-th vertex id in sorted order (ids[k]).  For each
    color i, up[i][k] and down[i][k] are the positions of the e_i-parent and
    the f_i-child of k, or None where the step is undefined; eps[i][k] and
    phi[i][k] are k's string lengths.  Nothing here knows ids except ids.
    """

    __slots__ = ("ids", "up", "down", "eps", "phi")

    def __init__(self, g):
        ids = g.vertices()
        pos = {v: k for k, v in enumerate(ids)}
        eps_t, phi_t = g.tables()
        self.ids = ids
        self.up, self.down, self.eps, self.phi = {}, {}, {}, {}
        for i in g.colors:
            self.up[i] = _positions(g._pred[i], pos)
            self.down[i] = _positions(g._succ[i], pos)
            self.eps[i] = list(map(eps_t[i].__getitem__, ids))
            self.phi[i] = list(map(phi_t[i].__getitem__, ids))

    def vid(self, k):
        """The vertex id at position k (None stays None)."""
        return None if k is None else self.ids[k]

    def climb(self, k, colors):
        """Apply e_c for each c in turn; None as soon as a step is undefined."""
        up = self.up
        for c in colors:
            k = up[c][k]
            if k is None:
                return None
        return k

    def descend(self, k, colors):
        """Apply f_c for each c in turn; None as soon as a step is undefined."""
        down = self.down
        for c in colors:
            k = down[c][k]
            if k is None:
                return None
        return k

    # change of the j-statistic across one i-step from k; None when the
    # step is undefined
    def de_eps(self, i, j, k):
        w = self.up[i][k]
        return None if w is None else self.eps[j][w] - self.eps[j][k]

    def df_phi(self, i, j, k):
        w = self.down[i][k]
        return None if w is None else self.phi[j][w] - self.phi[j][k]


def _positions(step, pos):
    out = [None] * len(pos)
    for s, d in step.items():
        out[pos[s]] = pos[d]
    return out
