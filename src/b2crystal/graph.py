"""Finite I-colored directed graphs and their string statistics.

A graph stores its vertices as positions 0..n-1.  Position k holds the
vertex ids[k] and its label labels[k]; for each color i, up[i][k] and
down[i][k] are the positions of the e_i-parent and the f_i-child of k, or
None where the step is undefined (the first recorded arrow wins).  Beside
them, arrows[i] keeps every recorded i-arrow, duplicates included, as two
position lists (sources, targets); the goodness check reads those.
Vertices arrive in bulk with increasing ids (add_vertices), so positions
follow the ids and a scan over positions visits vertices in id order; ids
are read only where they enter or leave: add_vertices, vertices/edges, and
the reports built from the passes below.

The goodness conditions (per-color out-degree <= 1, in-degree <= 1, finite
monochromatic strings) make the up/down string lengths eps/phi well
defined; string_tables computes them as per-color lists over positions
(where degrees are clean, is_good reads G3 from their coverage).
A graph keeps what it derives once computed (string tables, the top walk
with its maximum element and weight codes, groupings) until its next edit;
only the top walk, which writes the codes, and _decode know their layout.
summit() reads the top, by position, from the top walk and the tables.

closure builds a model crystal's graph (pbw.generate's, for one) breadth
first from its top element, with the elements as labels.
"""

from collections import Counter, namedtuple
from itertools import compress, islice, repeat
from operator import is_, lt

from .errors import BudgetExceeded, DuplicateEdge, InconsistentWeight, NonTerminating


GraphViolation = namedtuple("GraphViolation", "rule witness detail")  # rule: G1, G2 or G3


class ColoredGraph:
    def __init__(self, colors, cartan=None):
        self.colors = tuple(colors)
        if len(set(self.colors)) != len(self.colors) or not self.colors:
            raise ValueError("colors must be a nonempty list of distinct labels")
        self.cartan = cartan
        self.ids = []
        self.labels = []
        self.up = {i: [] for i in self.colors}
        self.down = {i: [] for i in self.colors}
        self.arrows = {i: ([], []) for i in self.colors}
        self._kept = {}

    # -- construction ------------------------------------------------------

    def add_vertices(self, ids, labels=None):
        """Append vertices, labels[k] labelling ids[k]; the ids must increase,
        past the last id already present."""
        ids = list(ids)
        n = len(ids)
        last = self.ids[-1:] + ids
        if not all(map(lt, last, islice(last, 1, None))):
            k = next(k for k in range(1, len(last)) if last[k] <= last[k - 1])
            raise ValueError(f"vertex ids must increase: {last[k]} after {last[k - 1]}")
        self._kept.clear()
        self.ids.extend(ids)
        self.labels.extend([None] * n if labels is None else labels)
        for i in self.colors:
            self.up[i].extend([None] * n)
            self.down[i].extend([None] * n)

    def add_arrows(self, color, sources, targets):
        """Record the arrows sources[k] -> targets[k] of one color, given as
        positions, without a degree guard: navigation keeps the first arrow
        per (vertex, color), and is_good sees every recorded arrow."""
        if color not in self.arrows:
            raise ValueError(f"unknown color {color}")
        self._kept.clear()
        sources, targets = list(sources), list(targets)
        srcs, dsts = self.arrows[color]
        srcs.extend(sources)
        dsts.extend(targets)
        up, down = self.up[color], self.down[color]
        for s, d in zip(sources, targets):
            if down[s] is None:
                down[s] = d
            if up[d] is None:
                up[d] = s

    # -- basic queries -----------------------------------------------------

    def vertices(self):
        return list(self.ids)

    def __len__(self):
        return len(self.ids)

    def edges(self):
        """All arrows as (src, dst, color), sorted."""
        vid = self.ids.__getitem__
        out = []
        for i, (srcs, dsts) in self.arrows.items():
            out.extend(zip(map(vid, srcs), map(vid, dsts), repeat(i)))
        out.sort()
        return out

    # -- derived data --------------------------------------------------------

    def keep(self, key, compute):
        """compute(self), computed once and kept under key until the next
        add_vertices or add_arrows, so callers share one read-only copy."""
        if key not in self._kept:
            self._kept[key] = compute(self)
        return self._kept[key]

    def tables(self):
        """string_tables(self), kept until the next edit."""
        return self.keep("tables", string_tables)

    # -- structure checks --------------------------------------------------

    def degree_violations(self, i):
        """The G1/G2 violations of color i: vertices with two out- or in-arrows."""
        srcs, dsts = self.arrows[i]
        found = []
        # as many arrows as vertices with a step: no vertex has two
        for rule, ends, step, way in (("G1", srcs, self.down[i], "outgoing"), ("G2", dsts, self.up[i], "incoming")):
            if len(ends) == len(self.ids) - step.count(None):
                continue
            counts = Counter(ends)
            for k in sorted(k for k, c in counts.items() if c > 1):
                found.append(GraphViolation(rule, self.ids[k], f"{counts[k]} {way} {i}-arrows"))
        return found

    def sources(self):
        """The positions with no incoming arrow."""
        return list(compress(range(len(self.ids)), map(((None,) * len(self.up)).__eq__, zip(*self.up.values()))))

    def is_good(self):
        """All G1/G2/G3 violations (empty list means the graph is good), G1/G2
        before G3 per color.  With clean degrees, G3 is read from the string
        tables, which a good graph keeps; cycles are marked only otherwise."""
        n, ids = len(self.ids), self.ids
        degrees = list(map(self.degree_violations, self.colors))
        if not any(degrees):
            try:
                self.tables()
                return []
            except NonTerminating:
                pass
        violations = []
        for i, found in zip(self.colors, degrees):
            violations.extend(found)
            down = self.down[i]
            # cycle detection along the navigation successor map: a walk that
            # meets a position it marked itself has closed a cycle
            walk = [0] * n
            for v in range(n):
                if walk[v]:
                    continue
                mark = v + 1
                u = v
                while u is not None and not walk[u]:
                    walk[u] = mark
                    u = down[u]
                if u is not None and walk[u] == mark:
                    violations.append(GraphViolation("G3", ids[u], f"monochromatic {i}-cycle"))
        return violations

    def maximum_elements(self):
        """The vertices with no incoming arrows that f-reach every vertex."""
        top = self.keep("top", _top_walk)
        return [] if top is None else [self.ids[top[0]]]

    def summit(self):
        """(k0, phi0): the maximum element's position and the string lengths
        phi_i there, its top statistics, or None without a maximum element.
        The one reader of a crystal's top; the tables' NonTerminating passes."""
        top = self.keep("top", _top_walk)
        return None if top is None else (top[0], {i: phi[top[0]] for i, phi in self.tables()[1].items()})

    def weight_codes(self):
        """The BFS weight grading from the maximum element, one integer per
        position: with base n + 1, the count of the c-th color is its base**c
        digit.  The top walk's conflict, an arrow with WT(dst) != WT(src) +
        color (the practical detection of a failed homogeneous local
        confluence), is InconsistentWeight on every call; ValueError without
        a maximum."""
        top = self.keep("top", _top_walk)
        if top is None:
            raise ValueError("no maximum element")
        if top[2] is not None:
            vertex, *codes = top[2]
            raise InconsistentWeight(vertex, *(_decode(c, len(self) + 1, self.colors) for c in codes))
        return top[1]

    def wt_assign(self, x0):
        """weight_codes() decoded from the maximum element x0: {vertex: (color
        multiset dict, dist)}, dist being the multiset's total.  It stays
        only because the benchmark reaches it (perfbench/tracing.py spans
        it, perfbench/stages.py times it); it leaves when they time
        weight_codes instead (ROADMAP item 7)."""
        if self.maximum_elements() != [x0]:
            raise ValueError(f"{x0} is not the maximum element")
        code, weights = self.weight_codes(), self.weights()
        return {v: (dict(weights[c]), sum(weights[c].values())) for v, c in zip(self.ids, code)}

    def weights(self):
        """Each distinct code of weight_codes() decoded: {code: color
        multiset dict}, keyed in color order without its zero counts."""
        return {c: _decode(c, len(self) + 1, self.colors) for c in set(self.weight_codes())}

    def reverse(self):
        """New graph with every arrow reversed; colors and labels kept."""
        rev = ColoredGraph(self.colors, cartan=self.cartan)
        rev.ids, rev.labels = list(self.ids), list(self.labels)
        for i in self.colors:
            rev.up[i], rev.down[i] = list(self.down[i]), list(self.up[i])
            srcs, dsts = self.arrows[i]
            rev.arrows[i] = (list(dsts), list(srcs))
        return rev


def closure(top, colors, lower, complete, budget):
    """The closure of top under lowering, as a graph labelled by the elements.

    An element is a named tuple of one key per color, in color order, and
    each key alone names the element.  lower(m, i) is the key of m's
    i-child, or None where f_i is undefined at m; complete(key, i), the
    model's transition map, builds the child only when no vertex has that
    key yet, so once per new vertex.  If another key of the new child
    already names a vertex, the map is not injective and DuplicateEdge is
    raised at once, so no two arrows of one color reach one vertex.  BFS
    order (FIFO, colors in the given order) fixes the ids 0, 1, ...; the
    top vertex counts against the budget.  The graph is loaded in bulk.
    """
    if budget < 1:  # the top vertex counts
        raise BudgetExceeded(f"vertex budget {budget} exceeded")
    labels, index = [top], [{key: 0} for key in top]  # the vertex with id k is labels[k]
    steps = [(i, seen, [], []) for i, seen in zip(colors, index)]  # color, its key index, its arrows
    for k, m in enumerate(labels):  # labels grows as the BFS queue
        for i, found, srcs, dsts in steps:
            key = lower(m, i)
            if key is None:
                continue
            c = found.get(key)
            if c is None:
                child, c = complete(key, i), len(labels)
                for q, side in enumerate(child):
                    j = index[q].setdefault(side, c)
                    if j != c:
                        raise DuplicateEdge(f"the {i}-arrow from vertex {k} reaches {child}, whose {child._fields[q]} "
                                            f"side names vertex {j}: the transition map is not injective")
                if c >= budget:
                    raise BudgetExceeded(f"vertex budget {budget} exceeded")
                labels.append(child)
            srcs.append(k)
            dsts.append(c)
    for seen in index:  # the indexes go before the graph is built, to keep the peak down
        seen.clear()
    g = ColoredGraph(colors)
    g.add_vertices(range(len(labels)), labels)
    for i, _, srcs, dsts in steps:
        g.add_arrows(i, srcs, dsts)
    return g


def _top_walk(g):
    """(k0, codes, conflict) if the sole source k0 f-reaches every vertex (no
    vertex reaches another source), else None.  Breadth first from k0, colors
    in g.colors order; conflict is None, or the vertex id and its two codes
    at the first arrow that breaks the grading, past which the walk goes on."""
    n, colors = len(g.ids), g.colors
    sources = g.sources()
    if len(sources) != 1:
        return None
    (k0,) = sources
    # a count, even in a conflict's second code, is at most n: no digit carries
    base = n + 1
    steps = [(i, g.down[i], base**c) for c, i in enumerate(colors)]
    code = [None] * n
    code[k0] = 0
    conflict = None
    queue = [k0]
    for u in queue:
        cu = code[u]
        for i, down, inc in steps:
            v = down[u]
            if v is None:
                continue
            cv = code[v]
            if cv is None:
                code[v] = cu + inc
                queue.append(v)
            elif cv != cu + inc and conflict is None:
                conflict = g.ids[v], cv, cu + inc
    return (k0, code, conflict) if len(queue) == n else None


def _decode(code, base, colors):
    """The color multiset of a weight code: the c-th color counts its
    base**c digit; zero counts are left out."""
    return {i: t for k, i in enumerate(colors) if (t := code // base**k % base)}


def string_tables(g):
    """eps/phi of every position for every color, in O(V) per color.

    Returns (eps, phi), each mapping a color to a list over positions, from
    two counting walks down each string from its head.  NonTerminating on a
    walk past n steps or a position no head reaches: with clean degrees,
    exactly when a monochromatic cycle exists.
    """
    n = len(g.ids)
    eps, phi = {}, {}
    for i in g.colors:
        down = g.down[i]
        e, p = [None] * n, [None] * n
        for v in compress(range(n), map(is_, g.up[i], repeat(None))):
            k, w = 0, v
            while w is not None:
                e[w] = k
                k += 1
                if k > n:
                    raise NonTerminating(f"monochromatic {i}-cycle through {g.ids[v]}")
                w = down[w]
            w = v
            while w is not None:
                k -= 1
                p[w] = k
                w = down[w]
        eps[i], phi[i] = e, p
    for i in g.colors:
        if None in eps[i]:
            raise NonTerminating(f"some {i}-string has no head (cycle)")
    return eps, phi
