"""The fixed reference task that turns raw timings into nominal ones.

Every timing the benchmark reports is divided by the mean duration of this
task, measured in the same process right before and right after it, and
multiplied by REF_NOMINAL.  Machine-wide drift (frequency changes, noisy
neighbours) slows the task and the program alike, so the ratio holds while
raw times wander.  The mix of
dict chasing, tuple arithmetic, a BFS and a sort/join mirrors what the
program itself does; a single narrow loop tracked the drift badly.

Neither REF_VERSION's task nor REF_NOMINAL may change once a baseline has
been recorded against them: both commits of a comparison must divide by the
same work.
"""

import time

REF_VERSION = 1
REF_NOMINAL = 0.060  # seconds; a nominal time is raw * REF_NOMINAL / ref

_N = 3000
_CHECKSUM = None


def _work():
    # dict chasing along a fixed permutation
    nxt = {i: (i * 1103 + 17) % _N for i in range(_N)}
    v = 0
    for _ in range(200000):
        v = nxt[v]
    # tuple arithmetic, shaped like the transition-map kernels
    t = (3, 1, 4, 1)
    acc = 0
    for k in range(40000):
        a1, a2, a3, a4 = t
        hi = a2 if a2 >= a4 else a4
        t = ((hi + a3 + k) % 97, (a1 + 2 * a2) % 89, (a3 + a4 + 1) % 83, (a1 if a1 <= a3 else a3))
        acc += t[0] - t[3]
    # BFS over a grid graph stored as adjacency dicts
    side = 110
    adj = {}
    for x in range(side):
        for y in range(side):
            nb = []
            if x + 1 < side:
                nb.append((x + 1, y))
            if y + 1 < side:
                nb.append((x, y + 1))
            adj[(x, y)] = nb
    dist = {(0, 0): 0}
    frontier = [(0, 0)]
    while frontier:
        nxt_frontier = []
        for u in frontier:
            du = dist[u] + 1
            for w in adj[u]:
                if w not in dist:
                    dist[w] = du
                    nxt_frontier.append(w)
        frontier = nxt_frontier
    # sort and join
    words = sorted(f"{(i * 7919) % 10007:05d}" for i in range(27000))
    text = ",".join(words)
    return v + acc + sum(dist.values()) + len(text)


def reference_seconds():
    """Run the reference task once; return its raw duration in seconds."""
    global _CHECKSUM
    t0 = time.perf_counter()
    out = _work()
    t1 = time.perf_counter()
    if _CHECKSUM is None:
        _CHECKSUM = out
    elif out != _CHECKSUM:
        raise RuntimeError("reference task is not deterministic")
    return t1 - t0
