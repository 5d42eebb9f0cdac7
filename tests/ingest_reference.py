"""Step-by-step reference implementations of the ingest path.

These are the plain loops that the array code in ``pa_gen``, ``construct``
and ``cli`` replaces: one draw per step for the generator, one step at a
time for the exact and the float surprisal, an adjacency-counter multigraph
for peeling, an explicit stack for the preorder and a FIFO queue for the BFS
order.  The tests compare the array code against them; nothing in the
package imports this module.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, deque
from fractions import Fraction
from typing import Iterable

import numpy as np

from upag.graph_model import Dag, ModelError


def sample_targets(rng: np.random.Generator, endpoints: np.ndarray, m: int,
                   reps: int = 1) -> np.ndarray:
    """Draw ``reps`` blocks of ``m`` independent uniform picks from the pool."""
    idx = rng.integers(0, len(endpoints), size=(reps, m))
    return endpoints[idx]


def generate_steps(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Target blocks of an n-step instance, one pool draw of m per step."""
    targets = np.zeros((n, m), dtype=np.int64)
    if n == 0:
        return targets
    pool = np.empty(2 * n * m, dtype=np.int64)   # after step t: 2*t*m entries
    pool[0:m] = 0
    pool[m:2 * m] = 1
    fill = 2 * m
    for t in range(2, n + 1):
        block = sample_targets(rng, pool[:fill], m)[0]
        targets[t - 1] = block
        pool[fill:fill + m] = block
        pool[fill + m:fill + 2 * m] = t
        fill += 2 * m
    return targets


def multinomial(total: int, counts: Iterable[int]) -> int:
    """Exact multinomial coefficient total! / prod(c_i!)."""
    out = 1
    rest = total
    for c in counts:
        out *= math.comb(rest, c)
        rest -= c
    if rest != 0:
        raise ValueError("counts do not sum to total")
    return out


def exact_probability_steps(d: Dag) -> Fraction:
    """P of an instance as a rational, replaying the degrees step by step:
    each step's multinomial over its block's targets times their degree
    ratios at draw time."""
    n, m = d.n, d.m
    deg = [0] * (n + 1)
    if n >= 1:
        deg[0] = m
        deg[1] = m
    pnum, pden = 1, 1
    for t in range(2, n + 1):
        counts = Counter(d.targets[t - 1].tolist())
        step_num = multinomial(m, counts.values())
        for v, c in counts.items():
            step_num *= deg[v] ** c
            deg[v] += c
        pnum *= step_num
        pden *= (2 * (t - 1) * m) ** m
        deg[t] = m
    return Fraction(pnum, pden)


def float_bits_steps(d: Dag) -> float:
    """lg(1/P) in floating point, replaying the degrees step by step."""
    n, m = d.n, d.m
    deg = [0] * (n + 1)
    if n >= 1:
        deg[0] = m
        deg[1] = m
    bits = 0.0
    for t in range(2, n + 1):
        counts = Counter(d.targets[t - 1].tolist())
        lg_pool = math.log2(2 * (t - 1) * m)
        bits += sum(c * (lg_pool - math.log2(deg[v])) for v, c in counts.items())
        bits -= math.log2(multinomial(m, counts.values()))
        for v, c in counts.items():
            deg[v] += c
        deg[t] = m
    return bits


def multigraph(n_vertices: int, pairs) -> list[Counter]:
    """Adjacency counters with one undirected edge per ``(u, v)`` row:
    ``adj[u][v]`` is the number of edges joining u and v."""
    adj: list[Counter] = [Counter() for _ in range(n_vertices)]
    for u, v in pairs:
        u, v = int(u), int(v)
        if u == v:
            raise ModelError("self-loops cannot arise in this model")
        adj[u][v] += 1
        adj[v][u] += 1
    return adj


def edge_multiset(adj: list[Counter]) -> Counter:
    """Counter of undirected edges keyed by (min(u,v), max(u,v))."""
    return Counter({(u, v): k for u, row in enumerate(adj) for v, k in row.items() if u < v})


def dag_edges(d: Dag) -> np.ndarray:
    """(n*m, 2) rows ``(source, target)`` of an instance, in block order."""
    return np.column_stack([np.repeat(np.arange(1, d.n + 1), d.m), d.targets.ravel()])


def same_multigraph(nv: int, pairs_a, pairs_b) -> bool:
    """True when two edge lists on vertices 0..nv-1 hold the same multigraph."""
    return edge_multiset(multigraph(nv, pairs_a)) == edge_multiset(multigraph(nv, pairs_b))


def peel_relabel_counter(adj: list[Counter], m: int) -> tuple[Dag, np.ndarray]:
    """Lowest-label-first peeling over the adjacency counters."""
    nv = len(adj)
    if nv == 1:
        return Dag(m, np.zeros((0, m), dtype=np.int64)), np.zeros(1, dtype=np.int64)
    deg = np.array([sum(row.values()) for row in adj], dtype=np.int64)
    alive = np.ones(nv, dtype=bool)
    removed: list[int] = []
    raw_blocks: list[list[int]] = []
    ready = [v for v in range(nv) if deg[v] == m]
    heapq.heapify(ready)
    while len(removed) < nv - 2:
        v = -1
        while ready:
            w = heapq.heappop(ready)
            if alive[w] and deg[w] == m:
                v = w
                break
        if v < 0:
            raise ModelError("peeling stalled")
        tgt: list[int] = []
        for u, c in adj[v].items():
            if alive[u]:
                tgt.extend([u] * c)
                deg[u] -= c
                if deg[u] == m:
                    heapq.heappush(ready, u)
        alive[v] = False
        deg[v] = 0
        removed.append(v)
        raw_blocks.append(tgt)
    u0, u1 = (int(x) for x in np.flatnonzero(alive))
    if deg[u0] != m or deg[u1] != m or adj[u0].get(u1, 0) < m:
        raise ModelError("no m-fold seed pair")
    order = np.array([u0, u1] + removed[::-1], dtype=np.int64)
    place = np.empty(nv, dtype=np.int64)
    place[order] = np.arange(nv)
    blocks = np.zeros((nv - 1, m), dtype=np.int64)
    for v, tgt in zip(removed, raw_blocks):
        blocks[place[v] - 1] = sorted(place[t] for t in tgt)
    return Dag(m, blocks), order


def preorder_stack(parents: np.ndarray) -> np.ndarray:
    """Preorder rank of every vertex by an explicit stack, children ascending."""
    nv = parents.size
    children: list[list[int]] = [[] for _ in range(nv)]
    for v in range(1, nv):
        children[parents[v]].append(v)
    rank = np.empty(nv, dtype=np.int64)
    stack = [0]
    nxt = 0
    while stack:
        v = stack.pop()
        rank[v] = nxt
        nxt += 1
        stack.extend(reversed(children[v]))
    return rank


def bfs_deque(parents: np.ndarray) -> np.ndarray:
    """BFS rank of every vertex by a FIFO queue, children ascending."""
    nv = parents.size
    children: list[list[int]] = [[] for _ in range(nv)]
    for v in range(1, nv):
        children[parents[v]].append(v)
    rank = np.empty(nv, dtype=np.int64)
    queue = deque([0])
    nxt = 0
    while queue:
        v = queue.popleft()
        rank[v] = nxt
        nxt += 1
        queue.extend(children[v])
    return rank
