"""Turning an attachment history into a scaffold tree plus a reduced string.

Every vertex after the seed keeps exactly one of its targets as a tree
parent — the target whose symbol is rarest overall — and sheds the rest
into a flat string.  Deleting the rarest symbol from each block can only
flatten the symbol distribution, so the leftover string compresses at
least as well per character as the full target string.

``peel_edges`` inverts generation: from the edge arrays of an undirected
multigraph under any labelling, it recovers an attachment history and the
arrival order behind it.  The split feeds ``CompressedGraph`` with a
scaffold; the form without one stores the target string as is.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .graph_model import Dag, ModelError, adjacency_string, in_degrees

_FAR = np.iinfo(np.int64).max


def freq_rank(d: Dag, tie: str | np.ndarray = "index") -> np.ndarray:
    """Rank all vertices by ascending in-degree; ``rank[v]`` is v's rank.

    Rarely-targeted vertices get small ranks.  Ties are broken by vertex
    index ("index", default), by first appearance among the targets
    ("first-target", vertices never targeted last), or by an explicit
    permutation of 0..n passed as an array.
    """
    nv = d.n_vertices
    if isinstance(tie, str):
        indeg = in_degrees(d)
        idx = np.arange(nv, dtype=np.int64)
        if tie == "index":
            order = np.lexsort((idx, indeg))
        elif tie == "first-target":
            a = adjacency_string(d)
            first = np.full(nv, _FAR, dtype=np.int64)
            if a.size:
                np.minimum.at(first, a, np.arange(a.size, dtype=np.int64))
            order = np.lexsort((idx, first, indeg))
        else:
            raise ValueError(f"unknown tie-break {tie!r}")
    else:
        order = np.asarray(tie, dtype=np.int64)
        if order.shape != (nv,) or not np.array_equal(np.sort(order), np.arange(nv)):
            raise ValueError("explicit rank order must be a permutation of the vertices")
    rank = np.empty(nv, dtype=np.int64)
    rank[order] = np.arange(nv, dtype=np.int64)
    return rank


@dataclass
class BuildResult:
    """Scaffold tree + leftover target string, in both labellings."""

    m: int
    n: int
    sigma: np.ndarray            # vertex -> frequency rank
    parents: np.ndarray          # original labels; parents[0] == -1
    relabel: np.ndarray          # original label -> BFS label
    inverse: np.ndarray          # BFS label -> original label
    tree_parents: np.ndarray     # BFS labels; parent[j] < j, non-decreasing
    nontree: np.ndarray          # leftover targets, BFS labels, len n*(m-1)
    nontree_orig: np.ndarray     # same deletions, original labels and block order


def build(d: Dag, tie: str | np.ndarray = "index") -> BuildResult:
    """Split an attachment history into tree parents and leftover targets."""
    sigma = freq_rank(d, tie)
    n, m = d.n, d.m
    nv = d.n_vertices
    parents = np.full(nv, -1, dtype=np.int64)
    if n:
        keyed = sigma[d.targets]                 # (n, m) ranks
        drop = np.argmin(keyed, axis=1)          # first occurrence of the rarest
        parents[1:] = d.targets[np.arange(n), drop]
        keep = np.ones((n, m), dtype=bool)
        keep[np.arange(n), drop] = False
        nontree_orig = d.targets[keep].reshape(n, m - 1)
    else:
        nontree_orig = np.zeros((0, max(m - 1, 0)), dtype=np.int64)

    relabel = _bfs(parents)
    inverse = np.empty(nv, dtype=np.int64)
    inverse[relabel] = np.arange(nv, dtype=np.int64)

    tree_parents = np.full(nv, -1, dtype=np.int64)
    if n:
        tree_parents[1:] = relabel[parents[inverse[1:]]]
        nontree = relabel[nontree_orig[inverse[1:] - 1]].reshape(-1)
    else:
        nontree = np.zeros(0, dtype=np.int64)
    return BuildResult(
        m=m,
        n=n,
        sigma=sigma,
        parents=parents,
        relabel=relabel,
        inverse=inverse,
        tree_parents=tree_parents,
        nontree=nontree,
        nontree_orig=nontree_orig.reshape(-1),
    )


def _bfs(parents: np.ndarray) -> np.ndarray:
    """BFS rank of every vertex, children taken in ascending label order.

    In an ordered tree the vertices of one depth come in the same order in
    preorder as in BFS, so the BFS rank sorts by depth, then by preorder.
    """
    order = np.lexsort((_preorder(parents), _depths(parents)))
    rank = np.empty(parents.size, dtype=np.int64)
    rank[order] = np.arange(parents.size, dtype=np.int64)
    return rank


def _depths(parents: np.ndarray) -> np.ndarray:
    """Depth of every vertex (the root, ``parents == -1``, has 0), by
    pointer doubling: O(log depth) numpy rounds."""
    depth = (parents >= 0).astype(np.int64)
    jump = parents.copy()
    live = np.flatnonzero(jump >= 0)
    while live.size:
        to = jump[live]
        depth[live] += depth[to]
        jump[live] = jump[to]
        live = live[jump[live] >= 0]
    return depth


def _preorder(parents: np.ndarray) -> np.ndarray:
    """Preorder rank of every vertex, children taken in ascending label order.

    The preorder successor of v is its first child, else the next sibling
    of its nearest ancestor-or-self that has one.  Children and siblings
    come from one stable sort by parent; the ancestor, and then every
    vertex's distance to the end of the successor list, come from pointer
    jumping, so the number of numpy rounds is logarithmic in the depth and
    the size rather than linear in the depth.
    """
    nv = parents.size
    end = nv                                     # sentinel: no such vertex
    up = np.where(parents >= 0, parents, end)
    kids = np.argsort(up[1:], kind="stable") + 1  # by parent, then label
    pk = up[kids]
    first = np.diff(pk, prepend=-1) != 0
    succ = np.full(nv + 1, end, dtype=np.int64)
    succ[pk[first]] = kids[first]                # first child
    sib = np.full(nv + 1, end, dtype=np.int64)
    sib[kids[:-1][~first[1:]]] = kids[1:][~first[1:]]
    hop = np.append(np.where(sib[:nv] != end, np.arange(nv), up), end)
    live = np.flatnonzero((hop != end) & (sib[hop] == end))
    while live.size:
        hop[live] = hop[hop[live]]
        live = live[(hop[live] != end) & (sib[hop[live]] == end)]
    succ[:nv] = np.where(succ[:nv] != end, succ[:nv], sib[hop[:nv]])
    dist = np.ones(nv + 1, dtype=np.int64)       # vertices from here to the end
    dist[end] = 0
    live = np.flatnonzero(succ != end)
    while live.size:
        to = succ[live]
        dist[live] += dist[to]
        succ[live] = succ[to]
        live = live[succ[live] != end]
    return nv - dist[:nv]


def peel_edges(nv: int, us, vs, m: int,
               rng: np.random.Generator | None = None) -> tuple[Dag, np.ndarray]:
    """Recover *an* attachment history of an arbitrarily-labelled multigraph.

    The graph has vertices ``0..nv-1`` and one undirected edge ``us[k]``-
    ``vs[k]`` per row, parallel edges repeated.  The vertex labels need not
    equal arrival order.  Vertices of residual
    degree ``m`` are removed until only the seed pair remains; removal
    order, reversed, is an arrival order consistent with the graph.  Ties
    go to the lowest label, or to a uniform pick when ``rng`` is given
    (used by :func:`peel_ambiguity`).

    Returns ``(dag, order)`` where ``order[k]`` is the original label of
    the vertex arriving k-th.  When several arrival orders exist, they all
    assign the instance the same probability as long as no block beyond
    the seed's repeats a target.
    """
    if m < 1:
        raise ModelError("need m >= 1")
    if nv == 0:
        raise ModelError("graph has no vertices")
    if nv == 1:
        return Dag(m, np.zeros((0, m), dtype=np.int64)), np.zeros(1, dtype=np.int64)
    us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    if (us == vs).any():
        raise ModelError("self-loop in edge list")
    keys, mult = np.unique(np.minimum(us, vs) * nv + np.maximum(us, vs), return_counts=True)
    lo, hi = np.divmod(keys, nv)
    # adjacency in both directions, grouped by vertex
    rows = np.concatenate([lo, hi])
    by = np.argsort(rows, kind="stable")
    nbr = np.concatenate([hi, lo])[by].tolist()
    cnt = np.concatenate([mult, mult])[by].tolist()
    start = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nv))]).tolist()
    deg = np.bincount(np.concatenate([us, vs]), minlength=nv).tolist()
    alive = [True] * nv
    removed: list[int] = []
    ready = [v for v in range(nv) if deg[v] == m]    # ascending, so a heap
    pop, push = heapq.heappop, heapq.heappush
    for _ in range(nv - 2):
        v = -1
        if rng is None:
            while ready:
                w = pop(ready)
                if alive[w] and deg[w] == m:
                    v = w
                    break
        else:
            pool = [w for w in range(nv) if alive[w] and deg[w] == m]
            if pool:
                v = pool[int(rng.integers(0, len(pool)))]
        if v < 0:
            raise ModelError("peeling stalled: graph was not grown by preferential attachment")
        alive[v] = False
        removed.append(v)
        for u, c in zip(nbr[start[v]:start[v + 1]], cnt[start[v]:start[v + 1]]):
            if alive[u]:
                deg[u] -= c
                if deg[u] == m and rng is None:
                    push(ready, u)
    # both residual degrees of the last two vertices count their joint edges
    u0, u1 = (i for i, a in enumerate(alive) if a)
    if deg[u0] != m:
        raise ModelError("peeling left no m-fold seed pair; not an attachment graph")
    order = np.array([u0, u1] + removed[::-1], dtype=np.int64)
    place = np.empty(nv, dtype=np.int64)
    place[order] = np.arange(nv)
    # every edge runs from its later-arriving end to the earlier one
    a, b = place[lo], place[hi]
    arcs = np.sort(np.repeat(np.maximum(a, b) * nv + np.minimum(a, b), mult))
    return Dag(m, (arcs % nv).reshape(nv - 1, m)), order


def peel_ambiguity(nv: int, us, vs, m: int, trials: int = 8, seed: int = 0) -> dict:
    """Diagnostic: do randomized re-peels all recover the same history?

    Re-runs :func:`peel_edges` on the same edge arrays with random choices
    among the eligible vertices and counts distinct recovered block
    matrices.  More than one variant means the arrival order is not
    determined by the graph alone (every variant is still an equally likely
    history when no block beyond the seed's repeats a target).
    """
    base, _ = peel_edges(nv, us, vs, m)
    seen = {base.targets.tobytes()}
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        d, _ = peel_edges(nv, us, vs, m, rng=rng)
        seen.add(d.targets.tobytes())
    return {"ambiguous": len(seen) > 1, "variants": len(seen), "trials": trials}


@dataclass
class LfcResult:
    """Outcome of the step-by-step string reduction."""

    reduced: object                  # same type as the input string
    sigma: dict                      # symbol -> 0-based frequency rank
    flag_order: list[int]            # 1-based block indices, in step order
    selected_indices: list[int]      # 1-based position in S chosen each step
    deleted: list                    # symbol removed from each block (block order)
    trace: list | None = field(default=None, repr=False)


def reduce_string(s, block_size: int, want_trace: bool = False) -> LfcResult:
    """Delete from each block its leftmost letter in the sorted string S.

    S lists the symbols of ``s`` by ascending frequency.  Each step takes
    the leftmost surviving letter of S, flags the first unflagged block
    containing it, crosses out one S-occurrence of every letter of that
    block, and deletes the chosen letter's first occurrence inside the
    block.  The concatenated survivors form the reduced string.
    """
    if block_size < 1:
        raise ValueError("block size must be positive")
    seq = list(s)
    if len(seq) % block_size:
        raise ValueError(f"length {len(seq)} is not a multiple of block size {block_size}")
    n = len(seq) // block_size
    blocks = [seq[i * block_size : (i + 1) * block_size] for i in range(n)]

    counts = Counter(seq)
    order = sorted(counts, key=lambda x: (counts[x], x))
    sigma = {sym: r for r, sym in enumerate(order)}
    start = {}
    acc = 0
    for sym in order:
        start[sym] = acc
        acc += counts[sym]

    holding: dict = {sym: [] for sym in order}      # blocks that contain sym
    for j, blk in enumerate(blocks):
        for sym in dict.fromkeys(blk):
            holding[sym].append(j)
    hold_ptr = {sym: 0 for sym in order}

    consumed = {sym: 0 for sym in order}            # leading lambdas per S-region
    flagged = [False] * n
    deleted_pos = [-1] * n
    flag_order: list[int] = []
    selected: list[int] = []
    trace: list[dict] | None = [] if want_trace else None

    rank_ptr = 0
    for _step in range(n):
        while consumed[order[rank_ptr]] == counts[order[rank_ptr]]:
            rank_ptr += 1
        c = order[rank_ptr]
        k = start[c] + consumed[c] + 1              # 1-based position in S
        lst = holding[c]
        p = hold_ptr[c]
        while p < len(lst) and flagged[lst[p]]:
            p += 1
        hold_ptr[c] = p
        if p == len(lst):
            raise RuntimeError("no unflagged block holds the selected symbol")
        j = lst[p]
        flagged[j] = True
        for sym in blocks[j]:
            consumed[sym] += 1
            if consumed[sym] > counts[sym]:
                raise RuntimeError("crossed out more occurrences than exist")
        deleted_pos[j] = blocks[j].index(c)
        flag_order.append(j + 1)
        selected.append(k)
        if trace is not None:
            after = tuple(
                None if i == deleted_pos[j] else x for i, x in enumerate(blocks[j])
            )
            trace.append(
                {"step": _step + 1, "symbol": c, "s_index": k, "block": j + 1, "after": after}
            )

    out = [x for j, blk in enumerate(blocks) for i, x in enumerate(blk) if i != deleted_pos[j]]
    reduced = "".join(out) if isinstance(s, str) else out
    deleted = [blocks[j][deleted_pos[j]] for j in range(n)]
    return LfcResult(
        reduced=reduced,
        sigma=sigma,
        flag_order=flag_order,
        selected_indices=selected,
        deleted=deleted,
        trace=trace,
    )
