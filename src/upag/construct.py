"""Turning an attachment history into a scaffold tree plus a reduced string.

Every vertex after the seed keeps exactly one of its targets as a tree
parent — the target whose symbol is rarest overall — and sheds the rest
into a flat string.  Deleting the rarest symbol from each block can only
flatten the symbol distribution, so the leftover string compresses at
least as well per character as the full target string.  The vertices are
then renamed in BFS order of the scaffold, ranked by their root-to-vertex
label paths with prefix doubling, so the tree needs no labels.

``reduce_string`` applies the same per-block rule (``_drop_rarest``) to any
string of orderable symbols, and derives the paper's step-by-step account
of it (the order in which blocks are flagged and the position picked in
the sorted string each step) in closed form, not by replaying the steps.

``peel_edges`` inverts generation: from the edge arrays of an undirected
multigraph under any labelling, it recovers an attachment history and the
arrival order behind it.  The split feeds ``CompressedGraph`` with a
scaffold; the form without one stores the target string as is.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from .graph_model import Dag, ModelError, adjacency_string, in_degrees

_FAR = np.iinfo(np.int64).max


def freq_rank(d: Dag, tie: str = "index") -> np.ndarray:
    """Rank all vertices by ascending in-degree; ``rank[v]`` is v's rank.

    Rarely-targeted vertices get small ranks.  Ties are broken by vertex
    index ("index", default) or by first appearance among the targets
    ("first-target", vertices never targeted last).
    """
    nv = d.n_vertices
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


def _drop_rarest(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-block deletion, on a (blocks, m) matrix of frequency ranks:
    ``drop``, the column of each block's first lowest-rank entry, and
    ``keep``, the mask of every other entry."""
    drop = np.argmin(ranks, axis=1)
    keep = np.ones(ranks.shape, dtype=bool)
    keep[np.arange(ranks.shape[0]), drop] = False
    return drop, keep


def build(d: Dag, tie: str = "index") -> BuildResult:
    """Split an attachment history into tree parents and leftover targets."""
    sigma = freq_rank(d, tie)
    n, m = d.n, d.m
    nv = d.n_vertices
    parents = np.full(nv, -1, dtype=np.int64)
    if n:
        drop, keep = _drop_rarest(sigma[d.targets])
        parents[1:] = d.targets[np.arange(n), drop]
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

    A vertex's key is its root-to-vertex label path, padded at the root
    end with a mark that sorts below every label: shallower vertices sort
    first, and within a depth the order is preorder, which in an ordered
    tree is the BFS order.  Prefix doubling ranks the paths: each round
    pairs a vertex's rank with that of its 2^k-th ancestor (the mark, -1,
    when there is none), re-ranks the pairs and doubles the jump, so there
    are ceil(lg(depth + 1)) numpy rounds.
    """
    nv = parents.size
    anc = np.append(np.where(parents >= 0, parents, nv), nv)  # nv: no such vertex
    key = np.append(np.arange(nv, dtype=np.int64), -1)
    while (anc < nv).any():
        key[np.argsort(key[anc[:nv]] * nv + key[:nv])] = np.arange(nv)
        anc = anc[anc]
    return key[:nv]


def peel_edges(nv: int, us, vs, m: int) -> tuple[Dag, np.ndarray]:
    """Recover *an* attachment history of an arbitrarily-labelled multigraph.

    The graph has vertices ``0..nv-1`` and one undirected edge ``us[k]``-
    ``vs[k]`` per row, parallel edges repeated.  The vertex labels need not
    equal arrival order.  Vertices of residual degree ``m`` are removed
    until only the seed pair remains; removal order, reversed, is an
    arrival order consistent with the graph.  Ties go to the lowest label.

    Residual degrees only fall, one step per edge to a removed vertex, so a
    vertex enters the ready heap at most once, on reaching m.  A removed
    vertex had degree m and later steps keep it below m for good, so the
    test ``deg == m`` at pop time alone turns away stale entries.

    Returns ``(dag, order)`` where ``order[k]`` is the original label of
    the vertex arriving k-th.  When several arrival orders exist, they all
    assign the instance the same probability as long as no block beyond
    the seed's repeats a target.
    """
    if m < 1:
        raise ModelError("need m >= 1")
    if nv == 0:
        raise ModelError("graph has no vertices")
    us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
    ends = np.concatenate([us, vs])
    if ends.size and (ends.min() < 0 or ends.max() >= nv):
        raise ModelError(f"vertex label out of range 0..{nv - 1}")
    if (us == vs).any():
        raise ModelError("self-loop in edge list")
    if nv == 1:
        return Dag(m, np.zeros((0, m), dtype=np.int64)), np.zeros(1, dtype=np.int64)
    # neighbour lists grouped by vertex (in any order: the heap orders by
    # label), from one sort of row * nv + neighbour over both edge directions
    count = np.bincount(ends, minlength=nv)
    nbr = (np.sort(np.concatenate([us * nv + vs, vs * nv + us])) % nv).tolist()
    start = np.concatenate([[0], np.cumsum(count)]).tolist()
    deg = count.tolist()
    ready = np.flatnonzero(count == m).tolist()     # ascending, so a heap
    removed: list[int] = []
    pop, push = heapq.heappop, heapq.heappush
    for _ in range(nv - 2):
        while ready:
            v = pop(ready)
            if deg[v] == m:
                break
        else:
            raise ModelError("peeling stalled: graph was not grown by preferential attachment")
        removed.append(v)
        for u in nbr[start[v]:start[v + 1]]:
            deg[u] -= 1
            if deg[u] == m:
                push(ready, u)
    u0, u1 = np.flatnonzero(np.bincount(removed, minlength=nv) == 0).tolist()
    # both residual degrees of the last two vertices count their joint edges
    if deg[u0] != m:
        raise ModelError("peeling left no m-fold seed pair; not an attachment graph")
    order = np.array([u0, u1] + removed[::-1], dtype=np.int64)
    place = np.empty(nv, dtype=np.int64)
    place[order] = np.arange(nv)
    # every edge runs from its later-arriving end to the earlier one
    a, b = place[us], place[vs]
    arcs = np.sort(np.maximum(a, b) * nv + np.minimum(a, b))
    return Dag(m, (arcs % nv).reshape(nv - 1, m)), order


@dataclass
class LfcResult:
    """Outcome of the block-wise string reduction, read as steps over S."""

    reduced: object                  # same type as the input string
    sigma: dict                      # symbol -> 0-based frequency rank
    flag_order: list[int]            # 1-based block indices, in step order
    selected_indices: list[int]      # 1-based position in S chosen each step
    deleted: list                    # symbol removed from each block (block order)
    trace: list | None = field(default=None, repr=False)


def reduce_string(s, block_size: int, want_trace: bool = False) -> LfcResult:
    """Delete from each block its leftmost letter in the sorted string S.

    S lists the symbols of ``s`` by ascending frequency, ties by symbol,
    and a symbol's rank is its place in that order.  Each block loses the
    first occurrence of its lowest-rank symbol, ``build``'s rule.  Read as
    the paper's steps over S, which flag one block each, the rest follows
    in closed form: the blocks are flagged by (rank of the deleted symbol,
    block index), and the step that flags block j picks S position 1 +
    the letters of lower rank + the occurrences of j's deleted symbol in
    the blocks flagged before j.
    """
    if block_size < 1:
        raise ValueError("block size must be positive")
    seq = list(s)
    if len(seq) % block_size:
        raise ValueError(f"length {len(seq)} is not a multiple of block size {block_size}")
    n = len(seq) // block_size
    # hash each letter once, to where its symbol first occurs, and number
    # those first occurrences in symbol order
    first: dict = {}
    at = np.fromiter(map(first.setdefault, seq, range(len(seq))), dtype=np.int64, count=len(seq))
    syms = sorted(set(first))       # a set of ints iterates nearly sorted
    nsym = len(syms)
    code = np.empty(len(seq), dtype=np.int64)
    code[np.fromiter(map(first.__getitem__, syms), dtype=np.int64, count=nsym)] = np.arange(nsym)
    codes = code[at]
    order = np.argsort(np.bincount(codes, minlength=nsym), kind="stable")
    rank = np.empty(nsym, dtype=np.int64)
    rank[order] = np.arange(nsym)
    ranks = rank[codes].reshape(n, block_size)

    drop, keep = _drop_rarest(ranks)
    lost = ranks[np.arange(n), drop]
    flag = np.argsort(lost * n + np.arange(n))  # step order: by lost rank, then block
    when = np.empty(n, dtype=np.int64)
    when[flag] = np.arange(n)
    # a letter's place in S: by rank, then by the step that flags its block
    place = np.sort(ranks * n + when[:, None], axis=None)
    selected = (place.searchsorted(lost[flag] * n + np.arange(n)) + 1).tolist()

    deleted = list(compress(seq, (~keep).ravel().tolist()))
    out = list(compress(seq, keep.ravel().tolist()))
    trace = None
    if want_trace:
        trace, drop = [], drop.tolist()
        for t, (j, k) in enumerate(zip(flag.tolist(), selected)):
            after = seq[j * block_size:(j + 1) * block_size]
            after[drop[j]] = None
            trace.append({"step": t + 1, "symbol": deleted[j], "s_index": k, "block": j + 1,
                          "after": tuple(after)})
    return LfcResult(
        reduced="".join(out) if isinstance(s, str) else out,
        sigma=dict(zip(map(syms.__getitem__, order.tolist()), range(nsym))),
        flag_order=(flag + 1).tolist(),
        selected_indices=selected,
        deleted=deleted,
        trace=trace,
    )
