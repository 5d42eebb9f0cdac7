"""Reference answers that cross-check the compressed structures: the unit
tests, acceptance criterion 5 and ``upag selfcheck`` all read them.

``NaiveGraph`` derives every expected answer once, as arrays:

* ``rows``: the n x m out-rows, vertex v's i-th target at ``rows[v-1, i-1]``;
* ``indeg`` and ``in_start``: each vertex's in-degree and where its in-edges
  start in ``in_src``;
* ``in_src``: every in-edge's source grouped by target, tree children first
  and then string occurrences, each group in source order (the order the
  compressed form reports), from one stable sort;
* the sorted undirected edge codes, for multiplicity and adjacency.

The per-vertex lists ``out_lists`` and ``in_lists`` and the (n+1)^2
``mult`` matrix are derived from these on first use, for small test
instances.  ``selfcheck``, which the CLI runs on whole files, reads the
arrays by index arithmetic and builds no per-vertex list, so it keeps to
linear memory."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .construct import build
from .errors import OutOfRangeError
from .graph_model import Dag


def _entries(verts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex repeated ``counts`` times, beside its 1-based running index."""
    v = np.repeat(verts, counts)
    return v, np.arange(v.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1


class NaiveGraph:
    """Expected answers for a graph given as scaffold-tree parents plus the
    leftover target string, or, with ``tree_parents=None``, as the whole
    target string (the form without a scaffold)."""

    def __init__(self, m: int, n: int, tree_parents, string):
        self.m = m
        self.n = n
        nv = n + 1
        rows = np.asarray(string, dtype=np.int64).reshape(n, m if tree_parents is None else m - 1)
        if tree_parents is not None:
            par = np.asarray(tree_parents, dtype=np.int64)
            rows = np.column_stack([par[1:, None], rows])
        self.rows = rows
        src, dst = np.repeat(np.arange(1, nv), m), rows.ravel()
        # with a scaffold, each row's first column is the tree edge
        in_tree = (np.arange(dst.size) % m == 0) & (tree_parents is not None)
        self.in_src = src[np.lexsort((~in_tree, dst))]
        self.indeg = np.bincount(dst, minlength=nv)
        self.in_start = np.cumsum(self.indeg) - self.indeg
        self._codes = np.sort(np.minimum(src, dst) * nv + np.maximum(src, dst))

    @cached_property
    def out_lists(self) -> list[list[int]]:
        return [[]] + self.rows.tolist()

    @cached_property
    def in_lists(self) -> list[list[int]]:
        flat = self.in_src.tolist()
        return [flat[a:a + k] for a, k in zip(self.in_start.tolist(), self.indeg.tolist())]

    @cached_property
    def mult(self) -> np.ndarray:
        """(n+1, n+1) matrix of edge multiplicities."""
        a, b = np.repeat(np.arange(1, self.n + 1), self.m), self.rows.ravel()
        mult = np.zeros((self.n + 1, self.n + 1), dtype=np.int64)
        np.add.at(mult, (a, b), 1)
        np.add.at(mult, (b, a), 1)
        return mult

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.mult > 0

    def degree_in(self, v: int) -> int:
        return int(self.indeg[v])

    def degree_out(self, v: int) -> int:
        return self.m if v > 0 else 0

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.matrix[u, v]) and u != v

    def out_edges(self, verts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vertex, 1-based index and target of every out-edge of ``verts``."""
        v, i = _entries(verts, np.where(verts > 0, self.m, 0))
        return v, i, self.rows[v - 1, i - 1]

    def in_edges(self, verts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vertex, 1-based index and source of every in-edge of ``verts``."""
        v, i = _entries(verts, self.indeg[verts])
        return v, i, self.in_src[self.in_start[v] + i - 1]

    def multiplicity_batch(self, us, vs) -> np.ndarray:
        """Edges joining each pair, from the sorted edge codes (no matrix)."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        key = np.minimum(us, vs) * (self.n + 1) + np.maximum(us, vs)
        cnt = np.searchsorted(self._codes, key, "right") - np.searchsorted(self._codes, key)
        return np.where(us == vs, 0, cnt)


def selfcheck(g, d: Dag, tie="index") -> tuple[int, str | None]:
    """Check a compressed graph against the instance it was built from.

    With a scaffold, ``g`` must have been built from ``d`` with tie-break
    ``tie``; without one it stores ``d`` as is.  Four batch calls check
    the in-degrees of a vertex sample (every vertex up to 2,001 of them),
    every out-edge and every in-edge of the sample, then adjacency over all
    pairs (up to 301 vertices) or 10,000 random pairs, both samples drawn
    from seed 0 so that every run checks the same answers.  The expected
    answers are read off ``NaiveGraph``'s arrays.  Returns the number of
    answers verified and the first mismatch, or None.
    """
    if (g.m, g.n) != (d.m, d.n):
        return 0, f"MISMATCH shape m/n got={(g.m, g.n)} want={(d.m, d.n)}"
    if g.tree is None:
        ref = NaiveGraph(d.m, d.n, None, d.targets)
    else:
        built = build(d, tie=tie)
        ref = NaiveGraph(built.m, built.n, built.tree_parents, built.nontree)
    rng = np.random.default_rng(0)
    nv = d.n + 1
    verts = np.arange(nv) if nv <= 2001 else np.sort(rng.choice(nv, 2000, replace=False))
    if nv <= 301:
        us, ws = (a.ravel() for a in np.meshgrid(np.arange(nv), np.arange(nv), indexing="ij"))
    else:
        us, ws = rng.integers(0, nv, 10000), rng.integers(0, nv, 10000)
    ov, oi, o_want = ref.out_edges(verts)
    iv, ii, i_want = ref.in_edges(verts)
    suite = [
        ("degree_in", "v", g.degree_in_batch, (verts,), ref.indeg[verts]),
        ("out_neighbour", "vi", g.out_neighbour_batch, (ov, oi), o_want),
        ("in_neighbour", "vi", g.in_neighbour_batch, (iv, ii), i_want),
        ("adjacent", "uv", g.adjacent_batch, (us, ws), ref.multiplicity_batch(us, ws) > 0),
    ]
    checked = 0
    for name, arg_names, query, args, want in suite:
        try:
            got = query(*args)
        except OutOfRangeError as e:
            return checked, f"MISMATCH {name} raised {e}"
        bad = np.flatnonzero(got != want)
        if bad.size:
            k = int(bad[0])
            where = " ".join(f"{a}={int(x[k])}" for a, x in zip(arg_names, args))
            return checked + k, f"MISMATCH {name} {where} got={got[k]} want={want[k]}"
        checked += want.size
    return checked, None
