"""Plain-list reference implementations used to cross-check the compressed
structures in tests and selfchecks.  Everything here is deliberately naive:
O(n^2) memory is fine, cleverness is not; only ``selfcheck``, which the CLI
runs on whole files, keeps to linear memory."""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .construct import build
from .errors import OutOfRangeError
from .graph_model import Dag


def _grouped(src: np.ndarray, dst: np.ndarray, nv: int) -> list[list[int]]:
    """src values grouped per dst value, original order preserved inside."""
    counts = np.bincount(dst, minlength=nv)
    order = np.argsort(dst, kind="stable")
    return [g.tolist() for g in np.split(src[order], np.cumsum(counts)[:-1])]


class NaiveGraph:
    """Adjacency lists + matrix for a graph given as scaffold-tree parents
    plus the leftover target string, or, with ``tree_parents=None``, as the
    whole target string (the form without a scaffold)."""

    def __init__(self, m: int, n: int, tree_parents, string):
        self.m = m
        self.n = n
        nv = n + 1
        src = np.arange(1, nv)
        w = m if tree_parents is None else m - 1
        rest = np.asarray(string, dtype=np.int64).reshape(n, w)
        if tree_parents is None:
            rows = rest
            kid_groups = [[] for _ in range(nv)]
        else:
            par = np.asarray(tree_parents, dtype=np.int64)
            rows = np.column_stack([par[1:, None], rest])
            kid_groups = _grouped(src, par[1:], nv)
        self.out_lists: list[list[int]] = [[]] + [r.tolist() for r in rows]
        # in-lists: tree children (ascending) first, then string occurrences
        # in position order — same order the compressed form reports
        s_groups = _grouped(np.repeat(src, w), rest.ravel(), nv)
        self.in_lists = [kg + sg for kg, sg in zip(kid_groups, s_groups)]
        a, b = self._ends = np.repeat(src, m), rows.ravel()
        self._codes = np.sort(np.minimum(a, b) * nv + np.maximum(a, b))

    @cached_property
    def mult(self) -> np.ndarray:
        """(n+1, n+1) matrix of edge multiplicities."""
        a, b = self._ends
        mult = np.zeros((self.n + 1, self.n + 1), dtype=np.int64)
        np.add.at(mult, (a, b), 1)
        np.add.at(mult, (b, a), 1)
        return mult

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.mult > 0

    def degree_in(self, v: int) -> int:
        return len(self.in_lists[v])

    def degree_out(self, v: int) -> int:
        return len(self.out_lists[v])

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.matrix[u, v]) and u != v

    def multiplicity_batch(self, us, vs) -> np.ndarray:
        """Edges joining each pair, from the sorted edge codes (no matrix)."""
        us, vs = np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)
        key = np.minimum(us, vs) * (self.n + 1) + np.maximum(us, vs)
        cnt = np.searchsorted(self._codes, key, "right") - np.searchsorted(self._codes, key)
        return np.where(us == vs, 0, cnt)


def _flat(lists: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Owner index, 1-based index and value of every entry of ``lists``."""
    counts = np.array([len(x) for x in lists], dtype=np.int64)
    owner = np.repeat(np.arange(counts.size), counts)
    idx = np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    vals = np.array([x for lst in lists for x in lst], dtype=np.int64)
    return owner, idx, vals


def selfcheck(g, d: Dag, tie="index", rng: np.random.Generator | None = None
              ) -> tuple[int, str | None]:
    """Check a compressed graph against the instance it was built from.

    With a scaffold, ``g`` must have been built from ``d`` with tie-break
    ``tie``; without one it stores ``d`` as is.  Four batch calls check
    the in-degrees of a vertex sample (every vertex up to 2,001 of them),
    every out-edge and every in-edge of the sample, then adjacency over all
    pairs (up to 301 vertices) or 10,000 random pairs.  Returns the number
    of answers verified and the first mismatch, or None.
    """
    if (g.m, g.n) != (d.m, d.n):
        return 0, f"MISMATCH shape m/n got={(g.m, g.n)} want={(d.m, d.n)}"
    if g.tree is None:
        ref = NaiveGraph(d.m, d.n, None, d.targets)
    else:
        built = build(d, tie=tie)
        ref = NaiveGraph(built.m, built.n, built.tree_parents, built.nontree)
    rng = np.random.default_rng(0) if rng is None else rng
    nv = d.n + 1
    verts = np.arange(nv) if nv <= 2001 else np.sort(rng.choice(nv, 2000, replace=False))
    if nv <= 301:
        us, ws = (a.ravel() for a in np.meshgrid(np.arange(nv), np.arange(nv), indexing="ij"))
    else:
        us, ws = rng.integers(0, nv, 10000), rng.integers(0, nv, 10000)
    ov, oi, o_want = _flat([ref.out_lists[v] for v in verts])
    iv, ii, i_want = _flat([ref.in_lists[v] for v in verts])
    ov, iv = verts[ov], verts[iv]
    suite = [
        ("degree_in", "v", g.degree_in_batch, (verts,),
         np.array([ref.degree_in(v) for v in verts], dtype=np.int64)),
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
