"""Compressed attachment graphs with navigational queries.

Two representations share one query vocabulary:

``CompressedGraph``
    The label-free form.  Vertices are renamed to preorder positions of
    the scaffold tree, the tree costs two bits per vertex, and the
    remaining targets sit in an entropy-compressed wavelet tree.  Asking
    for neighbours never decompresses anything.

``LabelledGraph``
    Keeps original vertex names and stores the full target string in a
    wavelet tree.  Costs the label entropy on top of the structure.

Vertex 0 is the seed: out-degree 0, with every other vertex sending it
at least the edges of the first attachment step.
"""

from __future__ import annotations

import numpy as np

from .bptree import BPTree
from .construct import BuildResult, build
from .entropy import h0_bits, worstcase_budget_bits
from .errors import OutOfRangeError
from .graph_model import Dag
from .wavelet import WaveletTree


class CompressedGraph:
    """Preorder-relabelled attachment graph: scaffold tree + leftover targets."""

    def __init__(self, m: int, n: int, tree: BPTree, targets: WaveletTree):
        if tree.n_nodes != n + 1:
            raise ValueError("tree size disagrees with vertex count")
        if targets.length != n * max(m - 1, 0) or targets.sigma != n + 1:
            raise ValueError("target string shape disagrees with (m, n)")
        self.m = m
        self.n = n
        self.tree = tree
        self.targets = targets

    @classmethod
    def from_build(cls, built: BuildResult, mode: str = "rrr") -> "CompressedGraph":
        tree = BPTree(built.tree_parents)
        wt = WaveletTree(built.nontree, sigma=built.n + 1, mode=mode)
        return cls(built.m, built.n, tree, wt)

    @classmethod
    def from_dag(cls, d: Dag, tie="index", mode: str = "rrr") -> "CompressedGraph":
        return cls.from_build(build(d, tie), mode=mode)

    # ---- helpers -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.n + 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v <= self.n:
            raise OutOfRangeError(f"vertex must lie in 0..{self.n}")

    def _slice(self, v: int) -> tuple[int, int]:
        w = self.m - 1
        return (v - 1) * w, v * w

    # ---- out side ----------------------------------------------------------

    def degree_out(self, v: int) -> int:
        self._check_vertex(v)
        return 0 if v == 0 else self.m

    def out_neighbour(self, v: int, i: int) -> int:
        """i-th outgoing edge of v (1-based); edge 1 is the tree parent."""
        self._check_vertex(v)
        if v == 0 or not 1 <= i <= self.m:
            raise OutOfRangeError(f"vertex {v} has {self.degree_out(v)} outgoing edges")
        if i == 1:
            return self.tree.parent(v)
        lo, _ = self._slice(v)
        return self.targets.access(lo + i - 1)  # 1-based access

    def neighbours_out(self, v: int) -> list[int]:
        self._check_vertex(v)
        if v == 0:
            return []
        lo, hi = self._slice(v)
        rest = self.targets.access_batch(np.arange(lo + 1, hi + 1)).tolist()
        return [self.tree.parent(v)] + rest

    # ---- in side -----------------------------------------------------------

    def degree_in(self, v: int) -> int:
        self._check_vertex(v)
        return self.tree.tree_degree(v) + self.targets.occ(v)

    def in_neighbour(self, v: int, i: int) -> int:
        """i-th incoming edge: tree children first, then string occurrences."""
        self._check_vertex(v)
        deg = self.tree.tree_degree(v)
        if 1 <= i <= deg:
            return self.tree.child(v, i)
        try:
            pos = self.targets.select(v, i - deg)      # 1-based position
        except OutOfRangeError:
            raise OutOfRangeError(f"vertex {v} has in-degree {self.degree_in(v)}") from None
        return (pos - 1) // (self.m - 1) + 1

    def neighbours_in(self, v: int) -> list[int]:
        self._check_vertex(v)
        kids = self.tree.children(v)
        occ = self.targets.occ(v)
        if occ == 0:
            return kids
        pos = self.targets.select_batch(np.full(occ, v), np.arange(1, occ + 1))
        src = (pos - 1) // (self.m - 1) + 1
        return kids + src.astype(np.int64).tolist()

    def degree_total(self, v: int) -> int:
        return self.degree_in(v) + self.degree_out(v)

    # ---- adjacency ---------------------------------------------------------

    def adjacent(self, u: int, v: int) -> bool:
        """True when at least one edge joins u and v."""
        return self.multiplicity(u, v) > 0

    def multiplicity(self, u: int, v: int) -> int:
        """Number of parallel edges joining u and v."""
        self._check_vertex(u)
        self._check_vertex(v)
        return int(self.multiplicity_batch([u], [v])[0])

    # ---- batch wrappers ----------------------------------------------------

    def degree_in_batch(self, vs) -> np.ndarray:
        arr = np.asarray(vs, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() > self.n):
            raise OutOfRangeError("vertex out of range")
        occ = self.targets.rank_batch(arr, np.full(arr.size, self.targets.length))
        kids = self.tree.degree_batch(arr)
        return kids + occ

    def out_neighbour_batch(self, vs, idx) -> np.ndarray:
        arr = np.asarray(vs, dtype=np.int64)
        ii = np.asarray(idx, dtype=np.int64)
        if arr.shape != ii.shape:
            raise ValueError("vertex and index arrays must match")
        if arr.size == 0:
            return np.zeros(0, dtype=np.int64)
        if arr.min() < 1 or arr.max() > self.n or ii.min() < 1 or ii.max() > self.m:
            raise OutOfRangeError("query out of range")
        out = np.empty(arr.size, dtype=np.int64)
        first = ii == 1
        if first.any():
            out[first] = self.tree.parent_batch(arr[first])
        rest = ~first
        if rest.any():
            w = self.m - 1
            pos = (arr[rest] - 1) * w + ii[rest] - 1  # 1-based into targets
            out[rest] = self.targets.access_batch(pos)
        return out

    def in_neighbour_batch(self, vs, idx) -> np.ndarray:
        """Vectorised ``in_neighbour``: tree children first, then string hits.

        Tree lanes take their child from one batched i-th-child walk; the
        string lanes go through one batched select.
        """
        arr = np.asarray(vs, dtype=np.int64)
        ii = np.asarray(idx, dtype=np.int64)
        if arr.shape != ii.shape:
            raise ValueError("vertex and index arrays must match")
        if arr.size == 0:
            return np.zeros(0, dtype=np.int64)
        if arr.min() < 0 or arr.max() > self.n or ii.min() < 1:
            raise OutOfRangeError("query out of range")
        out = np.empty(arr.size, dtype=np.int64)
        dt = self.tree.degree_batch(arr)
        from_tree = ii <= dt
        if from_tree.any():
            out[from_tree] = self.tree.child_batch(arr[from_tree], ii[from_tree])
        rest = ~from_tree
        if rest.any():
            try:
                pos = self.targets.select_batch(arr[rest], ii[rest] - dt[rest])
            except OutOfRangeError:
                raise OutOfRangeError("in-edge index beyond in-degree") from None
            out[rest] = (pos - 1) // (self.m - 1) + 1
        return out

    def _block_counts(self, owners: np.ndarray, syms: np.ndarray) -> np.ndarray:
        """How often ``syms[k]`` occurs in the block of vertex ``owners[k]``."""
        cnt = np.zeros(owners.size, dtype=np.int64)
        live = owners >= 1
        if self.m == 1 or not live.any():
            return cnt
        w = self.m - 1
        lo = (owners[live] - 1) * w
        s = syms[live]
        r = self.targets.rank_batch(np.concatenate([s, s]), np.concatenate([lo + w, lo]))
        cnt[live] = r[:s.size] - r[s.size:]
        return cnt

    def multiplicity_batch(self, us, vs) -> np.ndarray:
        ua = np.asarray(us, dtype=np.int64)
        va = np.asarray(vs, dtype=np.int64)
        if ua.shape != va.shape:
            raise ValueError("vertex arrays must match")
        if ua.size == 0:
            return np.zeros(0, dtype=np.int64)
        if min(ua.min(), va.min()) < 0 or max(ua.max(), va.max()) > self.n:
            raise OutOfRangeError("vertex out of range")
        k = ua.size
        both = np.concatenate([ua, va])
        par = self.tree.parent_batch(both)             # -1 for the seed
        blocks = self._block_counts(both, np.concatenate([va, ua]))
        cnt = (par[:k] == va).astype(np.int64) + (par[k:] == ua) + blocks[:k] + blocks[k:]
        cnt[ua == va] = 0
        return cnt

    def adjacent_batch(self, us, vs) -> np.ndarray:
        return self.multiplicity_batch(us, vs) > 0

    # ---- accounting ---------------------------------------------------------

    def target_entropy_bits(self) -> float:
        """H0 of the stored non-tree target string, from occurrence counts."""
        if self.targets.length == 0:
            return 0.0
        counts = self.targets.symbol_counts()
        return h0_bits(counts)

    def space_report(self) -> dict:
        t = self.tree.space_report()
        w = self.targets.space_report()
        payload = t["payload_bits"] + w["payload_bits"]
        directory = t["directory_bits"] + w["directory_bits"]
        metadata = w["presence_bits"]
        return {
            "n": self.n,
            "m": self.m,
            "tree_payload_bits": t["payload_bits"],
            "tree_directory_bits": t["directory_bits"],
            "wt_payload_bits": w["payload_bits"],
            "wt_directory_bits": w["directory_bits"],
            "sigma_eff": w["sigma_eff"],
            "payload_bits": payload,
            "directory_bits": directory,
            "metadata_bits": metadata,
            "total_bits": payload + directory + metadata,
            "worstcase_budget_bits": worstcase_budget_bits(self.n, self.m),
        }


class LabelledGraph:
    """Attachment graph that keeps vertex names: one wavelet tree, no scaffold."""

    def __init__(self, m: int, n: int, targets: WaveletTree):
        if targets.length != n * m or targets.sigma != n + 1:
            raise ValueError("target string shape disagrees with (m, n)")
        self.m = m
        self.n = n
        self.targets = targets

    @classmethod
    def from_dag(cls, d: Dag, mode: str = "rrr") -> "LabelledGraph":
        from .graph_model import adjacency_string

        wt = WaveletTree(adjacency_string(d), sigma=d.n + 1, mode=mode)
        return cls(d.m, d.n, wt)

    @property
    def n_vertices(self) -> int:
        return self.n + 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v <= self.n:
            raise OutOfRangeError(f"vertex must lie in 0..{self.n}")

    def degree_out(self, v: int) -> int:
        self._check_vertex(v)
        return 0 if v == 0 else self.m

    def out_neighbour(self, v: int, i: int) -> int:
        self._check_vertex(v)
        if v == 0 or not 1 <= i <= self.m:
            raise OutOfRangeError(f"vertex {v} has {self.degree_out(v)} outgoing edges")
        return self.targets.access((v - 1) * self.m + i)

    def neighbours_out(self, v: int) -> list[int]:
        self._check_vertex(v)
        if v == 0:
            return []
        return self.targets.access_batch(np.arange((v - 1) * self.m + 1, v * self.m + 1)).tolist()

    def degree_in(self, v: int) -> int:
        self._check_vertex(v)
        return self.targets.occ(v)

    def in_neighbour(self, v: int, i: int) -> int:
        self._check_vertex(v)
        try:
            pos = self.targets.select(v, i)
        except OutOfRangeError:
            raise OutOfRangeError(f"vertex {v} has in-degree {self.degree_in(v)}") from None
        return (pos - 1) // self.m + 1

    def neighbours_in(self, v: int) -> list[int]:
        self._check_vertex(v)
        occ = self.targets.occ(v)
        if occ == 0:
            return []
        pos = self.targets.select_batch(np.full(occ, v), np.arange(1, occ + 1))
        return ((pos - 1) // self.m + 1).astype(np.int64).tolist()

    def degree_total(self, v: int) -> int:
        return self.degree_in(v) + self.degree_out(v)

    def adjacent(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return False
        for a, b in ((u, v), (v, u)):
            if a:
                lo = (a - 1) * self.m
                if self.targets.rank(b, lo + self.m) > self.targets.rank(b, lo):
                    return True
        return False

    def space_report(self) -> dict:
        w = self.targets.space_report()
        return {
            "n": self.n,
            "m": self.m,
            "wt_payload_bits": w["payload_bits"],
            "wt_directory_bits": w["directory_bits"],
            "sigma_eff": w["sigma_eff"],
            "payload_bits": w["payload_bits"],
            "directory_bits": w["directory_bits"],
            "metadata_bits": w["presence_bits"],
            "total_bits": w["payload_bits"] + w["directory_bits"] + w["presence_bits"],
        }
