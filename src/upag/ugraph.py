"""Compressed attachment graphs with navigational queries.

One class, ``CompressedGraph``, answers every query, with or without a
scaffold tree:

with a scaffold
    The label-free form.  Vertices are renamed to BFS positions of the
    scaffold tree, the tree is a LOUDS of two bits per vertex and holds
    each vertex's first out-edge, and the remaining ``m - 1`` targets of
    every vertex sit in an entropy-compressed wavelet tree.

without a scaffold (``tree is None``)
    The labelled form, built by ``LabelledGraph``.  Original vertex names
    stay, and all ``m`` targets of every vertex sit in the wavelet tree.
    Costs the label entropy on top of the structure.

Either way, vertex v's out-block in the string holds ``w = m - lead``
entries, where ``lead`` is 1 with a scaffold and 0 without.  Asking for
neighbours never decompresses anything.

Vertex 0 is the seed: out-degree 0, with every other vertex sending it
at least the edges of the first attachment step.
"""

from __future__ import annotations

import numpy as np

from .bptree import BPTree
from .construct import BuildResult, build
from .entropy import h0_bits, worstcase_budget_bits
from .errors import OutOfRangeError
from .graph_model import Dag, adjacency_string
from .wavelet import WaveletTree


class CompressedGraph:
    """Attachment graph: optional scaffold tree + entropy-coded target string."""

    def __init__(self, m: int, n: int, tree: BPTree | None, targets: WaveletTree):
        if m < 1:
            raise ValueError("m must be at least 1")
        if tree is not None and tree.n_nodes != n + 1:
            raise ValueError("tree size disagrees with vertex count")
        self.lead = 0 if tree is None else 1
        if targets.length != n * (m - self.lead) or targets.sigma != n + 1:
            raise ValueError("target string shape disagrees with (m, n)")
        self.m = m
        self.n = n
        self.tree = tree
        self.targets = targets

    @classmethod
    def from_build(cls, built: BuildResult, mode: str = "rrr") -> "CompressedGraph":
        tree = BPTree(built.tree_parents)
        wt = WaveletTree(built.nontree, sigma=built.n + 1, mode=mode)
        return CompressedGraph(built.m, built.n, tree, wt)

    @classmethod
    def from_dag(cls, d: Dag, tie="index", mode: str = "rrr") -> "CompressedGraph":
        return CompressedGraph.from_build(build(d, tie), mode=mode)

    # ---- helpers -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.n + 1

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v <= self.n:
            raise OutOfRangeError(f"vertex must lie in 0..{self.n}")

    def _slice(self, v: int) -> tuple[int, int]:
        w = self.m - self.lead
        return (v - 1) * w, v * w

    # ---- out side ----------------------------------------------------------

    def degree_out(self, v: int) -> int:
        self._check_vertex(v)
        return 0 if v == 0 else self.m

    def out_neighbour(self, v: int, i: int) -> int:
        """i-th outgoing edge of v (1-based); with a scaffold, edge 1 is the
        tree parent."""
        self._check_vertex(v)
        if v == 0 or not 1 <= i <= self.m:
            raise OutOfRangeError(f"vertex {v} has {self.degree_out(v)} outgoing edges")
        if i == 1 and self.tree is not None:
            return self.tree.parent(v)
        lo, _ = self._slice(v)
        return self.targets.access(lo + i - self.lead)  # 1-based access

    def neighbours_out(self, v: int) -> list[int]:
        self._check_vertex(v)
        if v == 0:
            return []
        lo, hi = self._slice(v)
        rest = self.targets.access_batch(np.arange(lo + 1, hi + 1)).tolist()
        return rest if self.tree is None else [self.tree.parent(v)] + rest

    # ---- in side -----------------------------------------------------------

    def degree_in(self, v: int) -> int:
        self._check_vertex(v)
        if self.tree is None:
            return self.targets.occ(v)
        return self.tree.tree_degree(v) + self.targets.occ(v)

    def in_neighbour(self, v: int, i: int) -> int:
        """i-th incoming edge: tree children first, then string occurrences."""
        self._check_vertex(v)
        deg = 0 if self.tree is None else self.tree.tree_degree(v)
        if 1 <= i <= deg:
            return self.tree.child(v, i)
        try:
            pos = self.targets.select(v, i - deg)      # 1-based position
        except OutOfRangeError:
            raise OutOfRangeError(f"vertex {v} has in-degree {self.degree_in(v)}") from None
        return (pos - 1) // (self.m - self.lead) + 1

    def neighbours_in(self, v: int) -> list[int]:
        """Tree children (the label range [first, first + deg)), then the
        sources of string occurrences."""
        self._check_vertex(v)
        src = (self.targets.positions(v) - 1) // max(self.m - self.lead, 1) + 1
        return ([] if self.tree is None else self.tree.children(v)) + src.tolist()

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

    def _tree_degrees(self, arr: np.ndarray) -> np.ndarray:
        if self.tree is None:
            return np.zeros(arr.shape, dtype=np.int64)
        return self.tree.degree_batch(arr)

    def degree_in_batch(self, vs) -> np.ndarray:
        arr = np.asarray(vs, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() > self.n):
            raise OutOfRangeError("vertex out of range")
        occ = self.targets.rank_batch(arr, np.full(arr.size, self.targets.length))
        return self._tree_degrees(arr) + occ

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
        first = (ii == 1) & (self.tree is not None)
        if first.any():
            out[first] = self.tree.parent_batch(arr[first])
        rest = ~first
        if rest.any():
            w = self.m - self.lead
            pos = (arr[rest] - 1) * w + ii[rest] - self.lead  # 1-based into targets
            out[rest] = self.targets.access_batch(pos)
        return out

    def in_neighbour_batch(self, vs, idx) -> np.ndarray:
        """Vectorised ``in_neighbour``: tree children first, then string hits.

        Tree lanes take their child by label arithmetic (children have
        consecutive BFS labels); the string lanes go through one batched
        select.
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
        dt = self._tree_degrees(arr)
        from_tree = ii <= dt
        if from_tree.any():
            out[from_tree] = self.tree.child_batch(arr[from_tree], ii[from_tree])
        rest = ~from_tree
        if rest.any():
            try:
                pos = self.targets.select_batch(arr[rest], ii[rest] - dt[rest])
            except OutOfRangeError:
                raise OutOfRangeError("in-edge index beyond in-degree") from None
            out[rest] = (pos - 1) // (self.m - self.lead) + 1
        return out

    def _block_counts(self, owners: np.ndarray, syms: np.ndarray) -> np.ndarray:
        """How often ``syms[k]`` occurs in the block of vertex ``owners[k]``."""
        cnt = np.zeros(owners.size, dtype=np.int64)
        live = owners >= 1
        w = self.m - self.lead
        if w == 0 or not live.any():
            return cnt
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
        blocks = self._block_counts(both, np.concatenate([va, ua]))
        cnt = blocks[:k] + blocks[k:]
        if self.tree is not None:
            par = self.tree.parent_batch(both)         # -1 for the seed
            cnt += par[:k] == va
            cnt += par[k:] == ua
        cnt[ua == va] = 0
        return cnt

    def adjacent_batch(self, us, vs) -> np.ndarray:
        return self.multiplicity_batch(us, vs) > 0

    # ---- accounting ---------------------------------------------------------

    def target_entropy_bits(self) -> float:
        """H0 of the stored target string, from occurrence counts."""
        if self.targets.length == 0:
            return 0.0
        counts = self.targets.symbol_counts()
        return h0_bits(counts)

    def space_report(self) -> dict:
        t = (self.tree.space_report() if self.tree is not None
             else {"payload_bits": 0, "directory_bits": 0})
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


class LabelledGraph(CompressedGraph):
    """The form without a scaffold: vertex names kept, every target in the string."""

    def __init__(self, m: int, n: int, targets: WaveletTree):
        super().__init__(m, n, None, targets)

    @classmethod
    def from_dag(cls, d: Dag, mode: str = "rrr") -> "LabelledGraph":
        return cls(d.m, d.n, WaveletTree(adjacency_string(d), sigma=d.n + 1, mode=mode))
