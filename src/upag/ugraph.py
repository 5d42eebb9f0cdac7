"""Compressed attachment graphs with navigational queries.

One class, ``CompressedGraph``, answers every query, with or without a
scaffold tree:

with a scaffold
    The label-free form.  Vertices are renamed to BFS positions of the
    scaffold tree, the tree is a LOUDS of two bits per vertex and holds
    each vertex's first out-edge, and the remaining ``m - 1`` targets of
    every vertex sit in an entropy-compressed wavelet matrix.

without a scaffold (``tree is None``)
    The labelled form, built by ``LabelledGraph``.  Original vertex names
    stay, and all ``m`` targets of every vertex sit in the wavelet matrix.
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
from .errors import OutOfRangeError, checked
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
    def from_build(cls, built: BuildResult) -> "CompressedGraph":
        tree = BPTree(built.tree_parents)
        wt = WaveletTree(built.nontree, sigma=built.n + 1)
        return CompressedGraph(built.m, built.n, tree, wt)

    @classmethod
    def from_dag(cls, d: Dag, tie: str = "index") -> "CompressedGraph":
        return CompressedGraph.from_build(build(d, tie))

    # ---- helpers -----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.n + 1

    # ---- out side ----------------------------------------------------------

    def degree_out(self, v: int) -> int:
        return 0 if checked([v], 0, self.n, "vertex")[0] == 0 else self.m

    def out_neighbour(self, v: int, i: int) -> int:
        """i-th outgoing edge of v (1-based); with a scaffold, edge 1 is the
        tree parent."""
        return int(self.out_neighbour_batch([v], [i])[0])

    def neighbours_out(self, v: int) -> list[int]:
        if checked([v], 0, self.n, "vertex")[0] == 0:
            return []
        return self.out_neighbour_batch(np.full(self.m, v), np.arange(1, self.m + 1)).tolist()

    # ---- in side -----------------------------------------------------------

    def degree_in(self, v: int) -> int:
        return int(self.degree_in_batch([v])[0])

    def in_neighbour(self, v: int, i: int) -> int:
        """i-th incoming edge: tree children first, then string occurrences."""
        return int(self.in_neighbour_batch([v], [i])[0])

    def neighbours_in(self, v: int) -> list[int]:
        """Tree children (the label range [first, first + deg)), then the
        sources of string occurrences."""
        checked([v], 0, self.n, "vertex")
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
        return int(self.multiplicity_batch([u], [v])[0])

    # ---- batch wrappers ----------------------------------------------------

    def degree_in_batch(self, vs) -> np.ndarray:
        arr = checked(vs, 0, self.n, "vertex")
        occ = self.targets.occ_batch(arr)
        if self.tree is None:
            return occ
        return self.tree.degree_batch(arr) + occ

    def out_neighbour_batch(self, vs, idx) -> np.ndarray:
        arr, ii = np.broadcast_arrays(checked(vs, 1, self.n, "vertex with out-edges"),
                                      checked(idx, 1, self.m, "out-edge index"))
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

        One tree pass gives each lane's first child and tree degree; tree
        lanes take their child by label arithmetic (children have
        consecutive BFS labels), and the string lanes go through one
        batched select.
        """
        # no in-degree exceeds the edge count; each lane's own bound is below
        arr, ii = np.broadcast_arrays(checked(vs, 0, self.n, "vertex"),
                                      checked(idx, 1, self.n * self.m, "in-edge index"))
        if self.tree is None:
            first = dt = np.zeros(arr.shape, dtype=np.int64)
        else:
            first, dt = self.tree._spans(arr)
        out = first + ii - 1
        rest = ii > dt
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
        cnt[live] = self.targets._count(syms[live], lo, lo + w)
        return cnt

    def multiplicity_batch(self, us, vs) -> np.ndarray:
        ua, va = np.broadcast_arrays(checked(us, 0, self.n, "vertex"),
                                     checked(vs, 0, self.n, "vertex"))
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
        return h0_bits(self.targets.symbol_counts())

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
    def from_dag(cls, d: Dag) -> "LabelledGraph":
        return cls(d.m, d.n, WaveletTree(adjacency_string(d), sigma=d.n + 1))
