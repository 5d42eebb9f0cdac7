"""Ordinal tree stored as a LOUDS (level-order unary degree sequence).

The module and class keep their historical names (``bptree``, ``BPTree``,
from an earlier balanced-parentheses layout); the tree is a LOUDS.

Nodes are labelled in BFS order, children in label order, so the children
of a node have consecutive labels and every parent label is below its
child's.  A tree on N nodes costs exactly 2N bits: a leading 1 for the
root, then ``1^deg(v) 0`` for each node v in BFS order (Jacobson, FOCS
1989; Delpratt, Rahman & Raman, WEA 2006).  The (u+1)-th one stands for
node u and the v-th zero closes node v-1, so with 0-based positions,
``Z(v) = select0(v)`` and ``Z(0) = 0`` (the root's one):

* ``parent(u) = rank0(select1(u + 1))``, the zeros before node u's one;
* ``degree(v) = Z(v + 1) - Z(v) - 1``, the ones between two zeros;
* ``child(v, i) = Z(v) - v + i``, the label of the i-th one after Z(v).

Every query is rank/select on one ``BitVector``; there is no other
directory.
"""

from __future__ import annotations

import numpy as np

from .bits import unpack_bits
from .bitvector import BitVector
from .errors import OutOfRangeError, checked


class BPTree:
    """Succinct ordinal tree; nodes are BFS ranks 0..n_nodes-1."""

    def __init__(self, parents=None, *, _bv: BitVector | None = None):
        if _bv is None:
            par = np.asarray(parents, dtype=np.int64)
            if par.ndim != 1 or par.size == 0:
                raise ValueError("need a non-empty parent array")
            if par[0] != -1 or np.any(par[1:] < 0) or np.any(par[1:] >= np.arange(1, par.size)) \
                    or np.any(np.diff(par[1:]) < 0):
                raise ValueError("parent array is not in BFS order: need parent[0] = -1, "
                                 "0 <= parent[v] < v and parents non-decreasing")
            zeros = np.cumsum(np.bincount(par[1:], minlength=par.size) + 1)
            bits = np.ones(2 * par.size, dtype=np.uint8)
            bits[zeros] = 0
            _bv = BitVector(bits)
        self._bv = _bv
        self.n_nodes = _bv.n // 2
        self._validate()

    def _validate(self) -> None:
        """Reject bits that are no LOUDS of a tree in BFS order: they need N
        ones, N zeros, a final zero, and node u's one (the (u+1)-th) before the
        u-th zero for u in 1..N-1, which is exactly parent(u) < u."""
        bv = self._bv
        if bv.n == 0 or bv.n % 2:
            raise ValueError("LOUDS bitvector must have a positive even length")
        bits = unpack_bits(bv._words, bv.n).astype(bool)
        ones, zeros = np.flatnonzero(bits), np.flatnonzero(~bits)
        if ones.size != zeros.size or bits[-1] or np.any(ones[1:] >= zeros[:-1]):
            raise ValueError("LOUDS sequence is not a well-formed tree in BFS order")

    # ---- node navigation ---------------------------------------------------

    def _spans(self, arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First child label and degree of every node in ``arr``, from one
        select0 over Z(v) and Z(v+1) of every lane (a select0 pair per lane
        costs less than sorting out repeated nodes)."""
        z = self._bv.select0_batch(np.concatenate([np.maximum(arr, 1), arr + 1])) - 1
        zv, zn = z[:arr.size], z[arr.size:]
        zv[arr == 0] = 0                    # Z(0) = 0, the root's one
        return zv - arr + 1, zn - zv - 1

    def parent(self, v: int) -> int:
        """Parent label, or -1 for the root."""
        return int(self.parent_batch([v])[0])

    def tree_degree(self, v: int) -> int:
        return int(self.degree_batch([v])[0])

    def child(self, v: int, i: int) -> int:
        """i-th child (1-based)."""
        return int(self.child_batch([v], [i])[0])

    def children(self, v: int) -> list[int]:
        """Child labels in increasing order: the range [first, first + deg)."""
        first, deg = self._spans(checked([v], 0, self.n_nodes - 1, "node"))
        return list(range(int(first[0]), int(first[0] + deg[0])))

    def parent_batch(self, vs) -> np.ndarray:
        """Parent of every node in ``vs`` (-1 for the root): node u's one
        sits at select1(u + 1), after u ones and parent(u) zeros."""
        arr = checked(vs, 0, self.n_nodes - 1, "node")
        pos = self._bv.select1_batch(arr + 1) - 1
        return np.where(arr > 0, pos - arr, -1)

    def degree_batch(self, vs) -> np.ndarray:
        """Number of children of every node in ``vs``."""
        arr = checked(vs, 0, self.n_nodes - 1, "node")
        return self._spans(arr)[1]

    def child_batch(self, vs, idx) -> np.ndarray:
        """``idx[k]``-th child (1-based) of node ``vs[k]``, for every lane."""
        arr, ii = np.broadcast_arrays(checked(vs, 0, self.n_nodes - 1, "node"),
                                      checked(idx, 1, self.n_nodes - 1, "child index"))
        first, deg = self._spans(arr)
        if np.any(ii > deg):
            raise OutOfRangeError("child index beyond the node's degree")
        return first + ii - 1

    # ---- accounting -----------------------------------------------------------

    def space_report(self) -> dict:
        """Resident bits of the LOUDS bitvector: its 2N bits as payload,
        its rank samples and word padding as directory."""
        rep = self._bv.space_report()
        return {
            "n_nodes": self.n_nodes,
            "payload_bits": rep["payload_bits"],
            "directory_bits": rep["directory_bits"],
        }

    def __repr__(self) -> str:
        return f"BPTree(n_nodes={self.n_nodes})"
