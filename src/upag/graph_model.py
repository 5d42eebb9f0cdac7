"""Containers for M-out-regular attachment DAGs.

A directed instance is a sequence of target blocks: vertex ``t`` (labels are
dense, vertex 0 is the seed) picks exactly ``m`` targets among the older
vertices ``0..t-1``, in draw order.  Block 1 is forced: vertex 1 points at the
seed ``m`` times.  The undirected view forgets orientation and the order
inside each block, keeping edge multiplicities; ``undirected_degrees`` gives
its degrees, and ``construct.peel_edges`` takes it as edge arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import ModelError


class Dag:
    """An M-out-regular DAG given by per-vertex target blocks.

    ``targets[t-1]`` holds the ``m`` targets of vertex ``t`` in draw order,
    each strictly smaller than ``t``.  Labels run ``0..n`` where ``n`` is the
    number of blocks.
    """

    __slots__ = ("m", "targets")

    def __init__(self, m: int, targets) -> None:
        if m < 1:
            raise ModelError(f"m must be >= 1, got {m}")
        arr = np.asarray(targets, dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, m)
        if arr.ndim != 2 or arr.shape[1] != m:
            raise ModelError(f"block array shape {arr.shape} does not match m={m}")
        validate_blocks(m, arr)
        self.m = m
        self.targets = arr

    @property
    def n(self) -> int:
        """Number of non-seed vertices (= number of blocks)."""
        return self.targets.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.targets.shape[0] + 1

    def __repr__(self) -> str:
        return f"Dag(m={self.m}, n={self.n})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dag)
            and self.m == other.m
            and np.array_equal(self.targets, other.targets)
        )


def validate_blocks(m: int, targets: np.ndarray) -> None:
    """Check the block matrix encodes a legal instance; raise ModelError if not."""
    n = targets.shape[0]
    if n == 0:
        return
    if targets.min() < 0:
        raise ModelError("negative target label")
    # every target must predate its source
    limits = np.arange(1, n + 1, dtype=np.int64)[:, None]
    bad = np.nonzero(targets >= limits)[0]
    if bad.size:
        t = int(bad[0]) + 1
        raise ModelError(f"vertex {t} targets a vertex not older than itself")
    if np.any(targets[0] != 0):
        raise ModelError("block 1 must consist of m copies of the seed vertex 0")


def adjacency_string(d: Dag) -> np.ndarray:
    """The instance's target string: blocks concatenated in vertex order."""
    return d.targets.reshape(-1)


def in_degrees(d: Dag) -> np.ndarray:
    """In-degree of every vertex 0..n (occurrences in the target string)."""
    return np.bincount(adjacency_string(d), minlength=d.n + 1)


def undirected_degrees(d: Dag) -> np.ndarray:
    """Degrees after dropping orientation: in-degree plus m per non-seed vertex."""
    deg = in_degrees(d).copy()
    deg[1:] += d.m
    return deg
