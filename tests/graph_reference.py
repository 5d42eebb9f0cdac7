"""Plain reference helpers of the graph-model, oracle and tree tests.

Only tests call these: an enumeration of every arrival order a dag admits,
a uniform m-out dag as a negative control, a check for parallel edges after
the seed block, and a scaffold tree's parents read back off its LOUDS bits.
Nothing in the package imports this module.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from upag.bits import unpack_bits
from upag.bptree import BPTree
from upag.graph_model import Dag


def admissible_orders(d: Dag):
    """All vertex arrival orders consistent with the dag's edges.

    Yields permutations tau (tuple, tau[k] = vertex arriving k-th) with
    tau[0] = 0 and every target of a vertex arriving before it.
    """
    nv = d.n + 1
    for tail in permutations(range(1, nv)):
        tau = (0,) + tail
        place = {v: k for k, v in enumerate(tau)}
        ok = all(
            place[int(t)] < place[v]
            for v in range(1, nv)
            for t in d.targets[v - 1]
        )
        if ok:
            yield tau


def random_mout_dag(n: int, m: int, rng) -> Dag:
    """Uniform random m-out dag (NOT preferential attachment): each vertex
    picks m targets uniformly among its predecessors.  Useful as a negative
    control in statistics tests."""
    targets = np.zeros((n, m), dtype=np.int64)
    for t in range(2, n + 1):
        targets[t - 1] = rng.integers(0, t, size=m)
    return Dag(m, targets)


def has_parallel_beyond_seed(d: Dag) -> bool:
    """True if some block after the forced seed block repeats a target."""
    if d.n <= 1:
        return False
    rows = np.sort(d.targets[1:], axis=1)
    return bool(np.any(rows[:, 1:] == rows[:, :-1]))


def parents_array(tree: BPTree) -> np.ndarray:
    """Parent of every node of ``tree``, read off the degrees alone."""
    bits = unpack_bits(tree._bv._words, tree._bv.n)
    z = np.concatenate([[0], np.flatnonzero(bits == 0)])
    return np.concatenate([[-1], np.repeat(np.arange(tree.n_nodes), np.diff(z) - 1)])
