"""
Compressing a graph into a tree and a leftover string
=====================================================

The compressor splits each vertex's target block: the rarest target becomes
the vertex's parent in a scaffold tree, the rest go to a leftover string.
Vertices are renamed in BFS order of the tree, which is stored as a LOUDS
(two bits per vertex), the string as a wavelet matrix (one bitvector per
code bit) — and every navigation query runs on that compressed form
directly.
"""

import numpy as np

from upag import Dag
from upag.construct import build
from upag.ugraph import CompressedGraph

# --- the five-vertex worked instance ----------------------------------------
d5 = Dag(3, [[0, 0, 0], [1, 1, 1], [1, 1, 1], [3, 2, 2], [3, 4, 4]])
built = build(d5, tie="first-target")
print("scaffold split (tie='first-target')")
print(f"  parents  : { {v: int(built.parents[v]) for v in range(1, 6)} }")
print(f"  leftover : {built.nontree_orig.tolist()}")

g = CompressedGraph.from_build(built)

# --- navigation on the compressed form ---------------------------------------
print("\nqueries")
print(f"  out_neighbour(4, 1) = {g.out_neighbour(4, 1)}   (tree parent)")
print(f"  out_neighbour(4, 2) = {g.out_neighbour(4, 2)}   (from the string)")
print(f"  in_neighbour(1, 1)  = {g.in_neighbour(1, 1)}")
print(f"  degree_in(1)        = {g.degree_in(1)}")
print(f"  degree_in(0)        = {g.degree_in(0)}")
print(f"  adjacent(3, 4)      = {g.adjacent(3, 4)}")
print(f"  neighbours_out(5)   = {g.neighbours_out(5)}")
print(f"  neighbours_in(1)    = {g.neighbours_in(1)}")

# --- answers agree with plain adjacency lists --------------------------------
out_lists = [[]] + [row.tolist() for row in d5.targets]
assert all(g.neighbours_out(v) is not None for v in range(6))
for v in range(1, 6):
    assert sorted(g.neighbours_out(v)) == sorted(out_lists[v])
print("\nplain-list cross-check: ok")

# --- batched queries ----------------------------------------------------------
# Batch variants answer many lanes in one pass over the bit directories.
us = np.array([0, 2, 3, 5])
ws = np.array([1, 5, 4, 5])
print(f"  adjacent_batch({us.tolist()}, {ws.tolist()}) = "
      f"{g.adjacent_batch(us, ws).tolist()}")
