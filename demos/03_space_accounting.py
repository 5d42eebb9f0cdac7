"""
Where the bits go
=================

The compressed form spends 2(n+1) bits on the scaffold tree, close to
H0 on the leftover string, and a directory (rank samples and word
padding) that shrinks relative to the payload as instances grow.
"""

import math

from upag import generate
from upag.construct import build
from upag.entropy import h0_bits
from upag.ugraph import CompressedGraph

print(f"{'n':>7} {'payload':>9} {'dir':>8} {'dir/payload':>11} "
      f"{'H0(leftover)':>12} {'worst-case':>10}")
for k in range(10, 17):
    n = 1 << k
    d = generate(3, n, seed=k)
    built = build(d)
    g = CompressedGraph.from_build(built)
    sp = g.space_report()
    h0 = h0_bits(built.nontree)
    worst = (d.m - 1) * n * math.ceil(math.log2(n)) + 2 * (n + 1)
    print(f"{n:>7} {sp['payload_bits']:>9} {sp['directory_bits']:>8} "
          f"{sp['directory_bits'] / sp['payload_bits']:>11.4f} "
          f"{h0:>12.0f} {worst:>10}")

# The tree share is exactly 2(n+1) bits; the string share tracks H0 because
# the string is Huffman-coded over its symbol counts, one level bit per code bit.
n = 1 << 14
d = generate(3, n, seed=99)
built = build(d)
sp = CompressedGraph.from_build(built).space_report()
print(f"\nn={n}: tree={sp['tree_payload_bits']} (=2(n+1)={2 * (n + 1)}), "
      f"string={sp['wt_payload_bits']}, "
      f"H0+2*distinct={h0_bits(built.nontree) + 2 * sp['sigma_eff']:.0f}")
