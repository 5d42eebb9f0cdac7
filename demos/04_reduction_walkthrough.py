"""
The per-block deletion that never raises entropy
================================================

Deleting one symbol per equal-size block — always a globally rarest
survivor — provably cannot raise the per-character entropy of the string.
This walkthrough prints the reduction as the paper's steps (their trace
follows in closed form from the per-block rule), then shows the same
deletion happening at graph level when the compressor picks tree parents.
"""

from collections import Counter

from upag import generate, adjacency_string
from upag.construct import build, reduce_string
from upag.entropy import h0_per_symbol

# --- worked example -----------------------------------------------------------
s = "abracadabraa"
res = reduce_string(s, 4, want_trace=True)
print(f"input   : {s!r}, blocks of 4")
print(f"ranks   : {res.sigma}")
for t in res.trace:
    kept = "".join(x for x in t["after"] if x is not None)
    print(f"  step {t['step']}: pick {t['symbol']!r} (S position {t['s_index']}), "
          f"flag block {t['block']}, keep {kept!r}")
print(f"reduced : {res.reduced!r}")
print(f"H0 per char: {h0_per_symbol(s):.5f} -> {h0_per_symbol(res.reduced):.5f}")

# --- the same guarantee, on graphs ---------------------------------------------
# Building the scaffold tree deletes each block's rarest target; running the
# string reduction on the flat target string deletes the same multiset.
d = generate(3, 40, seed=5)
built = build(d)
string_level = reduce_string(list(adjacency_string(d)), 3)
assert Counter(built.nontree_orig.tolist()) == Counter(string_level.reduced)
print("\ngraph-level vs string-level deletions: same character frequencies")
print(f"H0 per char: {h0_per_symbol(adjacency_string(d)):.5f} "
      f"-> {h0_per_symbol(built.nontree_orig):.5f}")
