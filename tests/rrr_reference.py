"""Bit-serial reference decoder for rrr blocks.

A block of ``blen`` bits with ``k`` ones is stored as its index (combinadic
code) among all such blocks in lexicographic order from block bit 0: the
strings whose bit j is 0 come before those whose bit j is 1, and there are
C(blen - 1 - j, k_j) of the former when k_j ones remain from bit j on.
This module undoes that one bit at a time on Python ints, the loop that
``bitvector._decode_words`` replaces with table steps; the tests compare the
two.  Nothing in the package imports this module.
"""

from __future__ import annotations

import math


def decode_block(code: int, k: int, blen: int) -> int:
    """Word whose bit j is bit j of the block of class ``k`` and ``code``."""
    if not 0 <= k <= blen or not 0 <= code < math.comb(blen, k):
        raise ValueError("code out of range for its class")
    word = 0
    for j in range(blen):
        zeros_first = math.comb(blen - 1 - j, k)
        if code >= zeros_first:
            code -= zeros_first
            k -= 1
            word |= 1 << j
    return word

