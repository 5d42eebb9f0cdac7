"""Python-int reference for the split-radix rrr block code.

A block of L bits with k ones is stored as a code in [0, C(L, k)).  With
d = the fewest halvings that leave no piece longer than 16 bits (0 for
L <= 16, 1 for L <= 32, 2 for L <= 64), the code of a piece of L bits at
depth d is its rank in numeric order among the L-bit words with k ones.
A shallower piece splits into its low a = ceil(L/2) bits (k_a ones) and
its high b = L - a bits (k_b ones), and its code is

    OFF(a, b)[k][k_a] + E(low) * C(b, k_b) + E(high),

where OFF(a, b)[k][k_a] is the sum of C(a, j) * C(b, k - j) over j < k_a:
the codes of the class-k pieces whose low half holds fewer ones.

This module implements that definition on Python ints, one bit or one
split at a time; the tests compare it with the table-driven numpy code in
``upag.bitvector``.  Nothing in the package imports this module.
"""

from __future__ import annotations

import math

LEAF = 16


def depth(blen: int) -> int:
    """Halvings a ``blen``-bit block goes through."""
    d = 0
    while -(-blen // (1 << d)) > LEAF:
        d += 1
    return d


def offset(a: int, b: int, k: int, ka: int) -> int:
    return sum(math.comb(a, j) * math.comb(b, k - j) for j in range(ka))


def _rank(word: int, blen: int) -> int:
    """Numeric rank of ``word`` among the blen-bit words of its class."""
    code, k = 0, bin(word).count("1")
    for j in range(blen - 1, -1, -1):
        if word >> j & 1:
            code += math.comb(j, k)       # the words with bit j clear come first
            k -= 1
    return code


def _unrank(code: int, k: int, blen: int) -> int:
    word = 0
    for j in range(blen - 1, -1, -1):
        if code >= math.comb(j, k):
            code -= math.comb(j, k)
            word |= 1 << j
            k -= 1
    return word


def _encode(word: int, blen: int, d: int) -> int:
    if d == 0:
        return _rank(word, blen)
    a, b = blen - blen // 2, blen // 2
    lo, hi = word & ((1 << a) - 1), word >> a
    k, ka = bin(word).count("1"), bin(lo).count("1")
    return (offset(a, b, k, ka) + _encode(lo, a, d - 1) * math.comb(b, k - ka)
            + _encode(hi, b, d - 1))


def _decode(code: int, k: int, blen: int, d: int) -> int:
    if d == 0:
        return _unrank(code, k, blen)
    a, b = blen - blen // 2, blen // 2
    ka = max(j for j in range(max(k - b, 0), min(k, a) + 1) if offset(a, b, k, j) <= code)
    lo, hi = divmod(code - offset(a, b, k, ka), math.comb(b, k - ka))
    return _decode(lo, ka, a, d - 1) | _decode(hi, k - ka, b, d - 1) << a


def encode_block(word: int, blen: int) -> int:
    """Code of the ``blen``-bit block whose bit j is bit j of ``word``."""
    if not 0 <= word < 1 << blen:
        raise ValueError("word wider than its block")
    return _encode(word, blen, depth(blen))


def decode_block(code: int, k: int, blen: int) -> int:
    """Word whose bit j is bit j of the block of class ``k`` and ``code``."""
    if not 0 <= k <= blen or not 0 <= code < math.comb(blen, k):
        raise ValueError("code out of range for its class")
    return _decode(code, k, blen, depth(blen))
