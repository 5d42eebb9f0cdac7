"""Bit-packing primitives shared by the succinct structures.

Bit i of a sequence lives in word ``i >> 6`` at position ``i & 63`` (LSB
first, little-endian words), so packed streams are byte-for-byte
reproducible across runs.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of ``a``, and the index of each lane's value,
    from one sort (an input of at most one lane is its own answer: scalar
    queries pass one lane)."""
    if a.size <= 1:
        return a, np.zeros(a.size, dtype=np.intp)
    order = a.argsort()
    s = a[order]
    head = np.empty(s.size, dtype=bool)
    head[:1] = True
    np.not_equal(s[1:], s[:-1], out=head[1:])
    inv = np.empty(s.size, dtype=np.intp)
    inv[order] = head.cumsum() - 1
    return s[head], inv


def pack_bits(bits) -> np.ndarray:
    """Pack a 0/1 sequence into LSB-first uint64 words (zero padded)."""
    b = np.asarray(bits, dtype=np.uint8)
    if b.size == 0:
        return np.zeros(0, dtype=U64)
    pad = (-b.size) % 64
    if pad:
        b = np.concatenate([b, np.zeros(pad, np.uint8)])
    return np.packbits(b, bitorder="little").view(np.dtype("<u8"))


def unpack_bits(words: np.ndarray, n: int) -> np.ndarray:
    """Inverse of pack_bits; returns a uint8 array of length n."""
    return np.unpackbits(words.view(np.uint8), count=n, bitorder="little")


def popcount(x: np.ndarray) -> np.ndarray:
    """Per-word population count of a uint64 array (uint8 result)."""
    return np.bitwise_count(x)
