"""Bit-packing primitives shared by the succinct structures.

Bit i of a sequence lives in word ``i >> 6`` at position ``i & 63`` (LSB
first, little-endian words), so packed streams are byte-for-byte
reproducible across runs.
"""

from __future__ import annotations

import numpy as np

U64 = np.uint64
# 0-d array constants: numpy combines two arrays faster than an array and a
# scalar, which matters on the few-lane field reads of scalar queries
_ALL = ~np.array(0, dtype=U64)
_ONE = np.array(1, dtype=U64)
_WORD_BITS = np.array(64, dtype=U64)
_WORD_LOG = np.array(6, dtype=U64)
_WORD_MASK = np.array(63, dtype=U64)
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1


def one_lane(*values: int) -> list[np.ndarray]:
    """Scalar query arguments as one-lane int64 arrays.  An integer beyond
    int64 is clamped to the nearer end, which lies outside every valid range
    as well, so the batch call's range check raises ``OutOfRangeError``
    where numpy would raise ``OverflowError``."""
    try:
        return [np.array([v], dtype=np.int64) for v in values]
    except OverflowError:
        return [np.array([min(max(int(v), _I64_MIN), _I64_MAX)]) for v in values]


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
    if n == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.unpackbits(words.view(np.uint8), bitorder="little")[:n].copy()


def popcount(x: np.ndarray) -> np.ndarray:
    """Per-word population count of a uint64 array (uint8 result)."""
    return np.bitwise_count(x)


def pack_fields(codes: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, int]:
    """Concatenate variable-width codes (<= 63 bits each) into a bit stream.

    Returns (words, total_bits).  Vectorised: each code touches at most two
    words, scattered with unbuffered bitwise-or.
    """
    codes = codes.astype(U64, copy=False)
    lengths = lengths.astype(np.int64, copy=False)
    if np.any(lengths > 63):
        raise ValueError("field wider than 63 bits")
    total = int(lengths.sum())
    nw = (total + 63) // 64
    words = np.zeros(nw + 2, dtype=U64)  # slack words absorb dummy high parts
    if codes.size:
        starts = np.zeros(codes.size, dtype=np.int64)
        np.cumsum(lengths[:-1], out=starts[1:])
        sh = (starts & 63).astype(U64)
        np.bitwise_or.at(words, starts >> 6, codes << sh)
        hi = np.where(sh == U64(0), U64(0), codes >> ((U64(64) - sh) & U64(63)))
        np.bitwise_or.at(words, (starts >> 6) + 1, hi)
    return words[:nw] if nw else np.zeros(0, dtype=U64), total


def read_fields(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Gather variable-width fields (<= 63 bits) from a packed stream.

    Each field reads the word holding its start and the word after it, so a
    stream read up to its end needs two zero words of padding (a zero-width
    field may start just past the last word).
    """
    starts = np.asarray(starts, dtype=U64)
    idx = starts >> _WORD_LOG
    sh = starts & _WORD_MASK
    # a shift by 64 yields 0 in numpy, so a word-aligned field takes nothing
    # from the next word
    val = (words[idx] >> sh) | (words[idx + _ONE] << (_WORD_BITS - sh))
    return val & ~(_ALL << np.asarray(lengths, dtype=U64))
