"""Static bitvectors with rank/select: raw words plus one rank sample per
1,024 bits.

Bit i lives in word ``i >> 6`` at bit ``i & 63``.  The only directory is
``_sb``, the ones before each 2^10-bit superblock as a uint32 (bitvectors
are shorter than 2^32 bits).  There are no per-block counts and no select
anchors, so a bitvector keeps its words and one 32-bit sample per 16 words,
and ``space_report()`` is the ``nbytes`` of those two arrays.

Rank and access are one block fetch, ``BitVector._fetch``, and then word
arithmetic.  For each lane's 64-bit block the fetch returns the ones before
the block and the block's word: rank is a masked popcount of it and access
a shift.  Select fetches nothing: it finds the superblock from the samples
and the block from the running popcounts of that superblock's words, which
also give the occurrences before the block, and selects in the block's word.
The fetch holds the only choice that depends on batch size, a cost test on
what the batch touches (its crossover was measured): a batch with at least
1/``_WHOLE_SHARE`` as many lanes as words takes the ones before every
block from one transient prefix over all words' popcounts, O(words); a
smaller one adds the popcounts of the at most 15 words before each lane's
block in its superblock to the superblock's sample, O(16 * lanes).
"""

from __future__ import annotations

import numpy as np

from .bits import U64, pack_bits, popcount, unpack_bits
from .errors import checked

BLOCK = 64            # bits per block (one word)
SB_BLOCKS = 16        # blocks per superblock (2^10 bits)

# Constants of the query paths are 0-d arrays: numpy combines two arrays
# faster than an array and a scalar, and most calls carry a few lanes.
_ALL = ~np.array(0, dtype=U64)
_BIT = np.array(1, dtype=U64)
_BLOCK_LOG = np.array(6)        # position >> 6 = block
_SB_LOG = np.array(4)           # block >> 4 = superblock
_SB_MASK = np.array(SB_BLOCKS - 1)
_SB_BITS = BLOCK * SB_BLOCKS
_WHOLE_SHARE = 24     # fetches of nwords / 24 lanes or more take the whole-prefix route (measured)
_COLS = np.arange(SB_BLOCKS)
# _BEFORE[c]: 1 at the blocks of a superblock that precede block c
_BEFORE = np.tri(SB_BLOCKS, k=-1, dtype=np.uint16)

# byte-granular select helpers
_BYTE_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_BYTE_SELECT = np.array([[j for j in range(8) if b >> j & 1] + [8] * (8 - bin(b).count("1"))
                         for b in range(256)], dtype=np.uint8)
# bits of the tables above, which every bitvector shares and none counts
_TABLE_BITS = 8 * sum(t.nbytes for t in (_BYTE_POP, _BYTE_SELECT, _BEFORE, _COLS))


def _select_in_word(words: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Position of the r-th (1-based) set bit in each word."""
    byt = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    pop = _BYTE_POP[byt]
    cum = pop.cumsum(axis=1, dtype=np.uint8)
    j = (cum < r[:, None]).sum(axis=1)          # bytes wholly before the r-th one
    lane = np.arange(j.size)
    within = r - cum[lane, j] + pop[lane, j]
    return 8 * j + _BYTE_SELECT[byt[lane, j], within - 1]


class BitVector:
    """Static bitvector with 1-based rank/select queries.

    rank1(i) counts ones among the first i bits (i in 0..n); select1(k)
    returns the 1-based position of the k-th one.  Batch variants take and
    return numpy arrays under the same conventions.
    """

    def __init__(self, bits=None):
        b = np.asarray(bits if bits is not None else [], dtype=np.uint8)
        if b.ndim != 1 or (b.size and b.max() > 1):
            raise ValueError("bits must be a flat 0/1 sequence")
        if b.size >= 1 << 32:
            raise ValueError("bitvectors beyond 2^32 bits are not supported")
        self._install(b.size, pack_bits(b))

    def _install(self, n: int, words: np.ndarray) -> None:
        """Keep ``words`` (ceil(n/64) of them, bits past n zero) and sample
        the ones before every superblock; an empty vector keeps one zero
        word so that a fetch never reads an empty array."""
        self.n = int(n)
        self._words = words if words.size else np.zeros(1, dtype=U64)
        pop = popcount(self._words)
        per_sb = np.add.reduceat(pop, np.arange(0, pop.size, SB_BLOCKS), dtype=np.int64)
        self._sb = np.zeros(per_sb.size, dtype=np.uint32)
        np.cumsum(per_sb[:-1], out=self._sb[1:])
        self.ones = int(per_sb.sum())
        self._last_blk = self._words.size - 1

    @classmethod
    def from_parts(cls, n: int, words) -> "BitVector":
        """Reassemble from ``to_parts`` output; bits past n are cleared."""
        n = int(n)
        words = np.array(words, dtype=U64)
        if words.ndim != 1 or words.size != (n + 63) // 64:
            raise ValueError("a bitvector needs exactly ceil(n/64) words")
        if n >= 1 << 32:
            raise ValueError("bitvectors beyond 2^32 bits are not supported")
        if n % 64:
            words[-1] &= (U64(1) << U64(n % 64)) - U64(1)
        self = cls.__new__(cls)
        self._install(n, words)
        return self

    def to_parts(self) -> dict:
        """Serializable pieces: the length and the words (samples are rebuilt)."""
        return {"n": self.n, "words": self._words[:(self.n + 63) // 64]}

    # -- internals (all positions 0-based) --------------------------------

    def _fetch(self, blk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ones before each lane's block, and the block's word (bit j is
        block bit j; bits past the end read 0)."""
        words = self._words
        if blk.size * _WHOLE_SHARE >= words.size:
            pop = popcount(words)
            pre = pop.cumsum(dtype=np.int64)[blk] - pop[blk]
        else:
            sb = blk >> _SB_LOG
            rows = words.take((sb << _SB_LOG)[:, None] + _COLS, mode="clip")
            pre = self._sb[sb] + np.vecdot(popcount(rows), _BEFORE[blk & _SB_MASK])
        return pre.astype(np.int64), words[blk]

    def _rank_word(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ones among the first ``pos`` bits, pos in 0..n, with the word of
        the block holding ``pos`` and the offset of ``pos`` in it (64 for
        pos == n at the end of a full block)."""
        blk = np.minimum(pos >> _BLOCK_LOG, self._last_blk)
        base, w = self._fetch(blk)
        rem = (pos - (blk << _BLOCK_LOG)).astype(U64)
        return base + popcount(w & ~(_ALL << rem)), w, rem

    def _rank1(self, pos: np.ndarray) -> np.ndarray:
        return self._rank_word(pos)[0]

    def _rank_bit(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ones among the first ``pos`` bits and the bit at ``pos`` (0 at
        pos == n, as a bool), pos in 0..n; one fetch for both."""
        rank, w, rem = self._rank_word(pos)
        return rank, ((w >> rem) & _BIT).astype(bool)

    def _select(self, ks: np.ndarray, polarity: int) -> np.ndarray:
        """0-based position of the k-th (1-based) occurrence of the bit
        ``polarity``, k in 1..count.

        A search of the superblock samples finds each lane's superblock; one
        search of the running counts of the words of just the distinct
        superblocks hit (a monotone run, since they are sorted) finds the
        block and, less the block's own count, the occurrences before it.
        Counting the bits past the end as zeros moves no answer: the k-th
        zero lies before the end.
        """
        before = self._sb.astype(np.int64)
        if polarity == 0:
            before = _SB_BITS * np.arange(before.size) - before
        hit = np.zeros(before.size, dtype=bool)
        hit[before.searchsorted(ks) - 1] = True
        sb = np.flatnonzero(hit)
        occ = popcount(self._words.take((sb << _SB_LOG)[:, None] + _COLS, mode="clip"))
        occ = occ.astype(np.int64) if polarity else BLOCK - occ.astype(np.int64)
        ends = (occ.cumsum(axis=1) + before[sb][:, None]).ravel()
        at = ends.searchsorted(ks)
        blk = (sb[at >> _SB_LOG] << _SB_LOG) + (at & _SB_MASK)
        w = self._words[blk]
        return (blk << _BLOCK_LOG) + _select_in_word(w if polarity else ~w,
                                                     ks - ends[at] + occ.ravel()[at])

    # -- public 1-based API ----------------------------------------------

    def access(self, i: int) -> int:
        return int(self.access_batch([i])[0])

    def access_batch(self, i) -> np.ndarray:
        arr = checked(i, 1, self.n, "access index")
        return self._rank_bit(arr - 1)[1].astype(np.int64)

    def rank1(self, i: int) -> int:
        return int(self.rank1_batch([i])[0])

    def rank0(self, i: int) -> int:
        return int(self.rank0_batch([i])[0])

    def rank1_batch(self, i) -> np.ndarray:
        return self._rank1(checked(i, 0, self.n, "rank index"))

    def rank0_batch(self, i) -> np.ndarray:
        arr = checked(i, 0, self.n, "rank index")
        return arr - self._rank1(arr)

    def select1(self, k: int) -> int:
        return int(self.select1_batch([k])[0])

    def select0(self, k: int) -> int:
        return int(self.select0_batch([k])[0])

    def select1_batch(self, k) -> np.ndarray:
        return self._select(checked(k, 1, self.ones, "select1 argument"), 1) + 1

    def select0_batch(self, k) -> np.ndarray:
        return self._select(checked(k, 1, self.n - self.ones, "select0 argument"), 0) + 1

    def to_array(self) -> np.ndarray:
        """Materialise the raw bits (testing/debug aid)."""
        return unpack_bits(self._words, self.n)

    # -- accounting --------------------------------------------------------

    def space_report(self) -> dict:
        """Resident bits: the n payload bits, and as directory the rank
        samples plus the padding of the last word."""
        total = 8 * (self._words.nbytes + self._sb.nbytes)
        return {
            "n": self.n,
            "payload_bits": self.n,
            "directory_bits": total - self.n,
            "total_bits": total,
        }

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BitVector(n={self.n}, ones={self.ones})"
