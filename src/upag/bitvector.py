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
a shift.  Select fetches nothing: its routes below count or list the
occurrences themselves.

Which route a call takes depends on its size, each choice a cost test on
what the batch touches (every crossover was measured).  A fetch with at
least 1/``_FETCH_SHARE`` as many lanes as words takes the ones before every
block from one transient prefix over all words' popcounts, O(words); a
smaller one adds the popcounts of the at most 15 words before each lane's
block in its superblock to the superblock's sample, O(16 * lanes).  Select
has three routes:

* whole vector, from (lanes + ``_PREFIX_SHARE``) * ``_SELECT_SHARE`` >=
  words: one transient unpacking lists the position of every occurrence
  and the lanes gather from the list, O(n).  Its fixed cost is the lowest,
  so a vector of at most 258 words takes it even for one lane: the other
  routes' extra fixed cost is worth about 120 lanes at the measured
  crossover, close enough to ``_PREFIX_SHARE`` to share the constant;
* prefix, from lanes * ``_PREFIX_SHARE`` >= words: one transient running
  count over all words' popcounts and one search of it per lane,
  O(words + lanes * lg words);
* per lane, below both: one search of the superblock samples, then of the
  running popcounts of the words of just the superblocks hit,
  O(lanes * lg n).

Both searching routes finish in the lane's word with a broadword select,
``_select_in_word``: some 15 one-dimensional word operations and one
lookup in a 2 KiB byte-select table, whatever the batch size.
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
_FETCH_SHARE = 24     # fetches of nwords / 24 lanes or more take the whole-prefix route (measured)
_SELECT_SHARE = 2     # selects of nwords / 2 - _PREFIX_SHARE lanes or more unpack the vector (measured)
_PREFIX_SHARE = 128   # selects of nwords / 128 lanes or more search one prefix over all words (measured)
_COLS = np.arange(SB_BLOCKS)
# _BEFORE[c]: 1 at the blocks of a superblock that precede block c
_BEFORE = np.tri(SB_BLOCKS, k=-1, dtype=np.uint16)

# broadword select: 0x01 and 0x80 in every byte, a byte mask and a byte's
# bits; _BYTE_SELECT[8 * byte + r] is the position of the (r+1)-th one in
# ``byte`` (8 past its last one)
_L8 = np.array(0x0101010101010101, dtype=U64)
_H8 = np.array(0x8080808080808080, dtype=U64)
_BYTE = np.array(0xFF, dtype=U64)
_EIGHT = np.array(8, dtype=U64)
_BYTE_SELECT = np.array([[j for j in range(8) if b >> j & 1] + [8] * (8 - bin(b).count("1"))
                         for b in range(256)], dtype=np.uint8).ravel()
# bits of the tables above, which every bitvector shares and none counts
_TABLE_BITS = 8 * sum(t.nbytes for t in (_BYTE_SELECT, _BEFORE, _COLS))


def _select_in_word(words: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Position of the r-th (1-based) set bit in each word, by broadword
    arithmetic (Vigna, WEA 2008).  Byte j of ``b`` counts the ones in bytes
    0..j (at most 64, so no byte carries into the next).  With ``r1`` = r - 1
    in every byte, the bytes whose count is at most r - 1 keep their high
    bit in ``(r1 | 0x80..) - b`` (no byte borrows: 0x80 + r - 1 >= b), and
    they are the j bytes wholly before the r-th one.  Byte j of ``r1 - (b <<
    8)`` is r - 1 less the ones before byte j (the bytes below it do not
    borrow either), the rank to select inside byte j by table."""
    w = np.ascontiguousarray(words, dtype="<u8")
    b = popcount(w.view(np.uint8)).view(U64) * _L8
    r1 = (r - 1).astype(U64) * _L8
    j8 = popcount(((r1 | _H8) - b) & _H8) * _EIGHT
    within = ((r1 - (b << _EIGHT)) >> j8) & _BYTE
    byte = (w >> j8) & _BYTE
    return (j8 + _BYTE_SELECT[byte * _EIGHT + within]).view(np.int64)


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
        self._install(b.size, pack_bits(b))

    def _install(self, n: int, words: np.ndarray) -> None:
        """Keep ``words`` (ceil(n/64) of them, bits past n zero) and sample
        the ones before every superblock; an empty vector keeps one zero
        word so that a fetch never reads an empty array; ``ValueError`` at
        2^32 bits or more, past what the uint32 samples count."""
        if n >= 1 << 32:
            raise ValueError("bitvectors beyond 2^32 bits are not supported")
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
        if blk.size * _FETCH_SHARE >= words.size:
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

        The whole-vector route lists every occurrence from one transient
        unpacking and gathers the lanes from the list.  The prefix route
        searches a running count of the occurrences over all words.  The
        per-lane route searches the superblock samples for each lane's
        superblock, then one running count over the words of just the
        distinct superblocks hit (a monotone run, since they are sorted).
        Both searches give the block and, less the block's own count, the
        occurrences before it, and select in the block's word.  Counting the
        bits past the end as zeros moves no answer: the k-th zero lies
        before the end.  The module docstring gives the crossovers.
        """
        words = self._words
        if (ks.size + _PREFIX_SHARE) * _SELECT_SHARE >= words.size:
            bits = unpack_bits(words, self.n).view(bool)
            return np.flatnonzero(bits if polarity else ~bits)[ks - 1]
        if ks.size * _PREFIX_SHARE >= words.size:
            occ = popcount(words)
            if polarity == 0:
                occ = BLOCK - occ
            ends = occ.cumsum(dtype=np.int64)
            blk = ends.searchsorted(ks)
            before = ends[blk] - occ[blk]
        else:
            before = self._sb.astype(np.int64)
            if polarity == 0:
                before = _SB_BITS * np.arange(before.size) - before
            hit = np.zeros(before.size, dtype=bool)
            hit[before.searchsorted(ks) - 1] = True
            sb = np.flatnonzero(hit)
            occ = popcount(words.take((sb << _SB_LOG)[:, None] + _COLS, mode="clip"))
            occ = occ.astype(np.int64) if polarity else BLOCK - occ.astype(np.int64)
            ends = (occ.cumsum(axis=1) + before[sb][:, None]).ravel()
            at = ends.searchsorted(ks)
            blk = (sb[at >> _SB_LOG] << _SB_LOG) + (at & _SB_MASK)
            before = ends[at] - occ.ravel()[at]
        w = words[blk]
        return (blk << _BLOCK_LOG) + _select_in_word(w if polarity else ~w, ks - before)

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
        """The raw bits, one uint8 per bit."""
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
