"""Bitvectors with rank/select in two storage modes.

Both modes share a two-level rank directory: 64-bit blocks whose popcounts
(classes) are kept as one byte each, and 2^10-bit superblocks holding the
rank at their start.  There are no sampled select anchors.

``plain`` stores the raw words.  ``rrr`` stores, per block, only the index
of the block among all 64-bit words with the same popcount (combinadic
order).  The class byte then serves double duty as the rank directory and
as the decoder's key, so the offset stream is the only entropy-sized part:
block b costs exactly ceil(lg C(64, c_b)) payload bits (the final block,
when shorter, costs ceil(lg C(len, c)) for its true length).  An rrr
superblock also keeps the payload offset at its start.

Every query is one block fetch, ``BitVector._fetch``, and then word
arithmetic.  For each lane's block the fetch returns the ones before the
block and the block's word, stored (plain) or decoded (rrr): rank is a
masked popcount of it, access a shift, and select finds the block from the
superblock ranks and the class bytes, fetches it and selects in the word.
The fetch dedupes blocks, so a call reads and decodes each distinct block
once, and it holds the only two choices that depend on batch size, each a
cost test on what the batch touches (their crossovers were measured):

* a batch with at least 1/10 as many lanes as blocks marks its blocks in a
  table and takes rank bases and payload starts from one transient prefix
  over all blocks, O(blocks) = O(10 * lanes); a smaller batch sorts its
  blocks and adds at most 15 entries of each block's superblock to the
  superblock's sample;
* ``_decode_words`` reads a block a byte at a time from the tables of
  ``_fused_tables`` (a lane is one uint64 key; a step is one
  ``searchsorted`` and one gather) and its last 16 bits from one direct
  table.  From ``_SORT_BLOCKS`` distinct blocks up it sorts the keys before
  every step, since the search runs several times faster on sorted
  needles; below that the sorts cost more than they save.

In memory each block keeps one packed uint64 (class, payload width and, for
a short last block, its missing length) rebuilt from the class bytes on
load: it holds nothing the file does not.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bits import U64, pack_bits, pack_fields, popcount, read_fields, unpack_bits
from .errors import OutOfRangeError

BLOCK = 64            # bits per block
SB_BLOCKS = 16        # blocks per superblock (2^10 bits)

# C(l, k) for l, k in 0..64; C(64, 32) still fits in uint64
_BINOM = np.zeros((BLOCK + 1, BLOCK + 1), dtype=U64)
for _l in range(BLOCK + 1):
    for _k in range(_l + 1):
        _BINOM[_l, _k] = math.comb(_l, _k)

# payload width of a full block per class: ceil(lg C(64, c))
_LEN64 = np.array([(math.comb(BLOCK, c) - 1).bit_length() for c in range(BLOCK + 1)],
                  dtype=np.int64)

# The packed per-block entry: class in the low half, payload width above it,
# 64 - block length in the top six bits.  An exclusive prefix sum of entries
# is (ones before, payload bits before): both stay below 2^32, and only the
# last block, which no such prefix includes, has a length field.
# Constants of the query paths are 0-d arrays: numpy combines two arrays
# faster than an array and a scalar, and most calls carry a few lanes.
_LOW = np.array(0xFFFFFFFF, dtype=U64)
_WIDTH = np.array(0x3F, dtype=U64)
_HALF = np.array(32, dtype=U64)
_TAIL = np.array(58, dtype=U64)
_ALL = ~np.array(0, dtype=U64)
_BIT = np.array(1, dtype=U64)
_BLOCK_LOG = np.array(6)        # position >> 6 = block
_SB_LOG = np.array(4)           # block >> 4 = superblock
_SB_MASK = np.array(SB_BLOCKS - 1)
_SORT_BLOCKS = 192    # decode calls of this many blocks sort their keys (measured crossover)
_WHOLE_SHARE = 10     # fetches of nblocks / 10 lanes or more take the whole-block route (ditto)
# _BEFORE[c]: ones at the entries of a superblock that precede entry c
_BEFORE = np.tri(SB_BLOCKS, k=-1, dtype=U64)

# byte-granular select helpers
_BYTE_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_BYTE_SELECT = np.full((256, 8), 8, dtype=np.int64)
for _b in range(256):
    _r = 0
    for _j in range(8):
        if (_b >> _j) & 1:
            _BYTE_SELECT[_b, _r] = _j
            _r += 1


def _partial_lengths(blen: int) -> np.ndarray:
    return np.array([(math.comb(blen, c) - 1).bit_length() for c in range(blen + 1)],
                    dtype=np.int64)


def _encode_blocks(bitmat: np.ndarray, blen: int) -> np.ndarray:
    """Combinadic offsets for the rows of a (nb, blen) 0/1 matrix."""
    val = np.zeros(bitmat.shape[0], dtype=U64)
    k = bitmat.sum(axis=1, dtype=np.int64)
    for j in range(blen):
        t = _BINOM[blen - 1 - j, k]
        one = bitmat[:, j] == 1
        val = np.where(one, val + t, val)
        k = k - one
    return val


_TAIL_BITS = 16       # the decode reads the last 16 bits of a block from one table


@functools.cache
def _fused_tables() -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...],
                             np.ndarray, np.ndarray, np.ndarray]:
    """Decode tables: (start_64, one byte step per L = 64, 56, ..., 24, the
    bytes of every step's entries, each step's offset into them, the table
    of the last 16 bits).

    The combinadic order is lexicographic from block bit 0, so the class-k
    strings of length L whose first byte is b own one contiguous code range
    [base, base + C(L-8, k - popcount(b))).  Offsetting class k by
    start_L[k] = sum of C(L, k') over k' < k puts every class of one L into
    a single sorted uint64 key space (the offsets sum to 2^L, so keys fit):
    a block of class k and code c has key start_64[k] + c.

    Entry j of a step is the range with the j-th smallest lower bound
    ``lo[j]``; the step stores
      keys[j]  = lo[j + 1]; lo[0] is always 0, so the entry holding a key
                 is ``keys.searchsorted(key, "right")``,
      delta[j] = start_{L-8}[k - popcount(b)] - lo[j], wrapping in uint64,
                 which turns the key into the key of the remaining L - 8 bits,
    and byte b of entry j sits at ``offsets[step] + j`` of the byte table.
    Once 16 bits remain, the key space is 2^16 wide and ``tail[key]`` is
    the 16-bit string itself.  Read-only, about 1.05 MiB, built on first
    decode (not at import).
    """
    b = np.arange(256)
    bit = (b[:, None] >> np.arange(8)[None, :]) & 1           # (256, 8)
    before = np.cumsum(bit, axis=1) - bit                      # ones below bit i

    def class_starts(L: int) -> np.ndarray:
        start = np.zeros(L + 1, dtype=U64)
        np.cumsum(_BINOM[L, :L], out=start[1:])
        return start

    steps, byte_runs = [], []
    for step in range(BLOCK // 8):
        L = BLOCK - 8 * step
        k = np.arange(L + 1)
        kr = np.clip(k[None, :, None] - before[:, None, :], 0, BLOCK)
        terms = _BINOM[(L - 1 - np.arange(8))[None, None, :], kr]
        base = np.where(bit[:, None, :] == 1, terms, U64(0)).sum(axis=2, dtype=U64)
        rest = k[None, :] - _BYTE_POP[:, None]                  # ones after byte b
        bb, kk = np.nonzero((rest >= 0) & (rest <= L - 8))
        lo = class_starts(L)[kk] + base[bb, kk]
        order = np.argsort(lo)
        lo, bb, kk = lo[order], bb[order], kk[order]
        steps.append((lo[1:].copy(), class_starts(L - 8)[kk - _BYTE_POP[bb]] - lo))
        byte_runs.append(bb.astype(np.uint8))
    # the last two steps, run once on every 16-bit key, give the tail table
    head = (BLOCK - _TAIL_BITS) // 8
    key = np.arange(1 << _TAIL_BITS, dtype=U64)
    tail = np.zeros(key.size, dtype="<u2")
    for shift, (keys, delta), byts in zip((0, 8), steps[head:], byte_runs[head:]):
        i = keys.searchsorted(key, "right")
        key += delta[i]
        tail |= byts[i].astype("<u2") << shift
    steps, byte_runs = steps[:head], byte_runs[:head]
    offsets = np.cumsum([0] + [r.size for r in byte_runs[:-1]])
    tables = [class_starts(BLOCK), np.concatenate(byte_runs), offsets, tail]
    for arr in tables + [a for st in steps for a in st]:
        arr.flags.writeable = False
    return tables[0], tuple(steps), tables[1], tables[2], tables[3]


def _decode_words(codes: np.ndarray, classes: np.ndarray,
                  pads: np.ndarray) -> np.ndarray:
    """Full combinadic decode of each block to a word (bit j = block bit j).

    Six byte steps of one ``searchsorted`` and one gather per block, on the
    tables of ``_fused_tables``, then one gather for the last 16 bits.  Each
    step's entry index is kept, and one gather at the end turns the six
    indices of a block into its bytes.  A block shorter than 64 bits decodes
    as a 64-bit block behind ``pads`` = 64 - length zeros (leading zeros
    leave a combinadic code unchanged) and is then shifted down.

    From ``_SORT_BLOCKS`` blocks up the keys are sorted before every step:
    ``searchsorted`` runs several times faster on sorted needles (2.3x over
    a step at 8,192 blocks), and the lanes travel with their keys.  Smaller
    calls search unsorted needles, where the sorts would cost more than
    they save.  Callers dedupe, so a block is decoded once per call.
    """
    start, steps, byte_table, offsets, tail = _fused_tables()
    key = start[classes] + codes.astype(U64, copy=False)
    picks = np.empty((len(steps), key.size), dtype=np.intp)
    lane = np.arange(key.size) if key.size >= _SORT_BLOCKS else slice(None)
    for step, (keys, delta) in enumerate(steps):
        if key.size >= _SORT_BLOCKS:
            order = key.argsort()
            key, lane = key[order], lane[order]
        i = keys.searchsorted(key, "right")
        key += delta[i]
        picks[step, lane] = i
    picks += offsets[:, None]
    word = np.empty((key.size, BLOCK // 8), dtype=np.uint8)
    word[:, :len(steps)] = byte_table[picks].T
    word[lane, len(steps):] = tail[key].view(np.uint8).reshape(-1, _TAIL_BITS // 8)
    return word.view(np.dtype("<u8")).reshape(-1) >> pads.astype(U64, copy=False)


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of ``a``, and the index of each lane's value."""
    order = a.argsort()
    s = a[order]
    head = np.empty(s.size, dtype=bool)
    head[:1] = True
    np.not_equal(s[1:], s[:-1], out=head[1:])
    inv = np.empty(s.size, dtype=np.intp)
    inv[order] = head.cumsum() - 1
    return s[head], inv


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

    def __init__(self, bits=None, mode: str = "plain"):
        if mode not in ("plain", "rrr"):
            raise ValueError(f"unknown bitvector mode {mode!r}")
        if bits is None:
            bits = np.zeros(0, dtype=np.uint8)
        b = np.asarray(bits, dtype=np.uint8)
        if b.ndim != 1 or (b.size and b.max() > 1):
            raise ValueError("bits must be a flat 0/1 sequence")
        self.n = int(b.size)
        self.mode = mode
        if self.n >= 1 << 32:
            raise ValueError("bitvectors beyond 2^32 bits are not supported")
        words = pack_bits(b)
        self._assemble(words, popcount(words).astype(np.int64), payload=None)

    # -- construction ----------------------------------------------------

    def _assemble(self, words: np.ndarray | None, classes: np.ndarray,
                  payload: np.ndarray | None) -> None:
        """Install parts and build every directory.

        ``payload=None`` with rrr mode means: encode offsets from ``words``;
        a given payload is checked to hold a valid code for every block.
        """
        n = self.n
        nb = classes.size
        if nb != (n + 63) // 64:
            raise ValueError("block count does not match bit length")
        self._nblocks = nb
        last = max(nb - 1, 0)
        last_len = n - BLOCK * last
        blens = np.full(nb, BLOCK, dtype=np.int64)
        blens[-1:] = last_len
        if nb and (classes.min() < 0 or np.any(classes > blens)):
            raise ValueError("class byte out of range")
        self.ones = int(classes.sum())
        meta = np.zeros(-(-max(nb, 1) // SB_BLOCKS) * SB_BLOCKS, dtype=U64)
        meta[:nb] = classes
        if self.mode == "plain":
            self._words = words if nb else np.zeros(1, dtype=U64)
            self._payload_words = None
            self._payload_bits = None
        else:
            paylens = _LEN64[classes]
            if last_len < BLOCK:
                paylens[-1:] = _partial_lengths(last_len)[classes[-1:]]
            loaded = payload is not None
            if loaded:
                total = int(paylens.sum())
                if payload.size != max((total + 63) // 64, 1) and not (total == 0 and payload.size <= 1):
                    raise ValueError("payload word count does not match classes")
            else:
                bitmat = unpack_bits(words, BLOCK * nb).reshape(nb, BLOCK)
                offsets = np.concatenate([_encode_blocks(bitmat[:last], BLOCK),
                                          _encode_blocks(bitmat[last:, :last_len], last_len)])
                payload, total = pack_fields(offsets, paylens)
            if total >= 1 << 32:
                raise ValueError("offset stream beyond 2^32 bits is not supported")
            # two zero words past the end: a field read never leaves the array
            self._payload_words = np.concatenate([payload.astype(U64, copy=False),
                                                  np.zeros(2, U64)])
            self._payload_bits = total
            if loaded:
                codes = read_fields(self._payload_words, np.cumsum(paylens) - paylens, paylens)
                if np.any(codes >= _BINOM[blens, classes]):
                    raise ValueError("block code out of range for its class")
            meta[:nb] |= paylens.astype(U64) << _HALF
        csum = np.zeros(meta.size + 1, dtype=U64)
        np.cumsum(meta, out=csum[1:])
        self._sb = csum[:nb + 1:SB_BLOCKS]
        if nb:
            meta[last] |= U64(BLOCK - last_len) << _TAIL
        self._meta = meta
        self._rows = meta.reshape(-1, SB_BLOCKS)
        self._last_blk = np.array(last)
        # occurrences of 0 and of 1 before each superblock, for select
        ones = (self._sb & _LOW).astype(np.int64)
        self._sb_occ = np.stack([np.minimum(BLOCK * SB_BLOCKS * np.arange(ones.size), n) - ones,
                                 ones])

    @classmethod
    def from_parts(cls, n: int, mode: str, *, words: np.ndarray | None = None,
                   classes: np.ndarray | None = None,
                   payload: np.ndarray | None = None) -> "BitVector":
        """Reassemble from serialized parts, rebuilding all directories."""
        self = cls.__new__(cls)
        self.n = int(n)
        self.mode = mode
        nb = (self.n + 63) // 64
        if mode == "plain":
            if words is None or words.size != nb:
                raise ValueError("plain mode needs exactly ceil(n/64) words")
            words = words.astype(U64, copy=True)
            if nb and self.n % 64:
                words[-1] &= (U64(1) << U64(self.n % 64)) - U64(1)
            self._assemble(words, popcount(words).astype(np.int64), payload=None)
        elif mode == "rrr":
            if classes is None or payload is None or np.size(classes) != nb:
                raise ValueError("rrr mode needs classes and payload")
            self._assemble(None, np.asarray(classes, dtype=np.int64),
                           payload=np.asarray(payload, dtype=U64))
        else:
            raise ValueError(f"unknown bitvector mode {mode!r}")
        return self

    def to_parts(self) -> dict:
        """Serializable pieces (directories are always rebuilt on load)."""
        nb = self._nblocks
        if self.mode == "plain":
            return {"n": self.n, "mode": "plain", "words": self._words[:nb]}
        npay = max((self._payload_bits + 63) // 64, 1)
        return {"n": self.n, "mode": "rrr",
                "classes": (self._meta[:nb] & _LOW).astype(np.uint8),
                "payload": self._payload_words[:npay]}

    # -- internals (all positions 0-based) --------------------------------

    def _fetch(self, blk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Ones before each lane's block, and the block's word (bit j is
        block bit j; bits past a short last block read 0).

        Reads and decodes each distinct block once.  A batch of at least
        1/10 as many lanes as blocks works on whole-block arrays: a table
        marks the blocks it touches, and one transient prefix over all
        blocks gives rank bases and payload starts, O(blocks) = O(10 *
        lanes).  A smaller batch sorts its blocks to dedupe them and sums
        at most 15 entries of each one's superblock, O(lanes * log(lanes)
        + 16 * distinct blocks).
        """
        meta = self._meta
        if blk.size * _WHOLE_SHARE >= self._nblocks:
            seen = np.zeros(meta.size, dtype=bool)
            seen[blk] = True
            u = np.flatnonzero(seen)
            at = (seen.cumsum() - 1)[blk]
            m = meta[u]
            pre = meta.cumsum()[u] - m
        else:
            u, at = _distinct(blk)
            m = meta[u]
            sb = u >> _SB_LOG
            pre = self._sb[sb] + np.vecdot(self._rows[sb], _BEFORE[u & _SB_MASK])
        if self.mode == "plain":
            words = self._words[u]
        else:
            codes = read_fields(self._payload_words, pre >> _HALF, m >> _HALF & _WIDTH)
            words = _decode_words(codes, m & _LOW, m >> _TAIL)
        return (pre & _LOW).astype(np.int64)[at], words[at]

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

        A search of the superblock ranks finds each lane's superblock; one
        search of the per-block running counts over just the distinct
        superblocks hit (a monotone run, since they are sorted) finds the
        block; the fetched word finishes.
        """
        sb_occ = self._sb_occ[polarity]
        hit = np.zeros(sb_occ.size, dtype=bool)
        hit[sb_occ.searchsorted(ks) - 1] = True
        sb = np.flatnonzero(hit)
        occ = (self._rows[sb] & _LOW).astype(np.int64)
        if polarity == 0:
            # counting a short last block, and the padding after it, as full
            # blocks moves no answer: the k-th zero lies before the end
            occ = BLOCK - occ
        ends = (occ.cumsum(axis=1) + sb_occ[sb][:, None]).ravel()
        at = ends.searchsorted(ks)
        blk = (sb[at >> _SB_LOG] << _SB_LOG) + (at & _SB_MASK)
        base, w = self._fetch(blk)
        start = blk << _BLOCK_LOG
        if polarity == 0:
            base, w = start - base, ~w
        return start + _select_in_word(w, ks - base)

    # -- public 1-based API ----------------------------------------------

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"access index must lie in 1..{self.n}")
        return int(self._rank_bit(np.array([i - 1]))[1][0])

    def access_batch(self, i) -> np.ndarray:
        arr = np.asarray(i, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > self.n):
            raise OutOfRangeError(f"access index must lie in 1..{self.n}")
        return self._rank_bit(arr - 1)[1].astype(np.int64)

    def rank1(self, i: int) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank index must lie in 0..{self.n}")
        return int(self._rank1(np.array([i]))[0])

    def rank0(self, i: int) -> int:
        return i - self.rank1(i)

    def rank1_batch(self, i) -> np.ndarray:
        arr = np.asarray(i, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() > self.n):
            raise OutOfRangeError(f"rank index must lie in 0..{self.n}")
        return self._rank1(arr)

    def rank0_batch(self, i) -> np.ndarray:
        arr = np.asarray(i, dtype=np.int64)
        return arr - self.rank1_batch(arr)

    def select1(self, k: int) -> int:
        if not 1 <= k <= self.ones:
            raise OutOfRangeError(f"select1 argument must lie in 1..{self.ones}")
        return int(self._select(np.array([k]), 1)[0]) + 1

    def select0(self, k: int) -> int:
        zeros = self.n - self.ones
        if not 1 <= k <= zeros:
            raise OutOfRangeError(f"select0 argument must lie in 1..{zeros}")
        return int(self._select(np.array([k]), 0)[0]) + 1

    def select1_batch(self, k) -> np.ndarray:
        arr = np.asarray(k, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > self.ones):
            raise OutOfRangeError(f"select1 argument must lie in 1..{self.ones}")
        return self._select(arr, 1) + 1

    def select0_batch(self, k) -> np.ndarray:
        arr = np.asarray(k, dtype=np.int64)
        zeros = self.n - self.ones
        if arr.size and (arr.min() < 1 or arr.max() > zeros):
            raise OutOfRangeError(f"select0 argument must lie in 1..{zeros}")
        return self._select(arr, 0) + 1

    def to_array(self) -> np.ndarray:
        """Materialise the raw bits (testing/debug aid)."""
        return self._rank_bit(np.arange(self.n))[1].astype(np.uint8)

    # -- accounting --------------------------------------------------------

    def space_report(self) -> dict:
        """Bit-level accounting of payload vs. navigation directories: a
        class byte per block and, per superblock, a 32-bit rank (and a
        32-bit payload offset in rrr mode)."""
        nb = self._nblocks
        directory = 8 * nb + 32 * self._sb.size
        if self.mode == "plain":
            payload = self.n
        else:
            payload = int(self._payload_bits)
            directory += 32 * self._sb.size
        return {
            "n": self.n,
            "mode": self.mode,
            "payload_bits": payload,
            "directory_bits": directory,
            "total_bits": payload + directory,
        }

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"BitVector(n={self.n}, ones={self.ones}, mode={self.mode!r})"
