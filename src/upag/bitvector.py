"""Bitvectors with rank/select in two storage modes.

Both modes share a two-level rank directory: 64-bit blocks whose popcounts
(classes) are kept as one byte each, and 2^10-bit superblocks holding the
rank at their start.  There are no sampled select anchors.

``plain`` stores the raw words.  ``rrr`` stores, per block, only its code
among the blocks of its length and class (Raman, Raman & Rao, SODA 2002),
in exactly ceil(lg C(len, c)) payload bits; len is 64 but for a shorter
final block.  The class byte serves as rank directory and decoder key, so
the code stream is the only entropy-sized part.  An rrr superblock also
keeps the payload offset at its start.  The code is split-radix
(``_split_tables``): a full block decodes in two halving steps, each one
``searchsorted`` and one ``divmod``, and one gather of 16-bit leaves
(table steps, not bit steps, as in Navarro & Providel, SEA 2012).

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
* a decode step of at least ``_SORT_KEYS`` keys sorts them first, since
  ``searchsorted`` runs several times faster on sorted needles; below that
  the sort costs more than it saves.

In memory each block keeps one packed uint64 (class and payload width)
rebuilt from the class bytes on load: it holds nothing the file does not.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .bits import U64, one_lane, pack_bits, pack_fields, popcount, read_fields
from .errors import OutOfRangeError

BLOCK = 64            # bits per block
SB_BLOCKS = 16        # blocks per superblock (2^10 bits)
LEAF = 16             # pieces of at most this many bits are ranked by one table

# C(l, k) for l, k in 0..64; C(64, 32) still fits in uint64
_BINOM = np.array([[math.comb(l, k) for k in range(BLOCK + 1)] for l in range(BLOCK + 1)], dtype=U64)
# _WIDTHS[l, k]: payload width of an l-bit block of class k, ceil(lg C(l, k))
_WIDTHS = np.array([[(c - 1).bit_length() for c in row] for row in _BINOM.tolist()])

# The packed per-block entry: class in the low half, payload width above it.
# An exclusive prefix sum of entries is (ones before, payload bits before):
# both stay below 2^32.
# Constants of the query paths are 0-d arrays: numpy combines two arrays
# faster than an array and a scalar, and most calls carry a few lanes.
_LOW = np.array(0xFFFFFFFF, dtype=U64)
_WIDTH = np.array(0x3F, dtype=U64)
_HALF = np.array(32, dtype=U64)
_ALL = ~np.array(0, dtype=U64)
_BIT = np.array(1, dtype=U64)
_BLOCK_LOG = np.array(6)        # position >> 6 = block
_SB_LOG = np.array(4)           # block >> 4 = superblock
_SB_MASK = np.array(SB_BLOCKS - 1)
_SORT_KEYS = 1024     # decode steps of this many keys sort them first (measured crossover)
_WHOLE_SHARE = 10     # fetches of nblocks / 10 lanes or more take the whole-block route (ditto)
# _BEFORE[c]: ones at the entries of a superblock that precede entry c
_BEFORE = np.tri(SB_BLOCKS, k=-1, dtype=U64)

# byte-granular select helpers
_BYTE_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)
_BYTE_SELECT = np.array([[j for j in range(8) if b >> j & 1] + [8] * (8 - bin(b).count("1"))
                         for b in range(256)])


def _class_starts(length: int) -> list[int]:
    """start[k]: the number of length-bit strings with fewer than k ones."""
    return list(itertools.accumulate((math.comb(length, j) for j in range(length)), initial=0))


@functools.cache
def _offsets(a: int, b: int) -> np.ndarray:
    """off[k, ka]: the codes of class k among (a + b)-bit strings that come
    before those whose low a bits hold ka ones."""
    off = np.zeros((a + b + 1, a + 1), dtype=U64)
    for k in range(a + b + 1):
        run = 0
        for ka in range(max(k - b, 0), min(k, a) + 1):
            off[k, ka] = run
            run += math.comb(a, ka) * math.comb(b, k - ka)
    return off


@functools.cache
def _leaf_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start, word, rank): ``word[start[k]:start[k + 1]]`` lists the 16-bit
    words of class k in numeric order and ``rank[w]`` is w's index there; a
    shorter leaf of class k is one of the first C(len, k), so one table
    serves every leaf length."""
    pop = popcount(np.arange(1 << LEAF, dtype=U64))
    word = np.argsort(pop, kind="stable").astype("<u2")
    start = np.array(_class_starts(LEAF), dtype=U64)
    rank = np.empty(1 << LEAF, dtype="<u2")
    rank[word] = np.arange(1 << LEAF, dtype=U64) - start[pop[word]]
    for arr in (start, word, rank):
        arr.flags.writeable = False
    return start, word, rank


@functools.cache
def _split_tables(blen: int) -> tuple[np.ndarray, tuple, tuple[tuple[int, ...], ...], np.ndarray]:
    """Split-radix code of ``blen``-bit blocks: (start, steps, lens, shifts).

    A piece of L bits with k ones splits into its low a = ceil(L/2) bits
    (k_a ones) and its high b = L - a bits (k_b ones); its code is
    ``_offsets(a, b)[k, k_a] + code_a * C(b, k_b) + code_b``, a bijection
    onto [0, C(L, k)).  All pieces halve together until none is longer than
    ``LEAF`` bits, whose code is their rank in ``_leaf_tables``.  ``lens[i]``
    lists the piece lengths after i halvings, low bits first; ``shifts``
    the leaves' bit offsets.  A key is a code plus its class's start, so
    each length's classes fill one key space (after a halving, the longer
    length's behind the shorter's).  A step's columns (lo, div, low, high)
    give, by ascending lower bound, each (length, k, k_a) key range with
    C(b, k_b) and the keys of its halves' code 0; ``lo[0]`` is 0, so a
    key's row is ``keys.searchsorted(key, "right")`` on the other bounds.
    A block's first key is ``start[k] + code``.  Read-only, cached per
    length, built on first use (not at import).
    """
    depth = max((blen - 1) // LEAF, 0).bit_length()
    lens = [(blen,)]
    for _ in range(depth):
        lens.append(tuple(h for piece in lens[-1] for h in (piece - piece // 2, piece // 2)))

    def starts(i: int) -> dict[int, list[int]]:
        if i == depth:
            return dict.fromkeys(lens[i], _leaf_tables()[0].tolist())
        short = min(lens[i])            # the longer length's keys start at 2^short
        return {p: [((p - short) << short) + s for s in _class_starts(p)] for p in set(lens[i])}

    steps = []
    for i in range(depth):
        here, below, rows = starts(i), starts(i + 1), []
        for piece in sorted(here):
            a, b = piece - piece // 2, piece // 2
            off = _offsets(a, b)
            for k in range(piece + 1):
                for ka in range(max(k - b, 0), min(k, a) + 1):
                    rows.append((here[piece][k] + int(off[k, ka]), math.comb(b, k - ka),
                                 below[a][ka], below[b][k - ka]))
        cols = np.array(rows, dtype=U64).T.copy()
        steps.append((cols[0, 1:].copy(), tuple(cols)))
    shifts = np.cumsum((0,) + lens[-1][:-1]).astype(U64)
    start = np.array(starts(0)[blen], dtype=U64)
    for arr in (start, shifts, *(a for keys, cols in steps for a in (keys, *cols))):
        arr.flags.writeable = False
    return start, tuple(steps), tuple(lens), shifts


def _encode_blocks(words: np.ndarray, blen: int) -> np.ndarray:
    """Split-radix codes of ``blen``-bit blocks (bit j of a word is block
    bit j): leaf ranks from one table, then one merge per halving."""
    _, _, lens, shifts = _split_tables(blen)
    leaf = (words[:, None] >> shifts) & ((U64(1) << np.array(lens[-1], dtype=U64)) - U64(1))
    ones = popcount(leaf).astype(np.int64)
    code = _leaf_tables()[2][leaf].astype(U64)
    for pieces in reversed(lens[:-1]):
        ka, kb = ones[:, 0::2], ones[:, 1::2]
        ones = ka + kb
        code = np.stack([_offsets(p - p // 2, p // 2)[ones[:, j], ka[:, j]]
                         + code[:, 2 * j] * _BINOM[p // 2, kb[:, j]] + code[:, 2 * j + 1]
                         for j, p in enumerate(pieces)], axis=1)
    return code[:, 0]


def _decode_words(codes: np.ndarray, classes: np.ndarray, blen: int) -> np.ndarray:
    """Words (bit j = block bit j) of ``blen``-bit blocks from their codes
    and classes: per halving, one ``searchsorted`` over at most 1,089 rows
    and one ``divmod`` split every piece into its halves, and one gather
    from the leaf table reads the leaves.  A step of ``_SORT_KEYS`` keys or
    more sorts them first, and ``piece`` tracks where each key's leaves go.
    """
    start, steps, _, shifts = _split_tables(blen)
    key = start[classes.astype(np.intp, copy=False)] + codes.astype(U64, copy=False)
    piece = None
    for keys, (lo, div, low, high) in steps:
        if key.size >= _SORT_KEYS:
            order = key.argsort()
            key = key[order]
            piece = order if piece is None else piece[order]
        i = keys.searchsorted(key, "right")
        q, r = np.divmod(key - lo[i], div[i])
        key = np.empty((key.size, 2), dtype=U64)
        np.add(q, low[i], out=key[:, 0])
        np.add(r, high[i], out=key[:, 1])
        key = key.ravel()
        if piece is not None:
            piece = (piece[:, None] * 2 + np.arange(2)).ravel()
    leaf = _leaf_tables()[1][key]
    if piece is not None:
        leaf[piece] = leaf.copy()
    leaf = leaf.reshape(-1, shifts.size)
    if blen == BLOCK:
        return leaf.view("<u8").ravel()             # four 16-bit leaves
    return (leaf.astype(U64) << shifts).sum(axis=1, dtype=U64)


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

        ``payload=None`` with rrr mode means: encode block codes from ``words``;
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
            paylens = _WIDTHS[BLOCK, classes]
            paylens[-1:] = _WIDTHS[last_len, classes[-1:]]
            loaded = payload is not None
            if loaded:
                total = int(paylens.sum())
                if payload.size != max((total + 63) // 64, 1) and not (total == 0 and payload.size <= 1):
                    raise ValueError("payload word count does not match classes")
            else:
                codes = np.concatenate([_encode_blocks(words[:last], BLOCK),
                                        _encode_blocks(words[last:], last_len)])
                payload, total = pack_fields(codes, paylens)
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
        self._meta = meta
        self._rows = meta.reshape(-1, SB_BLOCKS)
        self._last_blk = np.array(last)
        self._short = last if last_len < BLOCK else -1      # the short last block, if any
        self._short_len = last_len
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
        1/10 as many lanes as blocks marks the blocks it touches in a table
        and takes rank bases and payload starts from one transient prefix
        over all blocks, O(blocks); a smaller one sorts its blocks to dedupe
        them and sums at most 15 entries of each one's superblock.
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
            words = self._decode(codes, m & _LOW, u)
        return (pre & _LOW).astype(np.int64)[at], words[at]

    def _decode(self, codes: np.ndarray, classes: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Words of the ascending blocks ``u``; a short last block comes last."""
        if not (u.size and u[-1] == self._short):
            return _decode_words(codes, classes, BLOCK)
        tail = _decode_words(codes[-1:], classes[-1:], self._short_len)
        if u.size == 1:
            return tail
        return np.concatenate((_decode_words(codes[:-1], classes[:-1], BLOCK), tail))

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
        return int(self.access_batch(*one_lane(i))[0])

    def access_batch(self, i) -> np.ndarray:
        arr = np.asarray(i, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > self.n):
            raise OutOfRangeError(f"access index must lie in 1..{self.n}")
        return self._rank_bit(arr - 1)[1].astype(np.int64)

    def rank1(self, i: int) -> int:
        return int(self.rank1_batch(*one_lane(i))[0])

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
        return int(self.select1_batch(*one_lane(k))[0])

    def select0(self, k: int) -> int:
        return int(self.select0_batch(*one_lane(k))[0])

    def select1_batch(self, k) -> np.ndarray:
        return self._select_checked(k, 1)

    def select0_batch(self, k) -> np.ndarray:
        return self._select_checked(k, 0)

    def _select_checked(self, k, polarity: int) -> np.ndarray:
        arr = np.asarray(k, dtype=np.int64)
        count = self.ones if polarity else self.n - self.ones
        if arr.size and (arr.min() < 1 or arr.max() > count):
            raise OutOfRangeError(f"select{polarity} argument must lie in 1..{count}")
        return self._select(arr, polarity) + 1

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
