"""Bitvectors with rank/select in two storage modes.

Both modes share a two-level rank directory: 64-bit blocks whose popcounts
are kept as one byte each, and 2^10-bit superblocks holding cumulative
ranks.  Select keeps sampled anchors every 2^12 occurrences per polarity.

``plain`` stores the raw words.  ``rrr`` stores, per block, only the index
of the block among all 64-bit words with the same popcount (combinadic
order).  The class byte then serves double duty as the rank directory and
as the decoder's key, so the offset stream is the only entropy-sized part:
block b costs exactly ceil(lg C(64, c_b)) payload bits (the final block,
when shorter, costs ceil(lg C(len, c)) for its true length).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bits import U64, pack_bits, pack_fields, popcount, read_fields, unpack_bits
from .errors import OutOfRangeError

BLOCK = 64            # bits per block
SB_BLOCKS = 16        # blocks per superblock (2^10 bits)
SELECT_EVERY = 4096   # occurrences between select anchors

# C(l, k) for l, k in 0..64; C(64, 32) still fits in uint64
_BINOM = np.zeros((BLOCK + 1, BLOCK + 1), dtype=U64)
for _l in range(BLOCK + 1):
    for _k in range(_l + 1):
        _BINOM[_l, _k] = math.comb(_l, _k)

# payload width of a full block per class: ceil(lg C(64, c))
_LEN64 = np.array([(math.comb(BLOCK, c) - 1).bit_length() for c in range(BLOCK + 1)],
                  dtype=np.int64)

# the same table as plain ints: single-block decodes run ~100x faster outside
# numpy (no per-iteration array overhead), so scalar queries take this route
_BINOM_PY = [[math.comb(l, k) for k in range(BLOCK + 1)] for l in range(BLOCK + 1)]

_FEW_LANES = 32  # below this, per-lane python decode beats the vectorised loop

# byte-granular select helpers
_BYTE_POP = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
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


def _scan_block_py(code: int, k: int, blen: int, upto: int) -> tuple[int, int]:
    """One-lane ``_scan_blocks`` on plain ints; stops once position ``upto``
    is decoded or the ones run out (the rest of the block is then zeros)."""
    binom = _BINOM_PY
    acc = 0
    for j in range(blen):
        if k == 0:
            break
        t = binom[blen - 1 - j][k]
        one = code >= t
        if one:
            code -= t
            k -= 1
        if j >= upto:
            return acc, (1 if one else 0)
        if one:
            acc += 1
    return acc, 0


def _select_in_code_py(code: int, k: int, blen: int, r: int, polarity: int) -> int:
    """One-lane ``_select_in_code`` on plain ints.  Once the tail becomes
    constant (no ones left, or nothing but ones) the answer is arithmetic."""
    if r <= 0:
        return -1
    binom = _BINOM_PY
    acc = 0
    for j in range(blen):
        rem = blen - j
        if k == 0 or k == rem:
            if (k > 0) == (polarity == 1):
                p = j + (r - acc) - 1
                return p if p < blen else -1
            return -1
        t = binom[rem - 1][k]
        one = code >= t
        if one:
            code -= t
            k -= 1
        if one == (polarity == 1):
            acc += 1
            if acc == r:
                return j
    return -1


@functools.cache
def _byte_tables() -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Byte-at-a-time decode tables, one per suffix length L = 64, 56, ..., 8.

    The combinadic order is lexicographic from block bit 0, so the class-k
    strings of length L whose first byte is b own one contiguous code range
    [base, base + C(L-8, k - popcount(b))).  Offsetting class k by
    start_L[k] = sum of C(L, k') over k' < k puts every class of one L into
    a single sorted uint64 key array (the offsets sum to 2^L, so keys fit).
    Each entry is (start_L, sorted keys start_L[k] + base, byte per key),
    read-only.  Built on first use (about 10 ms), not at import.
    """
    b = np.arange(256)
    bit = (b[:, None] >> np.arange(8)[None, :]) & 1           # (256, 8)
    before = np.cumsum(bit, axis=1) - bit                      # ones below bit i
    tables = []
    for step in range(BLOCK // 8):
        L = BLOCK - 8 * step
        k = np.arange(L + 1)
        kr = np.clip(k[None, :, None] - before[:, None, :], 0, BLOCK)
        terms = _BINOM[(L - 1 - np.arange(8))[None, None, :], kr]
        base = np.where(bit[:, None, :] == 1, terms, U64(0)).sum(axis=2, dtype=U64)
        start = np.zeros(L + 1, dtype=U64)
        np.cumsum(_BINOM[L, :L], out=start[1:])
        rest = k[None, :] - _BYTE_POP[:, None]                  # ones after byte b
        valid = (rest >= 0) & (rest <= L - 8)
        bb, kk = np.nonzero(valid)
        keys = start[kk] + base[bb, kk]
        order = np.argsort(keys)
        entry = (start, keys[order], bb[order].astype(U64))
        for arr in entry:
            arr.flags.writeable = False
        tables.append(entry)
    return tuple(tables)


def _decode_words(codes: np.ndarray, classes: np.ndarray,
                  blens: np.ndarray) -> np.ndarray:
    """Full combinadic decode of each block to a word (bit j = block bit j).

    Eight table lookups per block, one byte each.  A block shorter than 64
    bits decodes as a 64-bit block behind 64 - blen zeros (leading zeros
    leave a combinadic code unchanged) and is then shifted down.

    Large batches hit few distinct blocks (a level has far fewer blocks than
    a batch has lanes), so callers dedupe, decode each block once, and answer
    every lane with plain word arithmetic.
    """
    val = codes.astype(U64)
    k = classes.astype(np.int64)
    words = np.zeros(codes.shape, dtype=U64)
    for step, (start, keys, byte) in enumerate(_byte_tables()):
        key = start[k] + val
        idx = np.searchsorted(keys, key, side="right") - 1
        b = byte[idx]
        val = key - keys[idx]
        k = k - _BYTE_POP[b]
        words |= b << U64(8 * step)
    return words >> (BLOCK - blens).astype(U64)


def _scan_blocks(codes: np.ndarray, classes: np.ndarray, blens: np.ndarray,
                 upto: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode at most ``_FEW_LANES`` combinadic blocks far enough to answer
    prefix questions.

    Returns (ones among the first ``upto`` bits, bit value at position
    ``upto``) per lane; the bit output is meaningful only when upto < blen.
    """
    up = np.broadcast_to(np.asarray(upto, dtype=np.int64), codes.shape)
    acc = np.empty(codes.shape, dtype=np.int64)
    bit = np.empty(codes.shape, dtype=np.int64)
    for i in range(codes.size):
        acc[i], bit[i] = _scan_block_py(int(codes[i]), int(classes[i]),
                                        int(blens[i]), int(up[i]))
    return acc, bit


def _select_in_code(codes: np.ndarray, classes: np.ndarray, blens: np.ndarray,
                    r: np.ndarray, polarity: int) -> np.ndarray:
    """Position (0-based, in-block) of the r-th one (or zero) of each of at
    most ``_FEW_LANES`` blocks."""
    rr = np.broadcast_to(np.asarray(r, dtype=np.int64), codes.shape)
    pos = np.empty(codes.shape, dtype=np.int64)
    for i in range(codes.size):
        pos[i] = _select_in_code_py(int(codes[i]), int(classes[i]),
                                    int(blens[i]), int(rr[i]), polarity)
    return pos


def _select_in_word(words: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Position of the r-th (1-based) set bit in each word; vectorised."""
    lanes = words[:, None] >> (U64(8) * np.arange(8, dtype=U64))[None, :]
    lanes = (lanes & U64(0xFF)).astype(np.int64)
    cum = np.cumsum(_BYTE_POP[lanes], axis=1)
    byte_idx = np.argmax(cum >= r[:, None], axis=1)
    before = np.take_along_axis(cum, np.maximum(byte_idx - 1, 0)[:, None], 1)[:, 0]
    before = np.where(byte_idx > 0, before, 0)
    within = r - before
    byte_val = np.take_along_axis(lanes, byte_idx[:, None], 1)[:, 0]
    return 8 * byte_idx + _BYTE_SELECT[byte_val, np.maximum(within - 1, 0)]


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
        classes = popcount(words).astype(np.int64)
        self._assemble(words, classes, payload=None)

    # -- construction ----------------------------------------------------

    def _assemble(self, words: np.ndarray, classes: np.ndarray,
                  payload: np.ndarray | None) -> None:
        """Install parts and build every directory.

        ``payload=None`` with rrr mode means: encode offsets from ``words``.
        """
        n = self.n
        nb = words.size if words is not None else classes.size
        if nb != (n + 63) // 64:
            raise ValueError("block count does not match bit length")
        self._nblocks = nb
        self._last_len = n - 64 * (nb - 1) if nb else 0
        self._classes = classes.astype(np.int64)
        if self._classes.size:
            blens_chk = np.full(nb, BLOCK, dtype=np.int64)
            blens_chk[-1] = self._last_len
            if self._classes.min() < 0 or np.any(self._classes > blens_chk):
                raise ValueError("class byte out of range")
        self.ones = int(self._classes.sum())
        if self.mode == "plain":
            self._words = words
            self._payload_words = None
            self._paylens = None
            self._payload_bits = None
            self._sb_pay = None
        else:
            partial = nb and self._last_len < BLOCK
            self._partial_tab = _partial_lengths(self._last_len) if partial else None
            paylens = _LEN64[self._classes] if nb else np.zeros(0, np.int64)
            if partial:
                paylens = paylens.copy()
                paylens[-1] = self._partial_tab[self._classes[-1]]
            if payload is None:
                if nb:
                    bitmat = unpack_bits(words, 64 * nb).reshape(nb, 64)
                    if partial:
                        offsets = np.concatenate([
                            _encode_blocks(bitmat[:-1], BLOCK),
                            _encode_blocks(bitmat[-1:, :self._last_len], self._last_len),
                        ])
                    else:
                        offsets = _encode_blocks(bitmat, BLOCK)
                else:
                    offsets = np.zeros(0, dtype=U64)
                payload, total = pack_fields(offsets, paylens)
            else:
                total = int(paylens.sum())
                if payload.size != max((total + 63) // 64, 1) and not (total == 0 and payload.size <= 1):
                    raise ValueError("payload word count does not match classes")
            if payload.size == 0:
                payload = np.zeros(1, dtype=U64)
            if total >= 1 << 32:
                raise ValueError("offset stream beyond 2^32 bits is not supported")
            self._words = None
            self._payload_words = payload.astype(U64, copy=False)
            self._paylens = paylens
            self._payload_bits = total
            csp = np.zeros(nb + 1, dtype=np.int64)
            np.cumsum(paylens, out=csp[1:])
            self._sb_pay = csp[::SB_BLOCKS].astype(np.uint32)
        csum = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(self._classes, out=csum[1:])
        self._sb_rank = csum[::SB_BLOCKS].astype(np.uint32)
        self._samples1 = self._build_samples(1)
        self._samples0 = self._build_samples(0)

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
            if classes is None or payload is None or classes.size != nb:
                raise ValueError("rrr mode needs classes and payload")
            self._assemble(None, classes.astype(np.int64), payload=payload)
        else:
            raise ValueError(f"unknown bitvector mode {mode!r}")
        return self

    def to_parts(self) -> dict:
        """Serializable pieces (directories are always rebuilt on load)."""
        if self.mode == "plain":
            return {"n": self.n, "mode": "plain", "words": self._words}
        return {"n": self.n, "mode": "rrr",
                "classes": self._classes.astype(np.uint8),
                "payload": self._payload_words}

    def _build_samples(self, polarity: int) -> np.ndarray:
        total = self.ones if polarity == 1 else self.n - self.ones
        if total == 0:
            return np.zeros(0, dtype=np.uint32)
        ks = np.arange(1, total + 1, SELECT_EVERY, dtype=np.int64)
        return self._select_batch(ks, polarity).astype(np.uint32)

    # -- internals (all positions 0-based) --------------------------------

    def _block_lengths(self, blk: np.ndarray) -> np.ndarray:
        out = np.full(blk.shape, BLOCK, dtype=np.int64)
        if self._nblocks:
            out[blk == self._nblocks - 1] = self._last_len
        return out

    def _window_sum(self, arr: np.ndarray, sb: np.ndarray, blk: np.ndarray) -> np.ndarray:
        """Sum arr[16*sb : blk] per lane (at most 16 entries each)."""
        if self._nblocks == 0:
            return np.zeros(blk.shape, dtype=np.int64)
        cols = sb[:, None] * SB_BLOCKS + np.arange(SB_BLOCKS)[None, :]
        valid = cols < blk[:, None]
        vals = arr[np.minimum(cols, self._nblocks - 1)]
        return np.where(valid, vals, 0).sum(axis=1)

    def _read_codes(self, blk: np.ndarray) -> np.ndarray:
        """Combinadic code of each requested block (rrr mode)."""
        if blk.size > _FEW_LANES and blk.size * 16 >= self._nblocks:
            # one transient prefix sum beats per-lane window sums here
            cum = np.concatenate([[0], np.cumsum(self._paylens)])
            start = cum[blk]
        else:
            sb = blk >> 4
            start = (self._sb_pay[sb].astype(np.int64)
                     + self._window_sum(self._paylens, sb, blk))
        return read_fields(self._payload_words, start, self._paylens[blk])

    def _words_of_blocks(self, blk: np.ndarray) -> np.ndarray:
        """Decoded words of the requested blocks (rrr), shared across repeats."""
        seen = np.zeros(self._nblocks, dtype=bool)
        seen[blk] = True
        uniq = np.flatnonzero(seen)
        remap = np.empty(self._nblocks, dtype=np.int64)
        remap[uniq] = np.arange(uniq.size)
        words = _decode_words(self._read_codes(uniq), self._classes[uniq],
                              self._block_lengths(uniq))
        return words[remap[blk]]

    def _rank1_positions(self, pos: np.ndarray) -> np.ndarray:
        """Ones among the first ``pos`` bits, pos in 0..n."""
        pos = np.asarray(pos, dtype=np.int64)
        if pos.size == 0 or self._nblocks == 0:
            return np.zeros(pos.shape, dtype=np.int64)
        blk = pos >> 6
        if pos.size > _FEW_LANES and pos.size * 16 >= self._nblocks:
            cum = np.concatenate([[0], np.cumsum(self._classes)])
            base = cum[blk]
        else:
            sb = blk >> 4
            base = (self._sb_rank[sb].astype(np.int64)
                    + self._window_sum(self._classes, sb, blk))
        rem = pos & 63
        if not (rem > 0).any():
            return base
        bsel = np.minimum(blk, self._nblocks - 1)
        if self.mode == "plain":
            masked = self._words[bsel] & ((U64(1) << rem.astype(U64)) - U64(1))
            part = popcount(masked).astype(np.int64)
        elif bsel.size > _FEW_LANES:
            masked = self._words_of_blocks(bsel) & ((U64(1) << rem.astype(U64)) - U64(1))
            part = popcount(masked).astype(np.int64)
        else:
            part, _ = _scan_blocks(self._read_codes(bsel), self._classes[bsel],
                                   self._block_lengths(bsel), rem)
        return base + np.where(rem > 0, part, 0)

    def _access_positions(self, pos: np.ndarray) -> np.ndarray:
        pos = np.asarray(pos, dtype=np.int64)
        if pos.size == 0:
            return np.zeros(0, dtype=np.int64)
        blk = pos >> 6
        rem = pos & 63
        if self.mode == "plain":
            return ((self._words[blk] >> rem.astype(U64)) & U64(1)).astype(np.int64)
        if blk.size > _FEW_LANES:
            w = self._words_of_blocks(blk)
            return ((w >> rem.astype(U64)) & U64(1)).astype(np.int64)
        _, bit = _scan_blocks(self._read_codes(blk), self._classes[blk],
                              self._block_lengths(blk), rem)
        return bit

    def _occ_before_superblocks(self, polarity: int) -> np.ndarray:
        nsb = self._sb_rank.size
        bitpos = np.minimum(1024 * np.arange(nsb, dtype=np.int64), self.n)
        ones = self._sb_rank.astype(np.int64)
        return ones if polarity == 1 else bitpos - ones

    def _select_batch(self, ks: np.ndarray, polarity: int) -> np.ndarray:
        """0-based position of the k-th occurrence of the polarity bit.

        Large batches use a global binary search over superblock ranks; the
        sampled anchors (kept for scalar queries) narrow the same search to
        a constant-size window.
        """
        ks = np.asarray(ks, dtype=np.int64)
        if ks.size == 0:
            return np.zeros(0, dtype=np.int64)
        if ks.size > _FEW_LANES and ks.size * 16 >= self._nblocks:
            # transient per-block occurrence prefix; binary-search all lanes
            blens = np.full(self._nblocks, BLOCK, dtype=np.int64)
            blens[-1] = self._last_len
            occ = self._classes if polarity == 1 else blens - self._classes
            cum = np.cumsum(occ)
            blk = np.searchsorted(cum, ks, side="left")
            rloc = ks - np.where(blk > 0, cum[np.maximum(blk - 1, 0)], 0)
        else:
            occ_before = self._occ_before_superblocks(polarity)
            sbidx = np.searchsorted(occ_before, ks, side="left") - 1
            sbidx = np.maximum(sbidx, 0)
            # narrow to the block inside the superblock
            cols = sbidx[:, None] * SB_BLOCKS + np.arange(SB_BLOCKS)[None, :]
            valid = cols < self._nblocks
            csel = np.minimum(cols, self._nblocks - 1)
            blen = np.where(csel == self._nblocks - 1, self._last_len, BLOCK)
            occ = self._classes[csel] if polarity == 1 else blen - self._classes[csel]
            occ = np.where(valid, occ, 0)
            cum = np.cumsum(occ, axis=1)
            r0 = ks - occ_before[sbidx]
            off = np.argmax(cum >= r0[:, None], axis=1)
            blk = sbidx * SB_BLOCKS + off
            before = np.take_along_axis(cum, np.maximum(off - 1, 0)[:, None], 1)[:, 0]
            rloc = r0 - np.where(off > 0, before, 0)
        if self.mode == "plain" or blk.size > _FEW_LANES:
            w = self._words[blk] if self.mode == "plain" else self._words_of_blocks(blk)
            if polarity == 0:
                lens = self._block_lengths(blk)
                full = np.where(lens == BLOCK, ~U64(0),
                                (U64(1) << (lens & 63).astype(U64)) - U64(1))
                w = ~w & full
            inpos = _select_in_word(w, rloc)
        else:
            inpos = _select_in_code(self._read_codes(blk), self._classes[blk],
                                    self._block_lengths(blk), rloc, polarity)
        return blk * BLOCK + inpos

    def _select_scalar(self, k: int, polarity: int) -> int:
        """Anchor-assisted scalar select (0-based result)."""
        samples = self._samples1 if polarity == 1 else self._samples0
        occ_before = self._occ_before_superblocks(polarity)
        j = (k - 1) >> 12
        lo = int(samples[j]) >> 10
        if j + 1 < samples.size:
            hi = min((int(samples[j + 1]) >> 10) + 2, occ_before.size)
        else:
            hi = occ_before.size
        sb = lo + int(np.searchsorted(occ_before[lo:hi], k, side="left")) - 1
        sb = max(sb, 0)
        ks = np.array([k - occ_before[sb]], dtype=np.int64)
        # reuse the batched block scan inside the one superblock
        cols = sb * SB_BLOCKS + np.arange(SB_BLOCKS)
        valid = cols < self._nblocks
        csel = np.minimum(cols, self._nblocks - 1)
        blen = np.where(csel == self._nblocks - 1, self._last_len, BLOCK)
        occ = self._classes[csel] if polarity == 1 else blen - self._classes[csel]
        occ = np.where(valid, occ, 0)
        cum = np.cumsum(occ)
        off = int(np.argmax(cum >= ks[0]))
        blk = np.array([sb * SB_BLOCKS + off], dtype=np.int64)
        rloc = ks - (cum[off - 1] if off > 0 else 0)
        if self.mode == "plain":
            w = self._words[blk]
            if polarity == 0:
                lens = self._block_lengths(blk)
                full = np.where(lens == BLOCK, ~U64(0),
                                (U64(1) << (lens & 63).astype(U64)) - U64(1))
                w = ~w & full
            inpos = _select_in_word(w, rloc)
        else:
            inpos = _select_in_code(self._read_codes(blk), self._classes[blk],
                                    self._block_lengths(blk), rloc, polarity)
        return int(blk[0]) * BLOCK + int(inpos[0])

    # -- public 1-based API ----------------------------------------------

    def access(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise OutOfRangeError(f"access index must lie in 1..{self.n}")
        return int(self._access_positions(np.array([i - 1]))[0])

    def access_batch(self, i) -> np.ndarray:
        arr = np.asarray(i, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > self.n):
            raise OutOfRangeError(f"access index must lie in 1..{self.n}")
        return self._access_positions(arr - 1)

    def rank1(self, i: int) -> int:
        if not 0 <= i <= self.n:
            raise OutOfRangeError(f"rank index must lie in 0..{self.n}")
        return int(self._rank1_positions(np.array([i]))[0])

    def rank0(self, i: int) -> int:
        return i - self.rank1(i)

    def rank1_batch(self, i) -> np.ndarray:
        arr = np.asarray(i, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() > self.n):
            raise OutOfRangeError(f"rank index must lie in 0..{self.n}")
        return self._rank1_positions(arr)

    def rank0_batch(self, i) -> np.ndarray:
        arr = np.asarray(i, dtype=np.int64)
        return arr - self.rank1_batch(arr)

    def select1(self, k: int) -> int:
        if not 1 <= k <= self.ones:
            raise OutOfRangeError(f"select1 argument must lie in 1..{self.ones}")
        return self._select_scalar(k, 1) + 1

    def select0(self, k: int) -> int:
        zeros = self.n - self.ones
        if not 1 <= k <= zeros:
            raise OutOfRangeError(f"select0 argument must lie in 1..{zeros}")
        return self._select_scalar(k, 0) + 1

    def select1_batch(self, k) -> np.ndarray:
        arr = np.asarray(k, dtype=np.int64)
        if arr.size and (arr.min() < 1 or arr.max() > self.ones):
            raise OutOfRangeError(f"select1 argument must lie in 1..{self.ones}")
        return self._select_batch(arr, 1) + 1

    def select0_batch(self, k) -> np.ndarray:
        arr = np.asarray(k, dtype=np.int64)
        zeros = self.n - self.ones
        if arr.size and (arr.min() < 1 or arr.max() > zeros):
            raise OutOfRangeError(f"select0 argument must lie in 1..{zeros}")
        return self._select_batch(arr, 0) + 1

    def to_array(self) -> np.ndarray:
        """Materialise the raw bits (testing/debug aid)."""
        if self.n == 0:
            return np.zeros(0, dtype=np.uint8)
        if self.mode == "plain":
            return unpack_bits(self._words, self.n)
        return self._access_positions(np.arange(self.n)).astype(np.uint8)

    # -- accounting --------------------------------------------------------

    def space_report(self) -> dict:
        """Bit-level accounting of payload vs. navigation directories."""
        nb = self._nblocks
        directory = 8 * nb + 32 * self._sb_rank.size
        directory += 32 * (self._samples1.size + self._samples0.size)
        if self.mode == "plain":
            payload = self.n
        else:
            payload = int(self._payload_bits)
            directory += 32 * self._sb_pay.size
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
