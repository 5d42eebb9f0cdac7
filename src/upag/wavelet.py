"""Wavelet tree over an integer alphabet, stored as one bitvector per level.

Levels use the nested-interval layout: the bits of level l are the l-th
most significant code bits of the sequence, stably reordered by the code
prefix above them, so every tree node occupies one contiguous interval and
navigation needs nothing beyond rank/select on the levels — no per-node
pointers or counts.

Symbols are first mapped through a presence bitvector to dense codes
0..sigma_eff-1 (ordered by symbol), which keeps the level count at
ceil(lg sigma_eff) no matter how sparse the alphabet actually is.
"""

from __future__ import annotations

import numpy as np

from .bitvector import BitVector, _distinct
from .errors import OutOfRangeError


class WaveletTree:
    def __init__(self, values=None, sigma: int = 1, mode: str = "rrr",
                 _parts: dict | None = None):
        if _parts is not None:
            self._init_from_parts(_parts)
            return
        vals = np.asarray(values if values is not None else [], dtype=np.int64)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        if vals.size and (vals.min() < 0 or vals.max() >= sigma):
            raise OutOfRangeError(f"symbols must lie in 0..{sigma - 1}")
        self.sigma = int(sigma)
        self.length = int(vals.size)
        self.mode = mode
        present = np.zeros(sigma, dtype=np.uint8)
        if vals.size:
            present[vals] = 1
        self._presence = BitVector(present, mode="rrr")
        self.sigma_eff = int(self._presence.ones)
        self.width = (self.sigma_eff - 1).bit_length() if self.sigma_eff >= 2 else 0
        codes = (self._presence.rank1_batch(vals + 1) - 1) if vals.size else vals
        self._levels: list[BitVector] = []
        order = np.arange(vals.size)
        for lvl in range(self.width):
            cur = codes[order]
            shift = self.width - 1 - lvl
            self._levels.append(BitVector((cur >> shift) & 1, mode=mode))
            if lvl < self.width - 1:
                order = order[np.argsort(cur >> shift, kind="stable")]

    # -- serialization ------------------------------------------------------

    def to_parts(self) -> dict:
        return {
            "sigma": self.sigma,
            "length": self.length,
            "mode": self.mode,
            "presence": self._presence.to_parts(),
            "levels": [lvl.to_parts() for lvl in self._levels],
        }

    @classmethod
    def from_parts(cls, parts: dict) -> "WaveletTree":
        """Reassemble from ``to_parts`` output; the presence map and the
        levels may also be given as built bitvectors."""
        return cls(_parts=parts)

    def _init_from_parts(self, parts: dict) -> None:
        def built(p):
            return p if isinstance(p, BitVector) else BitVector.from_parts(**p)

        self.sigma = int(parts["sigma"])
        self.length = int(parts["length"])
        self._presence = built(parts["presence"])
        if self._presence.n != self.sigma:
            raise ValueError("presence bitvector does not span the alphabet")
        self.sigma_eff = int(self._presence.ones)
        self.width = (self.sigma_eff - 1).bit_length() if self.sigma_eff >= 2 else 0
        if len(parts["levels"]) != self.width:
            raise ValueError("level count does not match the effective alphabet")
        self._levels = [built(p) for p in parts["levels"]]
        for lvl in self._levels:
            if lvl.n != self.length:
                raise ValueError("level length does not match the sequence")
        if self._codes_beyond():
            raise ValueError("the string stores codes beyond the effective alphabet")
        self.mode = parts.get(
            "mode", self._levels[0].mode if self._levels else self._presence.mode
        )

    def _codes_beyond(self) -> int:
        """Positions whose code is >= sigma_eff, from one descent along the
        bits of sigma_eff: where its bit is 0, the node's ones child holds
        larger codes; the leaf holds sigma_eff itself."""
        if self.sigma_eff >> self.width:
            return 0                   # every width-bit code is below sigma_eff
        s, e, beyond = 0, self.length, 0
        for lvl, bv in enumerate(self._levels):
            r = bv._rank1(np.array([s, e], dtype=np.int64))
            mid = e - int(r[1] - r[0])     # the ones' child starts here
            if self.sigma_eff >> (self.width - 1 - lvl) & 1:
                s = mid
            else:
                beyond += e - mid
                e = mid
        return beyond + e - s

    # -- dense-code mapping ---------------------------------------------------

    def _codes_of(self, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dense code, present?) per symbol, from one presence fetch: a
        present symbol's code is the number of present symbols below it.
        An absent symbol gets a code too, whose answers callers discard."""
        if cs.size and (cs.min() < 0 or cs.max() >= self.sigma):
            raise OutOfRangeError(f"symbol must lie in 0..{self.sigma - 1}")
        return self._presence._rank_bit(cs)

    def _symbols_of(self, codes: np.ndarray) -> np.ndarray:
        return self._presence._select(codes + 1, 1)

    def _level_bits(self, codes: np.ndarray) -> np.ndarray:
        """(width, codes) boolean matrix: row l holds the code bit that level
        l reads, i.e. whether the code goes to the ones' child there."""
        shifts = np.arange(self.width - 1, -1, -1)
        return ((codes[None, :] >> shifts[:, None]) & 1).astype(bool)

    # -- batch queries (1-based, like the scalar API) ---------------------------

    def access_batch(self, i) -> np.ndarray:
        pos = np.asarray(i, dtype=np.int64)
        if pos.size == 0:
            return pos.copy()
        if pos.min() < 1 or pos.max() > self.length:
            raise OutOfRangeError(f"position must lie in 1..{self.length}")
        idx = pos - 1                      # offset inside the current node
        q = pos.size
        s = np.zeros(q, dtype=np.int64)
        e = np.full(q, self.length, dtype=np.int64)
        code = np.zeros(q, dtype=np.int64)
        for bv in self._levels:
            # node start, node end, and the position's rank and bit
            r, b = bv._rank_bit(np.concatenate((s, e, s + idx)))
            r1s, bit = r[:q], b[2 * q:]
            mid = e - (r[q:2 * q] - r1s)   # the ones' child starts here
            ones_before = r[2 * q:] - r1s
            code = (code << 1) | bit
            idx = np.where(bit, ones_before, idx - ones_before)
            s, e = np.where(bit, mid, s), np.where(bit, e, mid)
        return self._symbols_of(code)

    def rank_batch(self, c, i) -> np.ndarray:
        cs = np.asarray(c, dtype=np.int64)
        prefix = np.asarray(i, dtype=np.int64)
        cs, prefix = np.broadcast_arrays(cs, prefix)
        cs, prefix = cs.astype(np.int64), prefix.astype(np.int64)
        if prefix.size == 0:
            return prefix.copy()
        if prefix.min() < 0 or prefix.max() > self.length:
            raise OutOfRangeError(f"prefix length must lie in 0..{self.length}")
        codes, present = self._codes_of(cs)
        out = self._rank_codes(codes, prefix)
        out[~present] = 0
        return out

    def select_batch(self, c, k) -> np.ndarray:
        cs = np.asarray(c, dtype=np.int64)
        ks = np.asarray(k, dtype=np.int64)
        cs, ks = np.broadcast_arrays(cs, ks)
        cs, ks = cs.astype(np.int64), ks.astype(np.int64)
        if ks.size == 0:
            return ks.copy()
        codes, present = self._codes_of(cs)
        uc, inv = _distinct(codes)
        starts, r1s, s, e = self._descend(uc)
        occ = np.where(present, (e - s)[inv], 0)
        bad = (ks < 1) | (ks > occ)
        if bad.any():
            k = int(np.argmax(bad))
            raise OutOfRangeError(f"symbol {int(cs[k])} has only {int(occ[k])} occurrences")
        return self._ascend(uc, inv, ks, starts, r1s)

    def positions(self, c: int) -> np.ndarray:
        """1-based positions of every occurrence of symbol ``c``, ascending:
        one descent to the symbol's leaf, whose length is its occurrence
        count, and one ascent of all its occurrences."""
        codes, present = self._codes_of(np.array([c], dtype=np.int64))
        if not present[0]:
            return np.zeros(0, dtype=np.int64)
        starts, r1s, s, e = self._descend(codes)
        occ = int(e[0] - s[0])
        return self._ascend(codes, np.zeros(occ, dtype=np.intp), np.arange(1, occ + 1),
                            starts, r1s)

    def _rank_codes(self, codes: np.ndarray, prefix: np.ndarray) -> np.ndarray:
        # node intervals depend on the code alone: walk them once per
        # distinct code, and only the prefix ends once per lane
        uc, inv = _distinct(codes)
        u = uc.size
        s = np.zeros(u, dtype=np.int64)
        e = np.full(u, self.length, dtype=np.int64)
        p = prefix.copy()
        for bv, bit in zip(self._levels, self._level_bits(uc)):
            r = bv._rank1(np.concatenate((s, e, s[inv] + p)))
            r1s = r[:u]
            mid = e - (r[u:2 * u] - r1s)   # the ones' child starts here
            ones_in_prefix = r[2 * u:] - r1s[inv]
            p = np.where(bit[inv], ones_in_prefix, p - ones_in_prefix)
            s, e = np.where(bit, mid, s), np.where(bit, e, mid)
        return p

    def _descend(self, uc: np.ndarray):
        """Walk each code's root-to-leaf path.  Returns, per level, the node
        start and the ones before it ((width, codes) matrices), and the leaf
        interval [s, e) of each code."""
        u = uc.size
        s = np.zeros(u, dtype=np.int64)
        e = np.full(u, self.length, dtype=np.int64)
        starts = np.zeros((self.width, u), dtype=np.int64)
        r1s = np.zeros((self.width, u), dtype=np.int64)
        for lvl, (bv, bit) in enumerate(zip(self._levels, self._level_bits(uc))):
            r = bv._rank1(np.concatenate((s, e)))
            mid = e - (r[u:] - r[:u])      # the ones' child starts here
            starts[lvl], r1s[lvl] = s, r[:u]
            s, e = np.where(bit, mid, s), np.where(bit, e, mid)
        return starts, r1s, s, e

    def _ascend(self, uc: np.ndarray, inv: np.ndarray, ks: np.ndarray,
                starts: np.ndarray, r1s: np.ndarray) -> np.ndarray:
        """1-based position of the ks-th occurrence (1-based inside the leaf)
        of code ``uc[inv]`` per lane, from the descent's per-level node
        starts and ranks of the distinct codes ``uc``."""
        p = ks.copy()
        bits = self._level_bits(uc)
        for lvl in range(self.width - 1, -1, -1):
            bv, s_l, r1 = self._levels[lvl], starts[lvl][inv], r1s[lvl][inv]
            m1 = bits[lvl][inv]
            g = np.empty(p.size, dtype=np.int64)
            if m1.any():
                g[m1] = bv._select(r1[m1] + p[m1], 1)
            m0 = ~m1
            if m0.any():
                g[m0] = bv._select(s_l[m0] - r1[m0] + p[m0], 0)
            p = g + 1 - s_l
        return p

    # -- scalar wrappers ----------------------------------------------------

    def access(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise OutOfRangeError(f"position must lie in 1..{self.length}")
        return int(self.access_batch(np.array([i]))[0])

    def rank(self, c: int, i: int) -> int:
        """Occurrences of symbol c among the first i positions (i in 0..length)."""
        return int(self.rank_batch(np.array([c]), np.array([i]))[0])

    def select(self, c: int, k: int) -> int:
        """Position of the k-th occurrence of symbol c (1-based)."""
        return int(self.select_batch(np.array([c]), np.array([k]))[0])

    def occ(self, c: int) -> int:
        return self.rank(c, self.length)

    def symbol_counts(self) -> dict:
        """Occurrence count of every present symbol, from the structure alone."""
        if self.sigma_eff == 0:
            return {}
        codes = np.arange(1, self.sigma_eff + 1, dtype=np.int64)
        syms = self._presence.select1_batch(codes) - 1
        cnt = self.rank_batch(syms, np.full(syms.size, self.length))
        return {int(s): int(c) for s, c in zip(syms, cnt)}

    def to_array(self) -> np.ndarray:
        if self.length == 0:
            return np.zeros(0, dtype=np.int64)
        return self.access_batch(np.arange(1, self.length + 1))

    # -- accounting ------------------------------------------------------------

    def space_report(self) -> dict:
        """Payload/directory bits of the levels; the presence map is metadata."""
        payload = directory = 0
        for lvl in self._levels:
            rep = lvl.space_report()
            payload += rep["payload_bits"]
            directory += rep["directory_bits"]
        pres = self._presence.space_report()
        return {
            "length": self.length,
            "sigma": self.sigma,
            "sigma_eff": self.sigma_eff,
            "width": self.width,
            "payload_bits": payload,
            "directory_bits": directory,
            "presence_bits": pres["total_bits"],
        }

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (f"WaveletTree(length={self.length}, sigma={self.sigma}, "
                f"sigma_eff={self.sigma_eff}, width={self.width})")
