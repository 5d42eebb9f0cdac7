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

from .bitvector import BitVector
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
        return cls(_parts=parts)

    def _init_from_parts(self, parts: dict) -> None:
        self.sigma = int(parts["sigma"])
        self.length = int(parts["length"])
        self._presence = BitVector.from_parts(**parts["presence"])
        if self._presence.n != self.sigma:
            raise ValueError("presence bitvector does not span the alphabet")
        self.sigma_eff = int(self._presence.ones)
        self.width = (self.sigma_eff - 1).bit_length() if self.sigma_eff >= 2 else 0
        if len(parts["levels"]) != self.width:
            raise ValueError("level count does not match the effective alphabet")
        self._levels = [BitVector.from_parts(**p) for p in parts["levels"]]
        for lvl in self._levels:
            if lvl.n != self.length:
                raise ValueError("level length does not match the sequence")
        self.mode = parts.get(
            "mode", self._levels[0].mode if self._levels else self._presence.mode
        )

    # -- dense-code mapping ---------------------------------------------------

    def _codes_of(self, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(dense code, present?) per symbol; codes of absent symbols read 0."""
        if cs.size and (cs.min() < 0 or cs.max() >= self.sigma):
            raise OutOfRangeError(f"symbol must lie in 0..{self.sigma - 1}")
        if self.length == 0:
            return np.zeros(cs.shape, np.int64), np.zeros(cs.shape, bool)
        present = self._presence.access_batch(cs + 1) == 1
        codes = self._presence.rank1_batch(cs + 1) - 1
        return np.maximum(codes, 0), present

    def _symbols_of(self, codes: np.ndarray) -> np.ndarray:
        return self._presence.select1_batch(codes + 1) - 1

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
        for lvl in range(self.width):
            bv = self._levels[lvl]
            r = bv.rank1_batch(np.concatenate([s, e, s + idx, s + idx + 1]))
            r1s, r1e, r1i, r1j = r[:q], r[q:2 * q], r[2 * q:3 * q], r[3 * q:]
            z = (e - s) - (r1e - r1s)      # zeros inside the node
            bit = r1j - r1i
            zeros_before = idx - (r1i - r1s)
            code = (code << 1) | bit
            idx = np.where(bit == 0, zeros_before, idx - zeros_before)
            s, e = np.where(bit == 0, s, s + z), np.where(bit == 0, s + z, e)
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
        return self._select_codes(codes, ks, present, cs)

    def _rank_codes(self, codes: np.ndarray, prefix: np.ndarray) -> np.ndarray:
        # node intervals depend on the code alone: walk them once per
        # distinct code, and only the prefix ends once per lane
        uc, inv = np.unique(codes, return_inverse=True)
        u = uc.size
        s = np.zeros(u, dtype=np.int64)
        e = np.full(u, self.length, dtype=np.int64)
        p = prefix.astype(np.int64, copy=True)
        for lvl in range(self.width):
            bv = self._levels[lvl]
            r = bv.rank1_batch(np.concatenate([s, e, s[inv] + p]))
            r1s, r1e, r1p = r[:u], r[u:2 * u], r[2 * u:]
            z = (e - s) - (r1e - r1s)
            zeros_in_prefix = p - (r1p - r1s[inv])
            bit = (uc >> (self.width - 1 - lvl)) & 1
            p = np.where(bit[inv] == 0, zeros_in_prefix, p - zeros_in_prefix)
            s, e = np.where(bit == 0, s, s + z), np.where(bit == 0, s + z, e)
        return p

    def _select_codes(self, codes: np.ndarray, ks: np.ndarray, present: np.ndarray,
                      cs: np.ndarray) -> np.ndarray:
        # the descent depends on the code alone: walk it once per distinct
        # code; the leaf interval's length is the symbol's occurrence count
        uc, inv = np.unique(codes, return_inverse=True)
        u = uc.size
        s = np.zeros(u, dtype=np.int64)
        e = np.full(u, self.length, dtype=np.int64)
        s_stack = np.zeros((self.width, u), dtype=np.int64)
        r1_stack = np.zeros((self.width, u), dtype=np.int64)
        for lvl in range(self.width):
            bv = self._levels[lvl]
            r = bv.rank1_batch(np.concatenate([s, e]))
            r1s, r1e = r[:u], r[u:]
            z = (e - s) - (r1e - r1s)
            s_stack[lvl] = s
            r1_stack[lvl] = r1s
            bit = (uc >> (self.width - 1 - lvl)) & 1
            s, e = np.where(bit == 0, s, s + z), np.where(bit == 0, s + z, e)
        occ = np.where(present, (e - s)[inv], 0)
        bad = (ks < 1) | (ks > occ)
        if bad.any():
            k = int(np.argmax(bad))
            raise OutOfRangeError(f"symbol {int(cs[k])} has only {int(occ[k])} occurrences")
        p = ks.astype(np.int64, copy=True)  # 1-based inside the leaf
        for lvl in range(self.width - 1, -1, -1):
            bv = self._levels[lvl]
            s_l, r1s = s_stack[lvl][inv], r1_stack[lvl][inv]
            bit = (codes >> (self.width - 1 - lvl)) & 1
            g = np.empty(codes.size, dtype=np.int64)
            m1 = bit == 1
            if m1.any():
                g[m1] = bv.select1_batch(r1s[m1] + p[m1])
            m0 = ~m1
            if m0.any():
                r0s = s_l[m0] - r1s[m0]
                g[m0] = bv.select0_batch(r0s + p[m0])
            p = g - s_l
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
