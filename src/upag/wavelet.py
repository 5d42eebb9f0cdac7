"""Wavelet matrix over an integer alphabet, stored as one bitvector per level.

Level l holds the l-th most significant code bit of the sequence as it
stands at that level; the sequence of level l + 1 is level l's sequence
stably partitioned into the codes whose bit was 0, then those whose bit
was 1 (Claude, Navarro & Ordóñez, Information Systems 2015).  With z_l
the zeros of level l, a position p of level l moves to

    p' = z_l + rank1(p)   if its bit is 1,   p' = rank0(p)   otherwise,

so navigation is one rank per level.  The codes sharing an l-bit prefix
occupy one interval at level l, and the occurrences of one code keep
their order down to its leaf interval.  Each z_l is read off its level on
load; nothing but the level bits is stored.

The class keeps the name ``WaveletTree``, the wavelet matrix being a
layout of the same wavelet tree: the names of the string index's public
methods are what callers and the benchmark's tracer key on.

Symbols are first mapped through a presence bitvector to dense codes
0..sigma_eff-1 (ordered by symbol), which keeps the level count at
ceil(lg sigma_eff) no matter how sparse the alphabet actually is.
"""

from __future__ import annotations

import numpy as np

from .bits import one_lane
from .bitvector import BitVector, _distinct
from .errors import OutOfRangeError


def _width(sigma_eff: int) -> int:
    """Levels that codes 0..sigma_eff-1 need."""
    return max(sigma_eff - 1, 0).bit_length()


class WaveletTree:
    def __init__(self, values=None, sigma: int = 1):
        vals = np.asarray(values if values is not None else [], dtype=np.int64)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        if vals.size and (vals.min() < 0 or vals.max() >= sigma):
            raise OutOfRangeError(f"symbols must lie in 0..{sigma - 1}")
        present = np.zeros(sigma, dtype=np.uint8)
        present[vals] = 1
        presence = BitVector(present, mode="rrr")
        codes = (presence.rank1_batch(vals + 1) - 1) if vals.size else vals
        levels = []
        for shift in range(_width(presence.ones) - 1, -1, -1):
            bit = (codes >> shift) & 1
            levels.append(BitVector(bit, mode="rrr"))
            if shift:
                codes = np.concatenate((codes[bit == 0], codes[bit == 1]))
        self._install(vals.size, presence, levels)

    def _install(self, length: int, presence: BitVector, levels: list[BitVector]) -> None:
        self.sigma = presence.n
        self.length = int(length)
        self._presence = presence
        self.sigma_eff = int(presence.ones)
        self.width = _width(self.sigma_eff)
        self._levels = levels
        self._zeros = [self.length - lvl.ones for lvl in levels]

    @classmethod
    def from_levels(cls, sigma: int, length: int, presence: BitVector,
                    levels: list[BitVector]) -> "WaveletTree":
        """Reassemble from loaded bitvectors, raising ``ValueError`` when
        they are no wavelet matrix of a string over ``sigma`` symbols."""
        if presence.n != sigma:
            raise ValueError("presence bitvector does not span the alphabet")
        self = cls.__new__(cls)
        self._install(length, presence, levels)
        if len(levels) != self.width:
            raise ValueError("level count does not match the effective alphabet")
        if any(lvl.n != self.length for lvl in levels):
            raise ValueError("level length does not match the sequence")
        if self._codes_beyond():
            raise ValueError("the string stores codes beyond the effective alphabet")
        return self

    def _codes_beyond(self) -> int:
        """Positions whose code is >= sigma_eff, from one descent of the
        interval of sigma_eff's prefix: where its bit is 0, the interval's
        ones hold larger codes; the leaf holds sigma_eff itself."""
        if self.sigma_eff >> self.width:
            return 0                   # every width-bit code is below sigma_eff
        se, beyond = np.array([0, self.length], dtype=np.int64), 0
        for lvl, (bv, z) in enumerate(zip(self._levels, self._zeros)):
            r = bv._rank1(se)
            if self.sigma_eff >> (self.width - 1 - lvl) & 1:
                se = z + r
            else:
                beyond += int(r[1] - r[0])
                se = se - r
        return beyond + int(se[1] - se[0])

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

    def _bit(self, codes: np.ndarray, lvl: int) -> np.ndarray:
        """The code bit that level ``lvl`` reads, per lane."""
        return (codes >> (self.width - 1 - lvl) & 1).astype(bool)

    def _descend(self, codes: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Follow each level-0 position ``p`` (0-based, 0..length) down the
        levels along the bits of its lane's code; one rank lane per level."""
        for lvl, (bv, z) in enumerate(zip(self._levels, self._zeros)):
            r = bv._rank1(p)
            p = np.where(self._bit(codes, lvl), z + r, p - r)
        return p

    def _ascend(self, codes: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Inverse of ``_descend``: the level-0 position of each leaf
        position ``p`` (0-based) of its lane's code, one select per level."""
        for lvl in range(self.width - 1, -1, -1):
            bv, z, one = self._levels[lvl], self._zeros[lvl], self._bit(codes, lvl)
            up = np.empty_like(p)
            if one.any():
                up[one] = bv._select(p[one] - z + 1, 1)
            if not one.all():
                up[~one] = bv._select(p[~one] + 1, 0)
            p = up
        return p

    def _leaves(self, uc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Leaf interval [s, e) of every code in ``uc``."""
        u = uc.size
        ends = np.concatenate((np.zeros(u, dtype=np.int64), np.full(u, self.length)))
        se = self._descend(np.concatenate((uc, uc)), ends)
        return se[:u], se[u:]

    # -- batch queries (1-based, like the scalar API) ---------------------------

    def access_batch(self, i) -> np.ndarray:
        pos = np.asarray(i, dtype=np.int64)
        if pos.size == 0:
            return pos.copy()
        if pos.min() < 1 or pos.max() > self.length:
            raise OutOfRangeError(f"position must lie in 1..{self.length}")
        p = pos - 1
        code = np.zeros(pos.size, dtype=np.int64)
        for bv, z in zip(self._levels, self._zeros):
            r, bit = bv._rank_bit(p)
            code = (code << 1) | bit
            p = np.where(bit, z + r, p - r)
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
        # a code's leaf start depends on the code alone: walk it once per
        # distinct code, and only the prefix ends once per lane; the prefix's
        # occurrences are the first ones of the leaf
        uc, inv = _distinct(codes)
        u = uc.size
        leaf = self._descend(np.concatenate((uc, codes)),
                             np.concatenate((np.zeros(u, dtype=np.int64), prefix)))
        out = leaf[u:] - leaf[:u][inv]
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
        s, e = self._leaves(uc)
        occ = np.where(present, (e - s)[inv], 0)
        bad = (ks < 1) | (ks > occ)
        if bad.any():
            k = int(np.argmax(bad))
            raise OutOfRangeError(f"symbol {int(cs[k])} has only {int(occ[k])} occurrences")
        return self._ascend(codes, s[inv] + ks - 1) + 1

    def positions(self, c: int) -> np.ndarray:
        """1-based positions of every occurrence of symbol ``c``, ascending:
        one descent to the symbol's leaf, whose length is its occurrence
        count, and one ascent of all its occurrences."""
        codes, present = self._codes_of(*one_lane(c))
        if not present[0]:
            return np.zeros(0, dtype=np.int64)
        s, e = self._leaves(codes)
        leaf = np.arange(s[0], e[0], dtype=np.int64)
        return self._ascend(np.repeat(codes, leaf.size), leaf) + 1

    # -- scalar wrappers ----------------------------------------------------

    def access(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise OutOfRangeError(f"position must lie in 1..{self.length}")
        return int(self.access_batch(np.array([i]))[0])

    def rank(self, c: int, i: int) -> int:
        """Occurrences of symbol c among the first i positions (i in 0..length)."""
        return int(self.rank_batch(*one_lane(c, i))[0])

    def select(self, c: int, k: int) -> int:
        """Position of the k-th occurrence of symbol c (1-based)."""
        return int(self.select_batch(*one_lane(c, k))[0])

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
