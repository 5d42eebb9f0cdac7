"""Huffman-shaped wavelet matrix over an integer alphabet.

Codes.  Every present symbol gets a Huffman code over the occurrence counts
(Mäkinen & Navarro, CPM 2005), computed over runs of equal counts (Moffat
& Turpin, IEEE Trans. IT 1998).  The code tree is kept only as K_d, its
number of internal nodes at depth d.  The nodes of depth d + 1 are the
bit-0 children of depth d's internal nodes, then their bit-1 children, so
internal node i's child by bit b is node ``b * K_d + i``; the first K_{d+1}
of them are internal and the rest are the leaves of the symbols whose code
has d + 1 bits, in symbol order.  A lone symbol's leaf is the root (an
empty code).  Every walk takes a leaf as (depth, node) and derives its
path by arithmetic on them: no code word is stored.

Levels.  Level d holds bit d of the code of every element whose code is
longer than d, in wavelet matrix order (Claude, Navarro & Ordóñez,
Information Systems 2015): level 0 in string order, and level d + 1 is
level d stably partitioned, zeros first.  The partition orders the
elements by their node at depth d + 1, so those whose code ends there (at
leaves, which come last) form its tail, and level d + 1 is the rest.  With
z_d the zeros of level d, a position p of level d moves to

    p' = z_d + rank1(p)   if its bit is 1,   p' = rank0(p)   otherwise,

one rank per level; the occurrences of a symbol keep their order down to
its leaf interval.

Map.  A symbol's leaf comes from a second, small matrix of the same class
over ``key[s]`` = 1 + the code length of s, or 0 when s is absent, so that
a lone symbol is told from an absent one: s sits at depth key[s] - 1 as
leaf number rank(key[s], s), and leaf i of depth d is the symbol
select(d + 1, i + 1).  The map's alphabet is small (a code has fewer than
64 bits), and it keeps the keys of its own symbols in a byte table.  K_d
follows from the key counts (Kraft equality), so the levels, the map's
levels and that table are all that is stored.

The class keeps the name ``WaveletTree``: the names of the string index's
public methods are what callers and the benchmark's tracer key on.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .bits import U64, _distinct, one_lane
from .bitvector import BitVector
from .errors import OutOfRangeError


def _code_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code length of every symbol, -1 where its count is 0.

    Van Leeuwen's two queues (leaves ascending, merged nodes in creation
    order) over runs of equal weight: pairing a run with itself takes one
    step however long it is, so the loops run over runs and merge steps,
    never over symbols.  Each merge step makes one run of nodes and records
    the runs it consumed; a run's depths are then a histogram handed down
    from the runs that consumed it, newest first.  Within a run of equal
    counts, lower symbols get the shorter codes.
    """
    depth = np.full(counts.size, -1, dtype=np.int64)
    live = np.flatnonzero(counts)
    if live.size <= 1:
        depth[live] = 0
        return depth
    order = live[np.argsort(counts[live], kind="stable")]
    weights, sizes = np.unique(counts[order], return_counts=True)
    leaves = deque([w, c, i] for i, (w, c) in enumerate(zip(weights.tolist(), sizes.tolist())))
    nodes: deque = deque()
    consumed: list[list[tuple[int, int]]] = [[] for _ in range(len(leaves))]

    def lighter() -> deque:
        return leaves if not nodes or (leaves and leaves[0][0] <= nodes[0][0]) else nodes

    def take(q: deque, k: int) -> tuple[int, int]:
        w, _, run = q[0]
        q[0][1] -= k
        if not q[0][1]:
            q.popleft()
        return w, run

    items = live.size
    while items > 1:
        q = lighter()
        pairs = q[0][1] // 2
        if pairs:                                   # a run pairs with itself
            w, run = take(q, 2 * pairs)
            consumed.append([(run, 2)])
            nodes.append([2 * w, pairs, len(consumed) - 1])
            items -= pairs
        else:                                       # a lone item meets the next lightest
            w, run = take(q, 1)
            w2, run2 = take(lighter(), 1)
            consumed.append([(run, 1), (run2, 1)])
            nodes.append([w + w2, 1, len(consumed) - 1])
            items -= 1
    hist: list[dict[int, int]] = [{} for _ in consumed]
    hist[-1] = {0: 1}
    for run in range(len(consumed) - 1, len(leaves) - 1, -1):
        for child, mult in consumed[run]:
            h = hist[child]
            for d, k in hist[run].items():
                h[d + 1] = h.get(d + 1, 0) + mult * k
    ds = [d for run in range(weights.size) for d in sorted(hist[run])]
    ks = [hist[run][d] for run in range(weights.size) for d in sorted(hist[run])]
    depth[order] = np.repeat(np.array(ds, dtype=np.int64), ks)
    return depth


def _shape(key_counts: np.ndarray) -> np.ndarray:
    """K_d for d in 0..L (K_L = 0) from the number of symbols of each key
    (key 1 + d: code length d); ``ValueError`` where the lengths break
    Kraft equality.  No present symbol gives K = [0] and no level."""
    nd = np.asarray(key_counts, dtype=np.int64)[1:]
    if not nd.any():
        return np.zeros(1, dtype=np.int64)
    nd = nd[:np.flatnonzero(nd)[-1] + 1]
    K = np.zeros(nd.size, dtype=np.int64)
    for d in range(nd.size - 2, -1, -1):
        below = K[d + 1] + nd[d + 1]
        if below % 2:
            raise ValueError("code lengths break Kraft equality")
        K[d] = below // 2
    if K[0] + nd[0] != 1:
        raise ValueError("code lengths break Kraft equality")
    return K


def _leaf_nodes(key: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Node of every symbol's leaf at its depth key - 1: the leaves of a
    depth follow its K_d internal nodes in symbol order (absent: 0)."""
    key = key.astype(np.uint8)                  # a radix sort, below
    order = np.argsort(key, kind="stable")
    rank = np.empty(key.size, dtype=np.int64)
    rank[order] = np.arange(key.size)
    first = np.cumsum(np.bincount(key)) - np.bincount(key)
    key = key.astype(np.int64)
    return np.where(key > 0, K[np.maximum(key - 1, 0)] + rank - first[key], 0)


def _path(K: np.ndarray, depth: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Row d: the bit that level d reads on each lane's way to ``node`` at
    ``depth`` (False from the lane's depth on), climbing by
    ``b = node >= K_d``, ``node -= b * K_d``."""
    bits = np.zeros((K.size - 1, depth.size), dtype=bool)
    node = node.copy()
    for d in range(K.size - 2, -1, -1):
        b = (depth > d) & (node >= K[d])
        bits[d] = b
        node -= b * K[d]
    return bits


class WaveletTree:
    def __init__(self, values=None, sigma: int = 1):
        vals = np.asarray(values if values is not None else [], dtype=np.int64)
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        if vals.size and (vals.min() < 0 or vals.max() >= sigma):
            raise OutOfRangeError(f"symbols must lie in 0..{sigma - 1}")
        self._build(vals, sigma, small=False)

    def _build(self, vals: np.ndarray, sigma: int, small: bool) -> None:
        """Code, map and levels of ``vals``; a ``small`` matrix (the map)
        keeps its keys in a byte table instead of a map of its own."""
        counts = np.bincount(vals, minlength=sigma)
        depth = _code_lengths(counts)
        key = depth + 1
        if small:
            lookup = key.astype(np.uint8)
        else:
            lookup = WaveletTree.__new__(WaveletTree)
            lookup._build(key, int(key.max()) + 1, small=True)
        K = _shape(np.bincount(key))
        width = K.size - 1
        # codes left-aligned in the narrowest word that holds them: the
        # level loop moves every element once per level
        dt = np.uint32 if width <= 32 else U64
        top = 8 * np.dtype(dt).itemsize - 1
        live = depth >= 0
        bits = _path(K, depth[live], _leaf_nodes(key, K)[live])
        code = np.zeros(live.sum(), dtype=dt)
        for d in range(width):
            code |= bits[d].astype(dt) << dt(top - d)
        seq = np.zeros(sigma, dtype=dt)
        seq[live] = code
        seq = seq[vals]
        per_depth = np.bincount(depth[live], weights=counts[live], minlength=width + 2)
        longer = per_depth[::-1].cumsum()[::-1].astype(np.int64)    # elements of depth >= d
        levels = []
        for d in range(width):
            bit = (seq & dt(1 << (top - d))) != 0
            levels.append(BitVector(bit))
            part = np.empty_like(seq)
            zeros = seq.size - np.count_nonzero(bit)
            np.compress(~bit, seq, out=part[:zeros])
            np.compress(bit, seq, out=part[zeros:])
            seq = part[:longer[d + 2]]
        self._install(sigma, vals.size, levels, lookup)

    def _install(self, sigma: int, length: int, levels: list[BitVector], lookup) -> None:
        """Keep the parts; K_d and sigma_eff follow from the key counts of
        ``lookup``, the map (a matrix) or a map's key table."""
        self.sigma = int(sigma)
        self.length = int(length)
        self._levels = levels
        self._zeros = [lvl.n - lvl.ones for lvl in levels]
        self.width = len(levels)
        small = isinstance(lookup, np.ndarray)
        self._table, self._map = (lookup, None) if small else (None, lookup)
        keys = np.bincount(lookup) if small else lookup._counts()
        self._K = _shape(keys)
        self.sigma_eff = int(keys[1:].sum())

    @classmethod
    def from_levels(cls, sigma: int, length: int, levels: list[BitVector],
                    lookup) -> "WaveletTree":
        """Reassemble from loaded parts, raising ``ValueError`` when they are
        no matrix of a string over ``sigma`` symbols: ``lookup`` is the map
        (a matrix over ``sigma`` keys) or, for a map itself, its key table."""
        if (lookup.size if isinstance(lookup, np.ndarray) else lookup.length) != sigma:
            raise ValueError("code-length map does not span the alphabet")
        self = cls.__new__(cls)
        self._install(sigma, length, levels, lookup)
        if self.width != self._K.size - 1:
            raise ValueError("level count does not match the code lengths")
        sizes = self._leaf_sizes()
        if self.sigma_eff == 0 and self.length:
            raise ValueError("a non-empty string has no present symbol")
        if sizes.size and sizes.min() == 0:
            raise ValueError("a symbol with a code never occurs")
        return self

    # -- code shape ---------------------------------------------------------

    def _leaf_sizes(self) -> np.ndarray:
        """Occurrences at every leaf, by depth, then node, from one pass
        over the node boundaries of each depth (K_d + 1 rank lanes at level
        d); ``ValueError`` where a level's length disagrees with the shape."""
        K, sizes = self._K, []
        if K[0] == 0:                       # the root is a leaf, or nothing is present
            return np.array([self.length] if self.sigma_eff else [], dtype=np.int64)
        bounds = np.array([0, self.length], dtype=np.int64)
        for d, (bv, z) in enumerate(zip(self._levels, self._zeros)):
            if bv.n != bounds[-1]:
                raise ValueError("level length does not match the code shape")
            r = bv._rank1(bounds)
            below = np.concatenate((bounds - r, z + r[1:]))       # 2 K_d nodes at depth d + 1
            sizes.append(np.diff(below[K[d + 1]:]))
            bounds = below[:K[d + 1] + 1]
        return np.concatenate(sizes)

    def _counts(self) -> np.ndarray:
        """Occurrences of every symbol 0..sigma-1: the size of its leaf.
        Leaves are numbered by depth, then node; depth 0 has 1 - K_0 of
        them and depth d > 0 has 2 K_{d-1} - K_d."""
        K = self._K
        depth, node, present = self._leaf_of(np.arange(self.sigma))
        per_depth = np.concatenate(([1], 2 * K[:-1])) - K
        first = per_depth.cumsum() - per_depth - K          # leaf number of node 0, by depth
        out = np.zeros(self.sigma, dtype=np.int64)
        out[present] = self._leaf_sizes()[first[depth[present]] + node[present]]
        return out

    # -- symbols and leaves ---------------------------------------------------

    def _leaf_of(self, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(depth, node, present?) of every symbol's leaf; an absent symbol
        gets depth -1, and its answers are discarded by callers."""
        if cs.size and (cs.min() < 0 or cs.max() >= self.sigma):
            raise OutOfRangeError(f"symbol must lie in 0..{self.sigma - 1}")
        if self._map is None:
            key = self._table.astype(np.int64)
            node = _leaf_nodes(key, self._K)[cs]
            key = key[cs]
        else:
            # lanes often repeat a symbol: look each distinct one up once,
            # as its key and the occurrences of that key before it
            u, inv = _distinct(cs)
            depth, node, pos = self._map._down(u)
            start, _ = self._map._leaves(depth, node)
            key = self._map._symbol_at(depth, node)[inv]
            node = self._K[np.maximum(key - 1, 0)] + (pos - start)[inv]
        return key - 1, node, key > 0

    def _symbol_at(self, depth: np.ndarray, node: np.ndarray) -> np.ndarray:
        """The symbol whose leaf is ``node`` at ``depth``."""
        leaf = node - self._K[depth]
        if self._map is None:
            order = np.argsort(self._table, kind="stable")
            return order[np.searchsorted(self._table[order], depth + 1) + leaf]
        # lanes often share a leaf: select each distinct one once
        u, inv = _distinct(leaf * 128 + depth + 1)
        return (self._map.select_batch(u % 128, u // 128 + 1) - 1)[inv]

    def _down(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Walk 0-based level-0 positions down to their leaves: (depth,
        node, position in the leaf's depth).  A lane leaves the walk once
        its node is a leaf, so each level sees only the lanes still on it."""
        K = self._K
        depth = np.zeros(p.size, dtype=np.int64)
        node = np.zeros(p.size, dtype=np.int64)
        pos = p.copy()
        lane, i, q = np.arange(p.size), node.copy(), p.copy()
        for d, (bv, z) in enumerate(zip(self._levels, self._zeros)):
            if not lane.size:
                break
            r, bit = bv._rank_bit(q)
            i = np.where(bit, K[d] + i, i)
            q = np.where(bit, z + r, q - r)
            end = i >= K[d + 1]
            if end.any():
                at = lane[end]
                depth[at], node[at], pos[at] = d + 1, i[end], q[end]
                keep = ~end
                lane, i, q = lane[keep], i[keep], q[keep]
        return depth, node, pos

    def _descend(self, depth: np.ndarray, node: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Follow level-0 positions ``p`` (0-based, 0..length; one row per
        walk, one column per lane) down to each lane's leaf ``node`` at
        ``depth``; one rank per position and level the lane passes."""
        bits = _path(self._K, depth, node)
        p = p.copy()
        for d, (bv, z) in enumerate(zip(self._levels, self._zeros)):
            on = depth > d
            if not on.any():
                break
            q = p[:, on]
            r = bv._rank1(q.ravel()).reshape(q.shape)
            p[:, on] = np.where(bits[d, on], z + r, q - r)
        return p

    def _ascend(self, depth: np.ndarray, node: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Inverse of ``_descend``: the level-0 position of each 0-based
        position ``p`` in its lane's leaf, one select per level, climbing
        from the leaf by ``b = node >= K_d``, ``node -= b * K_d``."""
        K, p, node = self._K, p.copy(), node.copy()
        for d in range(self.width - 1, -1, -1):
            bv, z = self._levels[d], self._zeros[d]
            one = (depth > d) & (node >= K[d])
            zero = (depth > d) & ~one
            node -= one * K[d]
            if one.any():
                p[one] = bv._select(p[one] - z + 1, 1)
            if zero.any():
                p[zero] = bv._select(p[zero] + 1, 0)
        return p

    def _leaves(self, depth: np.ndarray, node: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interval [s, e) of each lane's leaf at its depth, walked once per
        distinct leaf."""
        leaf, inv = _distinct(node * 128 + depth + 1)
        ends = np.array([[0], [self.length]]).repeat(leaf.size, axis=1)
        s, e = self._descend(leaf % 128 - 1, leaf // 128, ends)
        return s[inv], e[inv]

    # -- batch queries (1-based, like the scalar API) ---------------------------

    def access_batch(self, i) -> np.ndarray:
        pos = np.asarray(i, dtype=np.int64)
        if pos.size == 0:
            return pos.copy()
        if pos.min() < 1 or pos.max() > self.length:
            raise OutOfRangeError(f"position must lie in 1..{self.length}")
        depth, node, _ = self._down(pos - 1)
        return self._symbol_at(depth, node)

    def rank_batch(self, c, i) -> np.ndarray:
        cs, prefix = np.broadcast_arrays(np.asarray(c, dtype=np.int64),
                                         np.asarray(i, dtype=np.int64))
        if prefix.size == 0:
            return prefix.copy()
        if prefix.min() < 0 or prefix.max() > self.length:
            raise OutOfRangeError(f"prefix length must lie in 0..{self.length}")
        depth, node, present = self._leaf_of(cs)
        # the prefix's occurrences are the first ones of the leaf: walk the
        # string's start and the prefix's end down the same path
        s, e = self._descend(depth, node, np.stack((np.zeros_like(prefix), prefix)))
        out = e - s
        out[~present] = 0
        return out

    def select_batch(self, c, k) -> np.ndarray:
        cs, ks = np.broadcast_arrays(np.asarray(c, dtype=np.int64), np.asarray(k, dtype=np.int64))
        if ks.size == 0:
            return ks.copy()
        depth, node, present = self._leaf_of(cs)
        s, e = self._leaves(depth, node)
        occ = np.where(present, e - s, 0)
        bad = (ks < 1) | (ks > occ)
        if bad.any():
            k = int(np.argmax(bad))
            raise OutOfRangeError(f"symbol {int(cs[k])} has only {int(occ[k])} occurrences")
        return self._ascend(depth, node, s + ks - 1) + 1

    def positions(self, c: int) -> np.ndarray:
        """1-based positions of every occurrence of symbol ``c``, ascending:
        one descent to the symbol's leaf, whose length is its occurrence
        count, and one ascent of all its occurrences."""
        depth, node, present = self._leaf_of(*one_lane(c))
        if not present[0]:
            return np.zeros(0, dtype=np.int64)
        s, e = self._leaves(depth, node)
        leaf = np.arange(s[0], e[0], dtype=np.int64)
        return self._ascend(np.repeat(depth, leaf.size), np.repeat(node, leaf.size), leaf) + 1

    # -- scalar wrappers ----------------------------------------------------

    def access(self, i: int) -> int:
        return int(self.access_batch(*one_lane(i))[0])

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
        counts = self._counts()
        syms = np.flatnonzero(counts)
        return dict(zip(syms.tolist(), counts[syms].tolist()))

    def to_array(self) -> np.ndarray:
        return self.access_batch(np.arange(1, self.length + 1))

    # -- accounting ------------------------------------------------------------

    def space_report(self) -> dict:
        """Resident bits: the level bits as payload, the levels' samples and
        padding plus K as directory, and the whole symbol map (or a map's
        key table) as presence."""
        payload = sum(lvl.n for lvl in self._levels)
        resident = sum(lvl.space_report()["total_bits"] for lvl in self._levels) + 8 * self._K.nbytes
        lookup = (8 * self._table.nbytes if self._map is None
                  else self._map.space_report()["total_bits"])
        return {
            "length": self.length,
            "sigma": self.sigma,
            "sigma_eff": self.sigma_eff,
            "width": self.width,
            "payload_bits": payload,
            "directory_bits": resident - payload,
            "presence_bits": lookup,
            "total_bits": resident + lookup,
        }

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (f"WaveletTree(length={self.length}, sigma={self.sigma}, "
                f"sigma_eff={self.sigma_eff}, width={self.width})")
