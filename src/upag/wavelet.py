"""Huffman-shaped wavelet matrix over an integer alphabet.

Codes.  Every present symbol gets a Huffman code over the occurrence counts
(Mäkinen & Navarro, CPM 2005), computed over runs of equal counts (Moffat
& Turpin, IEEE Trans. IT 1998).  The code tree is kept only as K_d, its
number of internal nodes at depth d.  The nodes of depth d + 1 are the
bit-0 children of depth d's internal nodes, then their bit-1 children, so
internal node i's child by bit b is node ``b * K_d + i``; the first K_{d+1}
of them are internal and the rest are the leaves of the symbols whose code
has d + 1 bits, in symbol order.  A lone symbol's leaf is the root (an
empty code).  A walk down takes a leaf as (depth, node) and derives its
path by arithmetic on them, and a walk up needs only the depth: no code
word is stored.

Levels.  Level d holds bit d of the code of every element whose code is
longer than d, in wavelet matrix order (Claude, Navarro & Ordóñez,
Information Systems 2015): level 0 in string order, and level d + 1 is
level d stably partitioned, zeros first.  The partition orders the
elements by their node at depth d + 1, so those whose code ends there (at
leaves, which come last) form its tail, and level d + 1 is the rest.  With
z_d the zeros of level d, a position p of level d moves to

    p' = z_d + rank1(p)   if its bit is 1,   p' = rank0(p)   otherwise,

one rank per level; the occurrences of a symbol keep their order down to
its leaf interval.  That rule and its inverse are written once, as
``_fall`` and ``_rise``: every walk over the levels steps through them,
and no other walk reads z_d.  A code has at most 64 bits (``_build`` packs
it into one word, and a Huffman code over fewer than 2^32 elements is
shorter still), so a matrix has at most 64 levels; loading more raises
``ValueError``.

Map.  A symbol's leaf comes from a second, small matrix of the same class
over ``key[s]`` = 1 + the code length of s, or 0 when s is absent, so that
a lone symbol is told from an absent one: s sits at depth key[s] - 1 as
leaf number rank(key[s], s), and leaf i of depth d is the symbol
select(d + 1, i + 1).  The map's alphabet is small (a code has at most
64 bits), and it keeps the keys of its own symbols in a byte table.  K_d
follows from the key counts (Kraft equality), so the levels, the map's
levels and that table are all that is stored.

Leaf numbers.  Both matrices keep the leaf number of each depth's node 0
(``_first``, one entry per depth, in the narrowest integer type that holds
it), so that leaf ``node`` at depth d is leaf ``first[d] + node``.  A
descent (``_down``) names the leaf it reaches by that number alone; only
access turns it back into (depth, node) (``_leaf_at``), once per distinct
leaf, to climb the map.

The map's leaf tables.  Beside its key table the map keeps, from one pass
over its leaf boundaries at install, a few arrays of about one entry per
key (21 keys, 13 of them present, at n = 2^18): the [start, end) of every
leaf, the leaf node of every key and the key at every leaf, each in the
narrowest integer type that holds it (150 bytes with ``_first`` at n =
2^18).  So finding a symbol's leaf is one walk down the map, and a leaf's
symbol one climb up it from the leaf of its key.  The string keeps no such
table: at about sigma_eff x 16 bytes it would cost several bits per edge.
Only the descents read path rows (``_path``), derived once per query:
rank's for its range ends, select's and ``positions``' for their leaves'
bounds.  An ascent needs none (``_rise`` tells a 1 from a 0 by position),
so access, whose climb up the map is an ascent, derives none.

Whole batches.  A descent of at least length / ``_INDEX_SHARE`` lanes
reads a transient leaf index instead of walking each lane: the level-0
position of every element in leaf-number order, ascending within each
leaf, built by replaying the partition on positions (per level, the
positions of its zeros, then of its ones, and one gather; each partitioned
level's tail is its depth's leaves in node order).  The descent reads each
position's place in it off its inverse, and the leaf there off every
leaf's offsets.  An ascent always climbs, one ``_rise`` per level: at
whole-batch sizes its selects take ``BitVector._select``'s whole-vector
route, and reading the index instead did not pay end to end.  The bounds
of at least sigma_eff / ``_BOUNDS_SHARE`` leaves are gathered from every
leaf's (``_leaf_bounds``: K_d + 1 ranks per level) instead of walking two
ends per leaf; select counts its distinct symbols there, ``occ_batch`` its
lanes.  Range counts, and with them rank and adjacency, stay walked:
searching leaf-keyed positions was slower.  Every threshold is a measured
crossover; scalar calls and the batches of a few thousand lanes that
walkers send at n = 2^18 walk.  The index is not kept: the file bytes and
``space_report()`` are those of the levels, K and the leaf tables above.

Repeated lanes.  Only select (its symbols) and access (its leaves) remove
repeats, by one sort (``_distinct``), because there each distinct value
costs a walk of the map.  Every other batch works on every lane: its
per-lane work costs less than the sort.

The class keeps the name ``WaveletTree``: the names of the string index's
public methods are what callers and the benchmark's tracer key on.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .bits import U64
from .bitvector import BitVector
from .errors import OutOfRangeError, checked

_I64 = np.iinfo(np.int64)
_I32 = np.iinfo(np.int32)
_INDEX_SHARE = 6      # descents of length / 6 lanes or more read the leaf index (measured)
_BOUNDS_SHARE = 48    # bounds of sigma_eff / 48 leaves or more are gathered (measured)


def _distinct(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values of ``a``, and the index of each lane's value,
    from one sort (an input of at most one lane is its own answer: scalar
    queries pass one lane).  Used only where each distinct value costs a
    walk of the map: select's symbols and access's leaves."""
    if a.size <= 1:
        return a, np.zeros(a.size, dtype=np.intp)
    order = a.argsort()
    s = a[order]
    head = np.empty(s.size, dtype=bool)
    head[:1] = True
    np.not_equal(s[1:], s[:-1], out=head[1:])
    inv = np.empty(s.size, dtype=np.intp)
    inv[order] = head.cumsum() - 1
    return s[head], inv


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


def _first_leaves(K: np.ndarray) -> np.ndarray:
    """Leaf number of node 0 at every depth, so that leaf ``node`` at depth
    d is leaf ``first[d] + node``: leaves are numbered by depth, then node,
    and depth 0 has 1 - K_0 of them and depth d > 0 has 2 K_{d-1} - K_d."""
    per_depth = np.concatenate(([1], 2 * K[:-1])) - K
    return per_depth.cumsum() - per_depth - K


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` in the narrowest of int8 .. int64 that holds every entry: the
    map's leaf tables are resident, and their entries are small."""
    for t in (np.int8, np.int16, np.int32):
        if not a.size or (np.iinfo(t).min <= a.min() and a.max() <= np.iinfo(t).max):
            return a.astype(t)
    return a.astype(np.int64)


def _path(K: np.ndarray, depth: np.ndarray, node: np.ndarray) -> np.ndarray:
    """Row d: the bit that level d reads on each lane's way to ``node`` at
    ``depth`` (False from the lane's depth on), one row per level down to
    the deepest lane, climbing by ``b = node >= K_d``, ``node -= b * K_d``.
    Absent lanes (depth -1) read no level."""
    bits = np.zeros((depth.max(initial=0), depth.size), dtype=bool)
    node = node.copy()
    for d in range(bits.shape[0] - 1, -1, -1):
        b = (depth > d) & (node >= K[d])
        bits[d] = b
        node -= b * K[d]
    return bits


def _deepest_first(depth: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Lanes ordered by ``depth``, deepest first (a radix sort: depths, at
    most 64, fit a byte), and for each of the first ``levels`` levels d the
    number of lanes deeper than d, which lead that order."""
    key = -depth.astype(np.int8)
    order = np.argsort(key, kind="stable")
    return order, key[order].searchsorted(-np.arange(levels, dtype=np.int8))


def _fall(bv: BitVector, p: np.ndarray, bit=None) -> tuple[np.ndarray, np.ndarray]:
    """One step down from level ``bv``: the place on the next level of each
    0-based position ``p`` (0..n, any shape), z + rank1(p) where its bit is
    1 and rank0(p) where it is 0, z being the level's zeros; and the bit.
    A given ``bit`` broadcasts against ``p`` (one rank serves every bit);
    otherwise the bit is read by the rank's own fetch."""
    if bit is None:
        r, bit = bv._rank_bit(p.ravel())
        r, bit = r.reshape(p.shape), bit.reshape(p.shape)
    else:
        r = bv._rank1(p.ravel()).reshape(p.shape)
    return np.where(bit, bv.n - bv.ones + r, p - r), bit


def _rise(bv: BitVector, x: np.ndarray) -> np.ndarray:
    """One step up to level ``bv``, the inverse of ``_fall``.  A 0-based
    position x of the next level came from a 1 exactly when x >= z (the
    partition puts the zeros first), so it goes up to select1(x - z + 1)
    then and to select0(x + 1) otherwise.  ``x`` (1-D) is overwritten and
    returned: a climb steps a prefix of its lanes' array in place."""
    z = bv.n - bv.ones
    one = x >= z
    for b, lanes in ((1, one), (0, ~one)):
        if lanes.any():
            x[lanes] = bv._select(x[lanes] + (1 - b * z), b)
    return x


class WaveletTree:
    def __init__(self, values=None, sigma: int = 1):
        if sigma < 1:
            raise ValueError("sigma must be >= 1")
        vals = np.asarray(values if values is not None else [])
        if vals.ndim != 1:
            raise ValueError("values must be one-dimensional")
        vals = checked(vals, 0, sigma - 1, "symbol")
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
        for d, row in enumerate(bits):
            code |= row.astype(dt) << dt(top - d)
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
        ``lookup``, the map (a matrix) or a map's key table.  A map also
        keeps its leaf tables (see ``_leaf_of`` and ``_symbol_at``),
        each in the narrowest type that holds it, so readers add them only
        to int64 arrays or widen them first; both kinds keep each depth's
        first leaf number.  ``ValueError`` where the levels disagree with
        the code shape or are more than 64 (a code fits one word)."""
        if len(levels) > 64:
            raise ValueError(f"{len(levels)} levels: a code has at most 64 bits")
        self.sigma = int(sigma)
        self.length = int(length)
        self._levels = levels
        self.width = len(levels)
        small = isinstance(lookup, np.ndarray)
        self._table, self._map = (lookup, None) if small else (None, lookup)
        keys = np.bincount(lookup) if small else lookup._counts()
        self._K = _shape(keys)
        self.sigma_eff = int(keys[1:].sum())
        if self.width != self._K.size - 1:
            raise ValueError("level count does not match the code lengths")
        self._first = _narrow(_first_leaves(self._K))
        if small:
            self._bounds = _narrow(self._leaf_bounds())
            self._nodes = _narrow(_leaf_nodes(lookup, self._K))
            present = np.flatnonzero(lookup)
            self._order = _narrow(present[np.argsort(lookup[present], kind="stable")])

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
        start, end = self._all_bounds()
        if self.sigma_eff == 0 and self.length:
            raise ValueError("a non-empty string has no present symbol")
        if (start == end).any():
            raise ValueError("a symbol with a code never occurs")
        return self

    # -- code shape ---------------------------------------------------------

    def _leaf_bounds(self) -> np.ndarray:
        """[start, end) of every leaf (rows 0 and 1) in the positions of its
        depth, by depth, then node, from one pass over the node boundaries
        of each depth (K_d + 1 rank lanes at level d); ``ValueError`` where
        a level's length disagrees with the shape.  The children's bounds of
        every level go into one buffer, and each depth's leaves straight
        into the answer: a level allocates only its step's arrays."""
        K = self._K
        if K[0] == 0:                       # the root is a leaf, or nothing is present
            return np.array([[0], [self.length]] if self.sigma_eff else [[], []], dtype=np.int64)
        out = np.empty((2, self.sigma_eff), dtype=np.int64)       # a leaf per present symbol
        below = np.empty(2 * int(K.max()) + 1, dtype=np.int64)    # bounds of depth d + 1's 2 K_d nodes
        bounds, at = np.array([0, self.length], dtype=np.int64), 0
        sides = np.array([[False], [True]])                      # one rank for both children
        for d, bv in enumerate(self._levels):
            k = int(K[d])
            if bv.n != bounds[-1]:
                raise ValueError("level length does not match the code shape")
            zero, one = _fall(bv, bounds, sides)[0]               # read before ``below`` is refilled
            below[:k + 1], below[k + 1:2 * k + 1] = zero, one[1:]
            ends, leaves = below[K[d + 1]:2 * k + 1], 2 * k - int(K[d + 1])
            out[0, at:at + leaves], out[1, at:at + leaves] = ends[:-1], ends[1:]
            at += leaves
            bounds = below[:K[d + 1] + 1]
        return out

    def _all_bounds(self) -> np.ndarray:
        """Every leaf's [start, end): a map keeps them, a string walks them."""
        return self._bounds if self._map is None else self._leaf_bounds()

    def _leaf_number(self, depth: np.ndarray, node: np.ndarray) -> np.ndarray:
        """Number of leaf ``node`` at ``depth`` among all leaves, by depth,
        then node (``_first``, kept from ``_first_leaves``)."""
        return self._first[depth] + node

    def _leaf_at(self, leaf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(depth, node) of each leaf number: the inverse of ``_leaf_number``
        (a depth's leaves start at the leaf number of its node K_d)."""
        depth = (self._first + self._K).searchsorted(leaf, side="right") - 1
        return depth, leaf - self._first[depth]

    def _counts(self) -> np.ndarray:
        """Occurrences of every symbol 0..sigma-1: the size of its leaf."""
        return self.occ_batch(np.arange(self.sigma))

    # -- symbols and leaves ---------------------------------------------------

    def _leaf_of(self, cs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(depth, node, present?) of every lane's leaf; an absent symbol
        gets depth -1, and its answers are discarded by callers.  A map
        reads its key table; the string walks each lane down the map, whose
        leaf there is its key, and its place in that leaf is the
        occurrences of the key before it."""
        if self._map is None:
            key = self._table[cs].astype(np.int64)
            return key - 1, self._nodes[cs].astype(np.int64), key > 0
        m = self._map
        leaf, pos = m._down(cs)
        key = m._order[leaf].astype(np.int64)
        return key - 1, self._K[np.maximum(key - 1, 0)] + pos - m._bounds[0, leaf], key > 0

    def _symbol_at(self, leaf: np.ndarray) -> np.ndarray:
        """The symbol of each leaf number: a map reads it from its leaf
        order, the string climbs the map from the leaf of key depth + 1,
        at the leaf's rank among the leaves of its depth."""
        if self._map is None:
            return self._order[leaf].astype(np.int64)
        # lanes often share a leaf: climb the map once for each distinct one
        m = self._map
        leaf, inv = _distinct(leaf)
        depth, node = self._leaf_at(leaf)
        md, mn, _ = m._leaf_of(depth + 1)
        p = m._bounds[0, m._leaf_number(md, mn)] + node - self._K[depth]
        return m._ascend(md, p)[inv]

    def _down(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Walk 0-based level-0 positions down to their leaves: (leaf
        number, position in the leaf's depth).  A batch of at least
        1/``_INDEX_SHARE`` of the string reads each position's place in
        the leaf index (``_leaf_index``) off its inverse, and the leaf
        there and the place in it off every leaf's offsets; a smaller one
        walks, and a lane leaves the walk once its node is a leaf, so each
        level sees only the lanes still on it."""
        K = self._K
        if p.size * _INDEX_SHARE >= self.length:
            index = self._leaf_index()
            j = np.empty_like(index)
            j[index] = np.arange(index.size, dtype=index.dtype)
            j = j[p]
            start, end = self._all_bounds()
            size = (end - start).astype(np.int64)
            leaf = np.repeat(np.arange(size.size), size)[j]
            at = size.cumsum() - size                   # each leaf's first place in the index
            return leaf, (start - at)[leaf] + j
        leaf = np.zeros(p.size, dtype=np.int64)         # a lone symbol's root is leaf 0
        pos = p.copy()
        lane, i, q = np.arange(p.size), leaf.copy(), p.copy()
        for d, bv in enumerate(self._levels):
            if not lane.size:
                break
            q, bit = _fall(bv, q)
            i = np.where(bit, K[d] + i, i)
            end = i >= K[d + 1]
            if end.any():
                at = lane[end]
                leaf[at], pos[at] = self._first[d + 1] + i[end], q[end]
                keep = ~end
                lane, i, q = lane[keep], i[keep], q[keep]
        return leaf, pos

    def _descend(self, depth: np.ndarray, bits: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Follow level-0 positions ``p`` (0-based, 0..length; one row per
        walk, one column per lane) down to each lane's leaf at ``depth``,
        whose path is ``bits`` (from ``_path``); one rank per position and
        level the lane passes.  The lanes are put deepest first once
        (``_deepest_first``), so those still on level d are a prefix of
        that order, walked in place."""
        order, on = _deepest_first(depth, len(bits))
        q, bits = p[:, order], bits[:, order]
        for d, (bv, c) in enumerate(zip(self._levels, on)):
            q[:, :c] = _fall(bv, q[:, :c], bits[d, :c])[0]
        out = np.empty_like(q)
        out[:, order] = q
        return out

    def _ascend(self, depth: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Inverse of ``_descend``: the level-0 position of each 0-based
        position ``p`` in its lane's leaf at ``depth``, by one ``_rise`` (one
        select) per level the lane passes, which tells a 1 from a 0 by
        position, so the climb reads no path; depth 0 and absent lanes stay
        put.  As in ``_descend``, the lanes on level d are a prefix of one
        deepest-first order."""
        order, on = _deepest_first(depth, depth.max(initial=0))
        q = p[order]
        for d in range(on.size - 1, -1, -1):
            _rise(self._levels[d], q[:on[d]])
        out = np.empty_like(q)
        out[order] = q
        return out

    def _leaf_index(self) -> np.ndarray:
        """Level-0 position of every element in leaf-number order, ascending
        within each leaf: ``_build``'s partition replayed on positions, one
        stable partition of each level (the positions of its zeros, then of
        its ones) and one gather per level.  Each partitioned level's tail,
        past the next level's length, holds the elements whose code ends
        there, by node: the leaves of that depth in order.  Transient: a
        batch builds it, uses it and drops it (int32 entries when they fit,
        4 bytes per element)."""
        p = np.arange(self.length, dtype=np.int32 if self.length <= _I32.max else np.int64)
        if not self.width:
            return p
        out, at = np.empty_like(p), 0
        for d, bv in enumerate(self._levels):
            bits = bv.to_array().view(bool)
            p = p[np.concatenate((np.flatnonzero(~bits), np.flatnonzero(bits)))]
            below = self._levels[d + 1].n if d + 1 < self.width else 0
            out[at:at + p.size - below] = p[below:]
            at += p.size - below
            p = p[:below]
        return out

    def _leaves(self, depth: np.ndarray, node: np.ndarray) -> np.ndarray:
        """[start, end) (rows 0 and 1) of each lane's leaf ``node`` at
        ``depth``, [0, 0) for an absent lane (depth -1).  When there are at
        least 1/``_BOUNDS_SHARE`` as many present lanes as present symbols
        (select passes distinct leaves, ``occ_batch`` its lanes), they are
        gathered from every leaf's bounds (``_all_bounds``), otherwise
        both ends walk down each lane's path."""
        live = depth >= 0
        if np.count_nonzero(live) * _BOUNDS_SHARE >= self.sigma_eff:
            out = np.zeros((2, live.size), dtype=np.int64)
            out[:, live] = self._all_bounds()[:, self._leaf_number(depth[live], node[live])]
            return out
        ends = np.array([[0], [self.length]]).repeat(live.size, axis=1)
        out = self._descend(depth, _path(self._K, depth, node), ends)
        out[:, ~live] = 0                   # an absent lane walks nowhere: [0, length)
        return out

    def _count(self, cs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Occurrences of each lane's symbol among the 0-based positions
        [lo, hi): a range's occurrences are consecutive in the symbol's
        leaf, so both ends walk down the same path (absent symbols: 0)."""
        depth, node, present = self._leaf_of(cs)
        s, e = self._descend(depth, _path(self._K, depth, node), np.stack((lo, hi)))
        return np.where(present, e - s, 0)

    # -- batch queries (1-based, like the scalar API) ---------------------------

    def access_batch(self, i) -> np.ndarray:
        pos = checked(i, 1, self.length, "position")
        return self._symbol_at(self._down(pos - 1)[0])

    def rank_batch(self, c, i) -> np.ndarray:
        cs, prefix = np.broadcast_arrays(checked(c, 0, self.sigma - 1, "symbol"),
                                         checked(i, 0, self.length, "prefix length"))
        return self._count(cs, np.zeros_like(prefix), prefix)

    def select_batch(self, c, k) -> np.ndarray:
        # k's bounds are per lane (the symbol's occurrences), checked below
        cs, ks = np.broadcast_arrays(checked(c, 0, self.sigma - 1, "symbol"),
                                     checked(k, _I64.min, _I64.max, "occurrence number"))
        # each distinct symbol costs a walk down the map and its bounds
        u, inv = _distinct(cs)
        depth, node, _ = self._leaf_of(u)
        s, e = self._leaves(depth, node)[:, inv]
        bad = (ks < 1) | (ks > e - s)
        if bad.any():
            k = int(np.argmax(bad))
            raise OutOfRangeError(f"symbol {int(cs[k])} has only {int(e[k] - s[k])} occurrences")
        return self._ascend(depth[inv], s + ks - 1) + 1

    def occ_batch(self, c) -> np.ndarray:
        """Occurrences of each symbol: the size of its leaf (0 when absent)."""
        depth, node, _ = self._leaf_of(checked(c, 0, self.sigma - 1, "symbol"))
        s, e = self._leaves(depth, node)
        return e - s

    def positions(self, c: int) -> np.ndarray:
        """1-based positions of every occurrence of symbol ``c``, ascending:
        one climb to the symbol's leaf, whose length is its occurrence
        count, and one ascent of all its occurrences."""
        depth, node, present = self._leaf_of(checked([c], 0, self.sigma - 1, "symbol"))
        if not present[0]:
            return np.zeros(0, dtype=np.int64)
        s, e = self._leaves(depth, node)[:, 0]
        return self._ascend(np.repeat(depth, e - s), np.arange(s, e, dtype=np.int64)) + 1

    # -- scalar wrappers ----------------------------------------------------

    def access(self, i: int) -> int:
        return int(self.access_batch([i])[0])

    def rank(self, c: int, i: int) -> int:
        """Occurrences of symbol c among the first i positions (i in 0..length)."""
        return int(self.rank_batch([c], [i])[0])

    def select(self, c: int, k: int) -> int:
        """Position of the k-th occurrence of symbol c (1-based)."""
        return int(self.select_batch([c], [k])[0])

    def occ(self, c: int) -> int:
        return int(self.occ_batch([c])[0])

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
        padding plus K and the first leaf numbers (and a map's leaf tables)
        as directory, and the whole symbol map (or a map's key table) as
        presence."""
        payload = sum(lvl.n for lvl in self._levels)
        kept = [self._K, self._first] + ([] if self._map is not None else [
            self._bounds, self._nodes, self._order])
        resident = (sum(lvl.space_report()["total_bits"] for lvl in self._levels)
                    + 8 * sum(a.nbytes for a in kept))
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
