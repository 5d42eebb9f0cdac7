"""Ordinal tree stored as a balanced-parentheses sequence.

A tree on N nodes costs exactly 2N bits: an open parenthesis at each node's
preorder arrival, a close at its departure.  Node labels ARE preorder ranks,
so the open of node v sits at select1(v+1) and the label of an open at
position p is rank1(p)-1.

Navigation works on the excess E(j) = opens - closes among bits 0..j through
a range min-max directory (Navarro & Sadakane, "Fully functional static and
dynamic succinct trees", ACM TALG 2014).  The directory is a tree whose every
node covers a range of bits and holds the minimum excess over it and the
number of positions reaching that minimum:

* leaves are the 1024-bit superblocks of the parenthesis words, each keeping
  an int16 minimum relative to the excess at its start (read off the
  bitvector's superblock ranks) and an int16 count;
* inner nodes have 16 children each and keep int32 pairs; the single node
  at the top needs none;
* below a leaf, the same pairs for its 16 words, their 8 bytes each and the
  bytes' 8 bits are computed from 256-entry byte tables for just the leaves
  a query touches.

The directory is rebuilt on load, never serialized.  Every query is one
walk over it: climb from a start position until a sibling range holds the
answer, then descend into that range.  A walk stops at the first position
whose excess drops below a threshold e, or at the i-th position whose excess
is exactly e.  One walk gives the matching close and, from its count, the
degree; one walking left gives the enclosing open; one counting from the
open gives the i-th child.  All lanes of a batch walk in lock-step, one
numpy round per level, so a query takes O(log n) rounds however far it
reaches.
"""

from __future__ import annotations

import numpy as np

from .bitvector import BitVector
from .errors import OutOfRangeError

_LEAF_LOG = 10           # leaf = one 1024-bit superblock of the rank directory
_CHUNK = 8192            # lanes per walk round; bounds the (lanes, 16) temporaries
_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)
_EMPTY = np.iinfo(np.int32).max   # minimum of a padding slot: never stops a walk

# _PREFIX[b][j]: excess of bits 0..j of byte b (bit 0 first); its last column
# is the byte's excess, its minimum and the count of columns reaching that
# minimum summarise the byte
_PREFIX = np.cumsum(2 * ((np.arange(256)[:, None] >> np.arange(8)) & 1) - 1, axis=1)
_BYTE_EXC = _PREFIX[:, -1].copy()
_BYTE_MIN = _PREFIX.min(axis=1)
_BYTE_NMIN = (_PREFIX == _BYTE_MIN[:, None]).sum(axis=1)
_PREFIX0 = np.concatenate([np.zeros((256, 1), np.int64), _PREFIX], axis=1)  # bits 0..j-1
_ONES8 = np.ones((1, 8), np.int64)
_LOC = {8: np.arange(8), 16: np.arange(16)}


# log2 of the bits one node spans, at the levels below the leaves' parents
_SHIFT = np.array([0, 3, 6, 10])


def _fan(level: int) -> int:
    """Children per node of ``level + 1``: 8 bits per byte, 8 bytes per
    word, then 16 (words per leaf, leaves and nodes per node)."""
    return 8 if level < 2 else 16


def _rows16(a: np.ndarray, fill: int) -> np.ndarray:
    """``a`` padded with ``fill`` to a multiple of 16 and cut into rows of 16."""
    return np.concatenate([a, np.full(-a.size % 16, fill, a.dtype)]).reshape(-1, 16)


def _last_one_up(depth: np.ndarray) -> np.ndarray:
    """Parent array of the preorder tree with these node depths: the parent
    of v is the last node before v one level up (-1 for the root)."""
    n = depth.size
    labels = np.arange(n)
    keys = np.sort(depth * n + labels)
    out = keys[np.searchsorted(keys, (depth - 1) * n + labels) - 1] % n
    out[0] = -1
    return out


def _pick(mins, w, valid, e, rem):
    """First valid column, in order, whose min is below ``e`` or that brings
    the count of excess-``e`` positions to ``rem`` (None: no counting).

    Returns (found, column, positions with excess ``e`` passed before the
    column, or in all valid columns when nothing was found).  Only the
    lanes whose count target lies inside the group take a prefix sum.
    """
    below = valid & (mins < e[:, None])
    found = below.any(axis=1)
    col = np.where(found, below.argmax(axis=1), mins.shape[1])
    if rem is None:
        return found, col, None
    w = np.where(valid & (mins == e[:, None]), w, 0)
    passed = np.where(_LOC[mins.shape[1]] < col[:, None], w, 0).sum(axis=1)
    hit = np.flatnonzero(passed >= rem)
    if hit.size:
        cum = np.cumsum(w[hit], axis=1)
        c = (cum >= rem[hit, None]).argmax(axis=1)
        r = np.arange(hit.size)
        found[hit], col[hit], passed[hit] = True, c, cum[r, c] - w[hit, c]
    return found, col, passed


class BPTree:
    """Succinct ordinal tree; nodes are preorder ranks 0..n_nodes-1."""

    def __init__(self, parents=None, *, _bv: BitVector | None = None):
        if _bv is not None:
            if _bv.mode != "plain" or _bv.n % 2 or _bv.n == 0:
                raise ValueError("parenthesis vector must be plain with even length")
            self._bv = _bv
            self.n_nodes = _bv.n // 2
            self._build_directory()
            return
        par = np.asarray(parents, dtype=np.int64)
        if par.ndim != 1 or par.size == 0:
            raise ValueError("need a non-empty parent array")
        if par[0] != -1 or (par.size > 1 and not np.all(par[1:] < np.arange(1, par.size))):
            raise ValueError("parents must be preorder-consistent: parent[v] < v, root first")
        n = par.size
        # depths by pointer doubling: O(log depth) passes
        depth = (par >= 0).astype(np.int64)
        jump = par.copy()
        live = np.flatnonzero(jump >= 0)
        while live.size:
            to = jump[live]
            depth[live] += depth[to]
            jump[live] = jump[to]
            live = live[jump[live] >= 0]
        # between the opens of v and v+1 sit depth(v) + 1 - depth(v+1) closes
        closes = depth + 1 - np.append(depth[1:], 0)
        if closes.min() < 0:
            raise ValueError("parent array is not in preorder")
        bits = np.zeros(2 * n, dtype=np.uint8)
        bits[np.arange(n) + np.concatenate([[0], np.cumsum(closes[:-1])])] = 1
        self._bv = BitVector(bits, mode="plain")
        self.n_nodes = n
        self._build_directory()
        # the sequence encodes the depths; it encodes the parents only when
        # the array was in preorder
        if not np.array_equal(_last_one_up(depth), par):
            raise ValueError("parent array is not in preorder")

    # ---- range min-max directory -------------------------------------------

    def _build_directory(self) -> None:
        """Leaf and node summaries; rejects ill-formed sequences."""
        bv = self._bv
        if 2 * bv.ones != bv.n:
            raise ValueError("parenthesis sequence is unbalanced")
        nb = bv._nblocks
        self._n = bv.n
        tail = bv.n % 64
        self._pad = ~((np.uint64(1) << np.uint64(tail)) - np.uint64(1)) if tail else np.uint64(0)
        nl = (nb + 15) >> 4
        sizes = [bv.n, (bv.n + 7) >> 3, nb, nl]
        while sizes[-1] > 1:
            sizes.append((sizes[-1] + 15) >> 4)
        self._sizes = sizes[:sizes.index(1) + 1]
        self._top = len(self._sizes) - 1
        leaves = np.arange(nl)
        wmin, wnmin = self._profile(leaves)[5:]
        lmin = wmin.min(axis=1)
        lnmin = np.where(wmin == lmin[:, None], wnmin, 0).sum(axis=1)
        # well formed: the excess stays >= 1 until the final close brings it to 0
        if lmin.min() != 0 or lnmin[lmin == 0].sum() != 1:
            raise ValueError("parenthesis sequence is not a single well-formed tree")
        self._leaf_min = (lmin - self._base(leaves)).astype(np.int16)
        self._leaf_nmin = lnmin.astype(np.int16)
        # inner levels 4 .. top-1 (the root needs no entry), as (rows, 16)
        # matrices so that a node's siblings are one row
        self._nodes: list[tuple[np.ndarray, np.ndarray]] = []
        mins, cnts = lmin, lnmin
        for _ in range(4, self._top):
            m16, c16 = _rows16(mins, _EMPTY), _rows16(cnts, 0)
            mins = m16.min(axis=1)
            cnts = np.where(m16 == mins[:, None], c16, 0).sum(axis=1)
            self._nodes.append((_rows16(mins, _EMPTY).astype(np.int32),
                                _rows16(cnts, 0).astype(np.int32)))

    def _base(self, leaf: np.ndarray) -> np.ndarray:
        """Excess before the first bit of each leaf."""
        return 2 * self._bv._sb_occ[1][leaf] - (leaf << _LEAF_LOG)

    def _profile(self, leaf: np.ndarray):
        """Byte and word summaries of the distinct leaves in ``leaf``.

        Returns (row of each lane, bytes, excess before each byte, byte
        minima, byte counts, word minima, word counts); all excesses are
        absolute.  Bits beyond the sequence read as opens, which never stop
        a walk.
        """
        uniq, rows = np.unique(leaf, return_inverse=True)
        nb = self._bv._nblocks
        idx = uniq[:, None] * 16 + np.arange(16)
        words = self._bv._words[np.minimum(idx, nb - 1)]
        words[idx >= nb - 1] |= self._pad
        words[idx >= nb] = _ALL
        byt = words.astype("<u8", copy=False).view(np.uint8)
        exc = _BYTE_EXC[byt]
        before = np.cumsum(exc, axis=1) - exc + self._base(uniq)[:, None]
        bmin = (before + _BYTE_MIN[byt]).reshape(-1, 16, 8)
        bnmin = _BYTE_NMIN[byt].reshape(-1, 16, 8)
        wmin = bmin.min(axis=2)
        wnmin = np.where(bmin == wmin[:, :, None], bnmin, 0).sum(axis=2)
        return rows, byt, before, bmin, bnmin, wmin, wnmin

    def _group(self, level: int, g: np.ndarray, prof, rows: np.ndarray):
        """(minima, counts) of the ``_fan(level)`` nodes of ``level`` that
        start at node ``g`` of each lane, as (lanes, fan) matrices."""
        if level == 0:
            lb = (g >> 3) & 127
            byt = prof[1][rows, lb]
            return prof[2][rows, lb][:, None] + _PREFIX[byt], _ONES8
        if level == 1:
            lw = (g >> 3) & 15
            return prof[3][rows, lw], prof[4][rows, lw]
        if level == 2:
            return prof[5][rows], prof[6][rows]
        if level == 3:
            ids = np.minimum(g[:, None] + np.arange(16), self._sizes[3] - 1)
            return self._base(ids) + self._leaf_min[ids], self._leaf_nmin[ids]
        mins, cnts = self._nodes[level - 4]
        return mins[g >> 4], cnts[g >> 4]

    def _walk(self, pos, e, e_in, need, right: bool):
        """Walk from bit ``pos`` (0-based, inclusive), rightwards or leftwards.

        Each lane stops at the first position whose excess is below ``e[k]``
        or that is the ``need[k]``-th position with excess exactly ``e[k]``
        (``need=None``: never, and nothing is counted).  ``e_in`` is the
        excess the walk enters ``pos`` with: E(pos-1) walking right, E(pos)
        walking left.  Returns (stop position, or -1 / n when the walk ran
        off the sequence; positions with excess ``e`` passed before the
        stop; whether the stop has excess ``e``).
        """
        pos, e, e_in = (np.asarray(a, dtype=np.int64) for a in (pos, e, e_in))
        if need is not None:
            need = np.asarray(need, dtype=np.int64)
        parts = [self._walk_chunk(pos[s:s + _CHUNK], e[s:s + _CHUNK], e_in[s:s + _CHUNK],
                                  None if need is None else need[s:s + _CHUNK], right)
                 for s in range(0, pos.size, _CHUNK)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _walk_chunk(self, pos, e, e_in, need, right):
        k = pos.size
        cnt = np.zeros(k, np.int64)
        at = np.full(k, self._n if right else -1, np.int64)
        eq = np.zeros(k, bool)
        sizes = self._sizes

        def choose(level, g, mins, w, valid, lanes):
            """_pick over one group per lane, in walk order; returns (found,
            chosen node)."""
            fan = mins.shape[1]
            if not right:
                mins, w, valid = mins[:, ::-1], np.broadcast_to(w, mins.shape)[:, ::-1], valid[:, ::-1]
            rem = None if need is None else need[lanes] - cnt[lanes]
            found, col, passed = _pick(mins, w, valid, e[lanes], rem)
            if need is not None:
                cnt[lanes] += passed
            if level == 0:
                eq[lanes[found]] = mins[found, col[found]] == e[lanes[found]]
            return found, g + (col if right else fan - 1 - col)

        # climb: the start bit and the rest of its byte, from the known
        # excess; then the start node's later siblings at each level
        kb = pos & 7
        byt = ((self._bv._words[pos >> 6] >> (pos & 56).astype(np.uint64))
               & np.uint64(0xFF)).astype(np.int64)
        mins = (e_in - _PREFIX0[byt, kb + (0 if right else 1)])[:, None] + _PREFIX[byt]
        valid = (pos - kb)[:, None] + _LOC[8] < sizes[0]
        valid &= (_LOC[8] >= kb[:, None]) if right else (_LOC[8] <= kb[:, None])
        found, node = choose(0, pos - kb, mins, _ONES8, valid, np.arange(k))
        at[found] = node[found]
        lanes, x = np.flatnonzero(~found), pos[~found] >> 3
        if not lanes.size:
            return at, cnt, eq
        prof = self._profile(x >> 7)
        rows = np.zeros(k, np.int64)
        rows[lanes] = prof[0]
        down = []                                  # (lanes, level, node) to descend
        for level in range(1, self._top):
            if not lanes.size:
                break
            fan = _fan(level)
            g, xl = x - x % fan, (x % fan)[:, None]
            mins, w = self._group(level, g, prof, rows[lanes])
            valid = (g[:, None] + _LOC[fan] < sizes[level]) & \
                ((_LOC[fan] > xl) if right else (_LOC[fan] < xl))
            found, node = choose(level, g, mins, w, valid, lanes)
            if found.any():
                down.append((lanes[found], np.full(int(found.sum()), level), node[found]))
            lanes, x = lanes[~found], x[~found] // fan
        if not down:
            return at, cnt, eq
        lanes, lvl, y = (np.concatenate(p) for p in zip(*down))
        # descend: the first stopping child at each level, down to a bit
        rows = rows[lanes]
        for level in range(int(lvl.max()), 0, -1):
            if level == 3:                     # below: words, bytes, bits of a new leaf
                prof = self._profile(y >> (_LEAF_LOG - _SHIFT[lvl]))
                rows = prof[0]
            sel = np.flatnonzero(lvl == level)
            if sel.size:
                fan = _fan(level - 1)
                g = y[sel] * fan
                mins, w = self._group(level - 1, g, prof, rows[sel])
                valid = g[:, None] + _LOC[fan] < sizes[level - 1]
                _, y[sel] = choose(level - 1, g, mins, w, valid, lanes[sel])
                lvl[sel] = level - 1
        at[lanes] = y
        return at, cnt, eq

    # ---- node navigation ---------------------------------------------------

    def _check_nodes(self, vs) -> np.ndarray:
        arr = np.asarray(vs, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.n_nodes):
            raise OutOfRangeError(f"node must lie in 0..{self.n_nodes - 1}")
        return arr

    def _bit(self, pos):
        """Bit at 0-based position(s) ``pos``."""
        pos = np.asarray(pos, dtype=np.int64)
        return ((self._bv._words[pos >> 6] >> (pos & 63).astype(np.uint64)) & np.uint64(1)).astype(np.int64)

    def _opens(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """0-based open positions of ``vs`` and the excess right after them."""
        o = self._bv.select1_batch(vs + 1) - 1
        return o, 2 * vs + 1 - o

    def _closes(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """0-based matching closes of ``vs`` and their tree degrees: the walk
        from after the open stops where the excess drops below the open's,
        passing one position at the open's excess per child."""
        o, e = self._opens(vs)
        at, cnt, _ = self._walk(o + 1, e, e, np.full(o.size, self._n + 1), right=True)
        return at, cnt

    def open_pos(self, v: int) -> int:
        """1-based position of v's open parenthesis."""
        return int(self._opens(self._check_nodes([v]))[0][0]) + 1

    def close_pos(self, v: int) -> int:
        """1-based position of v's close parenthesis."""
        return int(self._closes(self._check_nodes([v]))[0][0]) + 1

    def subtree_size(self, v: int) -> int:
        return (self.close_pos(v) - self.open_pos(v) + 1) // 2

    def is_leaf(self, v: int) -> bool:
        return self.subtree_size(v) == 1

    def parent(self, v: int) -> int:
        """Parent label, or -1 for the root."""
        return int(self.parent_batch([v])[0])

    def tree_degree(self, v: int) -> int:
        return int(self.degree_batch([v])[0])

    def child(self, v: int, i: int) -> int:
        """i-th child (1-based)."""
        return int(self.child_batch([v], [i])[0])

    def children(self, v: int) -> list[int]:
        """Child labels in increasing order."""
        d = self.tree_degree(v)
        return self.child_batch(np.full(d, v), np.arange(1, d + 1)).tolist()

    def parent_batch(self, vs) -> np.ndarray:
        """Parent of every node in ``vs`` (-1 for the root).

        The walk leftwards from before v's open stops at the last position
        whose excess is two below v's: the slot just before the parent's
        open, or the start of the sequence when the parent is the root.
        """
        arr = self._check_nodes(vs)
        if arr.size == 0:
            return np.zeros(arr.shape, dtype=np.int64)
        # dedupe first: batch callers (all-pairs adjacency grids) repeat nodes
        uniq, inv = np.unique(arr, return_inverse=True)
        per = np.full(uniq.size, -1, dtype=np.int64)
        vv = uniq[uniq > 0]
        if vv.size:
            o, e = self._opens(vv)
            at, _, _ = self._walk(o - 1, e - 1, e - 1, None, right=False)
            per[uniq > 0] = (e + at + 1) // 2 - 1
        return per[inv].reshape(arr.shape)

    def degree_batch(self, vs) -> np.ndarray:
        """Number of children of every node in ``vs``."""
        arr = self._check_nodes(vs)
        if arr.size == 0:
            return np.zeros(arr.shape, dtype=np.int64)
        uniq, inv = np.unique(arr, return_inverse=True)
        return self._closes(uniq)[1][inv].reshape(arr.shape)

    def child_batch(self, vs, idx) -> np.ndarray:
        """``idx[k]``-th child (1-based) of node ``vs[k]``, for every lane.

        From v's open the walk stops at the i-th position with v's excess:
        the open itself, then the close of each child in turn.  The i-th
        child opens right after it, unless that slot closes v.
        """
        arr = self._check_nodes(vs)
        ii = np.asarray(idx, dtype=np.int64)
        if arr.shape != ii.shape:
            raise ValueError("node and index arrays must match")
        if arr.size == 0:
            return np.zeros(arr.shape, dtype=np.int64)
        if ii.min() < 1:
            raise OutOfRangeError("child index must be at least 1")
        o, e = self._opens(arr.ravel())
        at, _, eq = self._walk(o, e, e - 1, ii.ravel(), right=True)
        if not (eq.all() and self._bit(np.minimum(at + 1, self._n - 1)).all()):
            raise OutOfRangeError("child index beyond the node's degree")
        return ((e + at + 1) // 2).reshape(arr.shape)

    def parents_array(self) -> np.ndarray:
        """Parent of every node, computed from the depths alone, apart from
        the directory (testing aid)."""
        opens = np.flatnonzero(self._bv.to_array())
        return _last_one_up(2 * np.arange(self.n_nodes) - opens)

    # ---- serialization and accounting ---------------------------------------

    def to_parts(self) -> dict:
        return {"paren": self._bv.to_parts()}

    @classmethod
    def from_parts(cls, parts: dict) -> "BPTree":
        return cls(_bv=BitVector.from_parts(**parts["paren"]))

    def space_report(self) -> dict:
        rmm = 16 * (self._leaf_min.size + self._leaf_nmin.size)
        rmm += sum(32 * (m.size + c.size) for m, c in self._nodes)
        return {
            "n_nodes": self.n_nodes,
            "payload_bits": 2 * self.n_nodes,
            "directory_bits": self._bv.space_report()["directory_bits"] + rmm,
        }

    def __repr__(self) -> str:
        return f"BPTree(n_nodes={self.n_nodes})"
