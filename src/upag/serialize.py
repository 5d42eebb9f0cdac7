"""On-disk format for compressed graphs.

Layout (all integers little-endian):

    magic   4 bytes  b"UPAG"
    version u16      5
    flags   u16      bit 0: 1 = scaffold tree present (vertex-renamed form),
                            0 = no scaffold (labelled form); either way the
                            file holds one CompressedGraph
    m       u64
    n       u64
    [tree LOUDS bitvector blob]   only when flag bit 0 is set: 2(n+1)
                                  bits, a leading 1, then 1^deg 0 per
                                  vertex in BFS order
    [string blob]
    crc32   u32      zlib crc32 of every preceding byte

A bitvector blob is ``nbits u64`` and then its ceil(nbits / 64) words.

A matrix blob is:

    sigma   u64
    length  u64
    levels  u8
    levels * bitvector blobs, level 0 first

and the string blob is the matrix blob of the string, the matrix blob of
its code-length map (a string of length sigma over the keys 0 = absent,
1 + code length = present), then that map's key table, one byte per key.

Level d holds bit d of the Huffman code of every element whose code is
longer than d, in wavelet matrix order: level 0 in string order, and each
next level in its predecessor's order stably partitioned by the bit just
stored, zeros first, without the elements whose code has ended.  The code
itself is not stored: the key counts give the number of internal nodes at
each depth, and leaves take their symbols in symbol order (see
``wavelet``).  A level's zero count is read off its bits on load.

Rank samples are rebuilt on load; only bits travel.  The writer is
deterministic: the same structure always yields the same bytes.  The
loader validates what it rebuilds (the LOUDS; per matrix, at most 64
levels, Kraft equality of the code lengths, every level's length against
the code shape, and an occurrence for every symbol that has a code) and
raises ``FormatError`` on any inconsistency.  Versions 1-4 are refused
with a hint to rebuild the file.
"""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np

from .bitvector import BitVector
from .bptree import BPTree
from .errors import FormatError
from .ugraph import CompressedGraph, LabelledGraph
from .wavelet import WaveletTree

MAGIC = b"UPAG"
VERSION = 5
_FLAG_TREE = 1


class _Writer:
    def __init__(self):
        self.buf = io.BytesIO()

    def u8(self, x):
        self.buf.write(struct.pack("<B", x))

    def u16(self, x):
        self.buf.write(struct.pack("<H", x))

    def u64(self, x):
        self.buf.write(struct.pack("<Q", x))

    def raw(self, b):
        self.buf.write(b)

    def bitvector(self, bv: BitVector):
        words = bv.to_parts()["words"]
        self.u64(bv.n)
        self.raw(words.astype("<u8").tobytes())

    def matrix(self, wt: WaveletTree):
        self.u64(wt.sigma)
        self.u64(wt.length)
        self.u8(wt.width)
        for bv in wt._levels:
            self.bitvector(bv)

    def wavelet(self, wt: WaveletTree):
        self.matrix(wt)
        self.matrix(wt._map)
        self.raw(wt._map._table.tobytes())


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, k: int) -> bytes:
        if self.pos + k > len(self.data):
            raise FormatError("file truncated")
        out = self.data[self.pos : self.pos + k]
        self.pos += k
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u16(self) -> int:
        return struct.unpack("<H", self.take(2))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def bitvector(self) -> BitVector:
        n = self.u64()
        words = np.frombuffer(self.take(8 * ((n + 63) // 64)), dtype="<u8")
        return BitVector.from_parts(n, words)

    def matrix(self) -> tuple[int, int, list[BitVector]]:
        sigma = self.u64()
        length = self.u64()
        return sigma, length, [self.bitvector() for _ in range(self.u8())]

    def wavelet(self) -> WaveletTree:
        sigma, length, levels = self.matrix()
        keys, _, key_levels = self.matrix()
        table = np.frombuffer(self.take(keys), dtype=np.uint8).copy()
        key_map = WaveletTree.from_levels(keys, sigma, key_levels, table)
        return WaveletTree.from_levels(sigma, length, levels, key_map)


def dumps(g: CompressedGraph) -> bytes:
    """Serialize a compressed graph, with or without a scaffold, to bytes."""
    if not isinstance(g, CompressedGraph):
        raise TypeError(f"cannot serialize {type(g).__name__}")
    w = _Writer()
    w.raw(MAGIC)
    w.u16(VERSION)
    w.u16(0 if g.tree is None else _FLAG_TREE)
    w.u64(g.m)
    w.u64(g.n)
    if g.tree is not None:
        w.bitvector(g.tree._bv)
    w.wavelet(g.targets)
    body = w.buf.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


def loads(data: bytes) -> CompressedGraph:
    """Parse bytes produced by :func:`dumps`."""
    if len(data) < 4 + 2 + 2 + 8 + 8 + 4:
        raise FormatError("file too short")
    if data[:4] != MAGIC:
        raise FormatError("bad magic: not a compressed-graph file")
    body, crc_raw = data[:-4], data[-4:]
    if struct.unpack("<I", crc_raw)[0] != zlib.crc32(body):
        raise FormatError("checksum mismatch: file corrupted")
    r = _Reader(body)
    r.take(4)                                   # the magic, checked above
    version = r.u16()
    if 1 <= version < VERSION:
        raise FormatError(f"unsupported version {version}: rebuild the .upag from its edge list")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    flags = r.u16()
    if flags & ~_FLAG_TREE:
        raise FormatError(f"unknown flag bits {flags:#06x}")
    m = r.u64()
    n = r.u64()
    try:
        tree = BPTree(_bv=r.bitvector()) if flags & _FLAG_TREE else None
        wt = r.wavelet()
        g = LabelledGraph(m, n, wt) if tree is None else CompressedGraph(m, n, tree, wt)
    except FormatError:
        raise
    except (ValueError, OverflowError) as e:
        raise FormatError(f"inconsistent structure: {e}") from e
    if r.pos != len(body):
        raise FormatError(f"{len(body) - r.pos} trailing bytes")
    return g


def save(path, g: CompressedGraph) -> int:
    """Write a graph to ``path``; returns the byte count."""
    blob = dumps(g)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def load(path) -> CompressedGraph:
    with open(path, "rb") as fh:
        return loads(fh.read())
