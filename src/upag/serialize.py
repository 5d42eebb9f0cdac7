"""On-disk format for compressed graphs.

The file is built from three records, each one ``struct.Struct`` that
both the writer and the reader use (all integers little-endian):

    _HEAD    magic 4 bytes b"UPAG", version u16 (5), flags u16, m u64, n u64
    _BITS    nbits u64, then the bitvector's ceil(nbits / 64) words
    _MATRIX  sigma u64, length u64, levels u8, then one _BITS per level,
             level 0 first

Flag bit 0 is 1 when the scaffold tree is present (vertex-renamed form)
and 0 when it is not (labelled form); either way the file holds one
CompressedGraph.  In order, a file is:

    _HEAD
    [tree LOUDS _BITS]   only when flag bit 0 is set: 2(n+1) bits, a
                         leading 1, then 1^deg 0 per vertex in BFS order
    [string blob]
    crc32   u32          zlib crc32 of every preceding byte

The string blob is the _MATRIX of the string, the _MATRIX of its
code-length map (a string of length sigma over the keys 0 = absent,
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
the code shape, and an occurrence for every symbol that has a code; the
map's stored length equals the string's alphabet) and raises
``FormatError`` on any inconsistency.  Versions 1-4 are refused with a
hint to rebuild the file.
"""

from __future__ import annotations

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

_HEAD = struct.Struct("<4sHHQQ")
_BITS = struct.Struct("<Q")
_MATRIX = struct.Struct("<QQB")


def _bitvector(bv: BitVector) -> bytes:
    return _BITS.pack(bv.n) + bv.to_parts()["words"].astype("<u8", copy=False).tobytes()


def _matrix(wt: WaveletTree) -> bytes:
    return b"".join([_MATRIX.pack(wt.sigma, wt.length, wt.width), *map(_bitvector, wt._levels)])


def _wavelet(wt: WaveletTree) -> bytes:
    return b"".join((_matrix(wt), _matrix(wt._map), wt._map._table.tobytes()))


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

    def unpack(self, record: struct.Struct) -> tuple:
        return record.unpack(self.take(record.size))

    def bitvector(self) -> BitVector:
        (n,) = self.unpack(_BITS)
        words = np.frombuffer(self.take(8 * ((n + 63) // 64)), dtype="<u8")
        return BitVector.from_parts(n, words)

    def matrix(self) -> tuple[int, int, list[BitVector]]:
        sigma, length, width = self.unpack(_MATRIX)
        return sigma, length, [self.bitvector() for _ in range(width)]

    def wavelet(self) -> WaveletTree:
        sigma, length, levels = self.matrix()
        keys, key_length, key_levels = self.matrix()
        table = np.frombuffer(self.take(keys), dtype=np.uint8).copy()
        key_map = WaveletTree.from_levels(keys, key_length, key_levels, table)
        return WaveletTree.from_levels(sigma, length, levels, key_map)


def dumps(g: CompressedGraph) -> bytes:
    """Serialize a compressed graph, with or without a scaffold, to bytes."""
    if not isinstance(g, CompressedGraph):
        raise TypeError(f"cannot serialize {type(g).__name__}")
    flags = 0 if g.tree is None else _FLAG_TREE
    tree = b"" if g.tree is None else _bitvector(g.tree._bv)
    body = b"".join((_HEAD.pack(MAGIC, VERSION, flags, g.m, g.n), tree, _wavelet(g.targets)))
    return body + struct.pack("<I", zlib.crc32(body))


def loads(data: bytes) -> CompressedGraph:
    """Parse bytes produced by :func:`dumps`."""
    if len(data) < _HEAD.size + 4:
        raise FormatError("file too short")
    if data[:4] != MAGIC:
        raise FormatError("bad magic: not a compressed-graph file")
    body, crc_raw = data[:-4], data[-4:]
    if struct.unpack("<I", crc_raw)[0] != zlib.crc32(body):
        raise FormatError("checksum mismatch: file corrupted")
    r = _Reader(body)
    _, version, flags, m, n = r.unpack(_HEAD)     # the magic is checked above
    if 1 <= version < VERSION:
        raise FormatError(f"unsupported version {version}: rebuild the .upag from its edge list")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if flags & ~_FLAG_TREE:
        raise FormatError(f"unknown flag bits {flags:#06x}")
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
