"""On-disk format for compressed graphs.

Layout (all integers little-endian):

    magic   4 bytes  b"UPAG"
    version u16      2
    flags   u16      bit 0: 1 = scaffold tree present (vertex-renamed form),
                            0 = no scaffold (labelled form); either way the
                            file holds one CompressedGraph
    m       u64
    n       u64
    [tree LOUDS bitvector blob]   only when flag bit 0 is set: 2(n+1)
                                  plain bits, a leading 1, then 1^deg 0
                                  per vertex in BFS order
    [wavelet tree blob]
    crc32   u32      zlib crc32 of every preceding byte

A bitvector blob is:

    nbits   u64
    mode    u8       0 = plain, 1 = entropy-coded blocks
    plain:  nwords u64, then nwords * 8 bytes of 64-bit words
    coded:  nclasses u64, classes bytes, npay u64, npay * 8 payload bytes

A wavelet blob is:

    sigma   u64
    length  u64
    width   u8
    presence bitvector blob
    width * level bitvector blobs

Rank/select directories are rebuilt on load; only payload travels.  The
writer is deterministic: the same structure always yields the same bytes.
The loader validates what it rebuilds (block codes, the LOUDS, wavelet
codes below the effective alphabet) and raises ``FormatError`` on any
inconsistency.  Version 1 stored the tree as balanced parentheses under
preorder labels; such files are refused with a hint to rebuild them.
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
VERSION = 2
_FLAG_TREE = 1


class _Writer:
    def __init__(self):
        self.buf = io.BytesIO()

    def u8(self, x):
        self.buf.write(struct.pack("<B", x))

    def u16(self, x):
        self.buf.write(struct.pack("<H", x))

    def u32(self, x):
        self.buf.write(struct.pack("<I", x))

    def u64(self, x):
        self.buf.write(struct.pack("<Q", x))

    def raw(self, b):
        self.buf.write(b)

    def bitvector(self, parts: dict):
        self.u64(parts["n"])
        if parts["mode"] == "plain":
            self.u8(0)
            words = parts["words"]
            self.u64(words.size)
            self.raw(words.astype("<u8").tobytes())
        else:
            self.u8(1)
            classes = parts["classes"]
            payload = parts["payload"]
            self.u64(classes.size)
            self.raw(classes.tobytes())
            self.u64(payload.size)
            self.raw(payload.astype("<u8").tobytes())

    def wavelet(self, wt: WaveletTree):
        parts = wt.to_parts()
        self.u64(parts["sigma"])
        self.u64(parts["length"])
        self.u8(len(parts["levels"]))
        for bv_parts in [parts["presence"]] + parts["levels"]:
            self.bitvector(bv_parts)


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

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def bitvector(self) -> BitVector:
        n = self.u64()
        mode = self.u8()
        if mode == 0:
            nw = self.u64()
            if nw != (n + 63) // 64:
                raise FormatError("plain bitvector word count disagrees with length")
            words = np.frombuffer(self.take(8 * nw), dtype="<u8").astype(np.uint64)
            return BitVector.from_parts(n=n, mode="plain", words=words)
        if mode == 1:
            nc = self.u64()
            if nc != (n + 63) // 64:
                raise FormatError("coded bitvector class count disagrees with length")
            classes = np.frombuffer(self.take(nc), dtype=np.uint8).copy()
            npay = self.u64()
            payload = np.frombuffer(self.take(8 * npay), dtype="<u8").astype(np.uint64)
            return BitVector.from_parts(n=n, mode="rrr", classes=classes, payload=payload)
        raise FormatError(f"unknown bitvector mode {mode}")

    def wavelet(self) -> WaveletTree:
        sigma = self.u64()
        length = self.u64()
        width = self.u8()
        presence = self.bitvector()
        levels = [self.bitvector() for _ in range(width)]
        return WaveletTree.from_parts(
            {"sigma": sigma, "length": length, "presence": presence, "levels": levels}
        )


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
        w.bitvector(g.tree._bv.to_parts())
    w.wavelet(g.targets)
    body = w.buf.getvalue()
    return body + struct.pack("<I", zlib.crc32(body))


def loads(data: bytes) -> CompressedGraph:
    """Parse bytes produced by :func:`dumps`."""
    if len(data) < 4 + 2 + 2 + 8 + 8 + 4:
        raise FormatError("file too short")
    body, crc_raw = data[:-4], data[-4:]
    if struct.unpack("<I", crc_raw)[0] != zlib.crc32(body):
        raise FormatError("checksum mismatch: file corrupted")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise FormatError("bad magic: not a compressed-graph file")
    version = r.u16()
    if version == 1:
        raise FormatError("unsupported version 1: rebuild the .upag from its edge list")
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
