import struct
import zlib

import numpy as np
import pytest

from test_ugraph import check_batches
from test_wavelet import FORMS, reassembled
from upag import serialize, wavelet
from upag.bitvector import BitVector
from upag.errors import FormatError
from upag.graph_model import Dag
from upag.oracle import NaiveGraph
from upag.pa_gen import generate
from upag.ugraph import CompressedGraph, LabelledGraph
from upag.wavelet import WaveletTree

# frozen bytes of the five-vertex worked example (first-target ranking);
# any change here is a format break and must bump the version
GOLDEN_HEX = (
    "5550414705000100030000000000000005000000000000000c000000000000009b01000000"
    "00000006000000000000000a00000000000000020a000000000000003c030000000000000a"
    "000000000000000c0300000000000004000000000000000600000000000000010600000000"
    "000000170000000000000002000002"
)
# the same graph in format v4 (a balanced code on rrr levels, split-radix
# block codes, a presence bitvector)
GOLDEN_V4_HEX = (
    "5550414704000100030000000000000005000000000000000c000000000000000001000000"
    "000000009b0100000000000006000000000000000a00000000000000020600000000000000"
    "01010000000000000004010000000000000001000000000000000a00000000000000010100"
    "000000000000040100000000000000d1000000000000000a00000000000000010100000000"
    "0000000601000000000000009a00000000000000"
)
# the same graph in format v3 (each block coded by its lexicographic rank)
GOLDEN_V3_HEX = (
    "5550414703000100030000000000000005000000000000000c000000000000000001000000"
    "000000009b0100000000000006000000000000000a00000000000000020600000000000000"
    "0101000000000000000401000000000000000d000000000000000a00000000000000010100"
    "00000000000004010000000000000000000000000000000a00000000000000010100000000"
    "0000000601000000000000001600000000000000"
)
# the same graph in format v2 (string levels as a wavelet tree); its sorted
# leftover string gives the same level bits under both layouts
GOLDEN_V2_HEX = (
    "5550414702000100030000000000000005000000000000000c000000000000000001000000"
    "000000009b0100000000000006000000000000000a00000000000000020600000000000000"
    "0101000000000000000401000000000000000d000000000000000a00000000000000010100"
    "00000000000004010000000000000000000000000000000a00000000000000010100000000"
    "0000000601000000000000001600000000000000"
)
# the same graph in format v1 (balanced parentheses, preorder labels)
GOLDEN_V1_HEX = (
    "5550414701000100030000000000000005000000000000000c000000000000000001000000"
    "00000000b70000000000000006000000000000000a00000000000000020600000000000000"
    "0101000000000000000401000000000000000d000000000000000a00000000000000010100"
    "00000000000004010000000000000000000000000000000a00000000000000010100000000"
    "0000000601000000000000001600000000000000"
)


def five_vertex_graph():
    d = Dag(3, np.array([[0, 0, 0], [1, 1, 1], [1, 1, 1], [3, 2, 2], [3, 4, 4]]))
    return CompressedGraph.from_dag(d, tie="first-target")


def test_golden_blob_stable():
    blob = serialize.dumps(five_vertex_graph())
    body = bytes.fromhex(GOLDEN_HEX)
    assert blob == body + struct.pack("<I", zlib.crc32(body))


def test_reject_v1_file_with_rebuild_hint():
    body = bytes.fromhex(GOLDEN_V1_HEX)
    with pytest.raises(FormatError, match="unsupported version 1: rebuild the .upag from its edge list"):
        serialize.loads(body + struct.pack("<I", zlib.crc32(body)))


def test_reject_v2_file_with_rebuild_hint():
    body = bytes.fromhex(GOLDEN_V2_HEX)
    with pytest.raises(FormatError, match="unsupported version 2: rebuild the .upag from its edge list"):
        serialize.loads(body + struct.pack("<I", zlib.crc32(body)))


def test_reject_v4_file_with_rebuild_hint():
    body = bytes.fromhex(GOLDEN_V4_HEX)
    with pytest.raises(FormatError, match="unsupported version 4: rebuild the .upag from its edge list"):
        serialize.loads(body + struct.pack("<I", zlib.crc32(body)))


def test_reject_v3_file_with_rebuild_hint():
    body = bytes.fromhex(GOLDEN_V3_HEX)
    with pytest.raises(FormatError, match="unsupported version 3: rebuild the .upag from its edge list"):
        serialize.loads(body + struct.pack("<I", zlib.crc32(body)))


def test_dumps_deterministic():
    d = generate(3, 200, seed=31)
    a = serialize.dumps(CompressedGraph.from_dag(d))
    b = serialize.dumps(CompressedGraph.from_dag(generate(3, 200, seed=31)))
    assert a == b


@pytest.mark.parametrize("form", FORMS)
def test_compressed_roundtrip(form):
    d = generate(3, 150, seed=41)
    g = CompressedGraph.from_dag(d)
    if form == "reassembled":
        g.targets = reassembled(g.targets)
    # either form writes the bytes of the graph as built
    assert serialize.dumps(g) == serialize.dumps(CompressedGraph.from_dag(d))
    g2 = serialize.loads(serialize.dumps(g))
    assert isinstance(g2, CompressedGraph)
    assert (g2.m, g2.n) == (3, 150)
    assert g2.space_report() == g.space_report()
    vs = np.random.default_rng(5).integers(0, 151, size=40)
    assert np.array_equal(g2.degree_in_batch(vs), g.degree_in_batch(vs))
    for v in (0, 1, 75, 150):
        assert g2.neighbours_out(v) == g.neighbours_out(v)
        assert g2.neighbours_in(v) == g.neighbours_in(v)
    # the reloaded structure serializes to the same bytes
    assert serialize.dumps(g2) == serialize.dumps(g)


@pytest.mark.parametrize("form", FORMS)
def test_labelled_roundtrip(form):
    d = generate(2, 90, seed=43)
    g = LabelledGraph.from_dag(d)
    if form == "reassembled":
        g.targets = reassembled(g.targets)
    g2 = serialize.loads(serialize.dumps(g))
    assert isinstance(g2, LabelledGraph)
    for v in (0, 1, 45, 90):
        assert g2.neighbours_out(v) == g.neighbours_out(v)
        assert g2.degree_in(v) == g.degree_in(v)


def test_save_load_file(tmp_path):
    g = five_vertex_graph()
    p = tmp_path / "five.upag"
    nbytes = serialize.save(p, g)
    assert p.stat().st_size == nbytes
    g2 = serialize.load(p)
    assert [g2.degree_in(v) for v in range(6)] == [3, 6, 2, 2, 2, 0]


def test_reject_bad_magic():
    blob = bytearray(serialize.dumps(five_vertex_graph()))
    blob[:4] = b"NOPE"
    body = bytes(blob[:-4])
    data = body + struct.pack("<I", zlib.crc32(body))
    with pytest.raises(FormatError, match="magic"):
        serialize.loads(data)


def test_reject_bad_version():
    blob = bytearray(serialize.dumps(five_vertex_graph()))
    blob[4:6] = struct.pack("<H", 9)
    body = bytes(blob[:-4])
    with pytest.raises(FormatError, match="version"):
        serialize.loads(body + struct.pack("<I", zlib.crc32(body)))


def test_reject_unknown_flags():
    blob = bytearray(serialize.dumps(five_vertex_graph()))
    blob[6:8] = struct.pack("<H", 0x8001)
    body = bytes(blob[:-4])
    with pytest.raises(FormatError, match="flag"):
        serialize.loads(body + struct.pack("<I", zlib.crc32(body)))


def test_reject_corruption():
    blob = bytearray(serialize.dumps(five_vertex_graph()))
    blob[40] ^= 0xFF
    with pytest.raises(FormatError, match="checksum"):
        serialize.loads(bytes(blob))


@pytest.mark.parametrize("cut", [0, 3, 10, 50, 171])
def test_reject_truncation(cut):
    # a 180-byte file, so every cut falls inside it (the sweep below also
    # cuts the files at every byte)
    blob = serialize.dumps(LabelledGraph.from_dag(generate(2, 12, seed=0)))
    assert cut < len(blob) == 180
    with pytest.raises(FormatError):
        serialize.loads(blob[:cut])


def test_reject_trailing_bytes():
    blob = serialize.dumps(five_vertex_graph())
    body = blob[:-4] + b"\x00\x00"
    with pytest.raises(FormatError, match="trailing"):
        serialize.loads(body + struct.pack("<I", zlib.crc32(body)))


def test_reject_inconsistent_vertex_count():
    blob = bytearray(serialize.dumps(five_vertex_graph()))
    blob[16:24] = struct.pack("<Q", 6)  # claim n=6; structures say n=5
    body = bytes(blob[:-4])
    with pytest.raises(FormatError, match="inconsistent"):
        serialize.loads(body + struct.pack("<I", zlib.crc32(body)))


@pytest.mark.parametrize("form", [CompressedGraph, LabelledGraph])
def test_reject_zero_m(form):
    # with no non-seed vertex the string is empty for any m, so only the
    # m >= 1 check stands between m = 0 and a graph of the wrong shape
    blob = bytearray(serialize.dumps(form.from_dag(Dag(1, np.zeros((0, 1), dtype=np.int64)))))
    blob[8:16] = struct.pack("<Q", 0)
    body = bytes(blob[:-4])
    with pytest.raises(FormatError, match="m must be at least 1"):
        serialize.loads(body + struct.pack("<I", zlib.crc32(body)))


TREE_WORD = 32  # header (24 bytes), then the tree's nbits


def with_tree_word(blob: bytes, word: int) -> bytes:
    """``blob`` with its one LOUDS word replaced and the CRC redone."""
    body = bytearray(blob[:-4])
    assert body[TREE_WORD:TREE_WORD + 8] == struct.pack("<Q", 0x19B)  # 1 10 110 0 110 0 0
    body[TREE_WORD:TREE_WORD + 8] = struct.pack("<Q", word)
    return bytes(body) + struct.pack("<I", zlib.crc32(bytes(body)))


# 12-bit words (bit 0 first) that are no LOUDS of a six-node tree
ILL_FORMED = {
    "extra_one": 0x59B,            # 1 1 0 1 1 0 0 1 1 0 1 0: seven ones
    "one_past_its_zero": 0x19D,    # 1 0 1 1 1 0 0 1 1 0 0 0: node 1 after node 0's zero
    "final_one": 0x89B,            # 1 1 0 1 1 0 0 1 0 0 0 1: no closing zero
}


@pytest.mark.parametrize("word", ILL_FORMED.values(), ids=ILL_FORMED.keys())
def test_reject_ill_formed_louds(word):
    with pytest.raises(FormatError, match="well-formed"):
        serialize.loads(with_tree_word(serialize.dumps(five_vertex_graph()), word))


# ---------------------------------------------------------------------------
# the string blob: code lengths, level lengths and occurrences are checked
# ---------------------------------------------------------------------------

def _small(keys) -> WaveletTree:
    """A code-length map (keys kept in a table) over the given keys."""
    keys = np.asarray(keys, dtype=np.int64)
    m = WaveletTree.__new__(WaveletTree)
    m._build(keys, int(keys.max()) + 1, small=True)
    return m


def _labelled(targets, n: int) -> LabelledGraph:
    """A labelled graph of m = 1 whose string is ``targets``."""
    return LabelledGraph(1, n, WaveletTree(targets, n + 1))


def test_reject_a_code_without_occurrence(monkeypatch):
    # vertex 4 is never a target, yet the lengths give it a two-bit code
    # (the map over the five keys keeps its own lengths)
    lengths = wavelet._code_lengths
    monkeypatch.setattr(wavelet, "_code_lengths", lambda counts: np.array([2, 2, 2, -1, 2])
                        if counts.size == 5 else lengths(counts))
    blob = serialize.dumps(_labelled([0, 1, 1, 2], 4))
    monkeypatch.undo()
    with pytest.raises(FormatError, match="never occurs"):
        serialize.loads(blob)


def test_reject_a_level_length_off_the_code_shape():
    g = _labelled([0, 1, 1, 2, 2, 2, 0, 1], 8)
    level = g.targets._levels[1]
    for bits in (level.to_array()[:-1], np.append(level.to_array(), 1)):
        g.targets._levels[1] = BitVector(bits)
        with pytest.raises(FormatError, match="level length"):
            serialize.loads(serialize.dumps(g))


def test_reject_code_lengths_breaking_kraft_equality():
    g = _labelled([0, 1, 1, 2, 2, 2], 6)
    for keys in ([2, 3, 4, 0, 0, 0, 0],                 # 1/2 + 1/4 + 1/8 < 1
                 [2, 2, 2, 0, 0, 0, 0],                 # 3/2 > 1
                 [2, 2, 2, 2, 0, 0, 0],                 # 2 > 1, every depth even
                 [1, 1, 0, 0, 0, 0, 0]):                # two symbols at the root
        g.targets._map = _small(keys)
        with pytest.raises(FormatError, match="Kraft"):
            serialize.loads(serialize.dumps(g))


def test_reject_a_lone_symbol_marked_absent():
    # a one-symbol string has an empty code and no level: only its key
    # (1 + code length 0) tells it from an absent symbol
    g = _labelled([2, 2, 2], 3)
    assert g.targets.width == 0
    assert serialize.loads(serialize.dumps(g)).targets.to_array().tolist() == [2, 2, 2]
    g.targets._map = _small([0, 0, 0, 0])
    with pytest.raises(FormatError, match="no present symbol"):
        serialize.loads(serialize.dumps(g))


def test_reject_out_of_range_block_code():
    # the map's key table, the file's last bytes before the CRC, holds one
    # byte per key: 1 + the key's code length in the map, or 0 for a key
    # that never occurs.  The five-vertex file has keys 0 and 3 at one bit
    # each; every other byte at key 3 breaks the code
    blob = serialize.dumps(five_vertex_graph())
    assert blob[-8:-4] == bytes([2, 0, 0, 2])
    for byte in range(256):
        body = bytearray(blob[:-4])
        body[-1] = byte
        if byte == 2:
            assert serialize.loads(_sealed(bytes(body))).targets.sigma_eff == 4
            continue
        with pytest.raises(FormatError, match="Kraft"):
            serialize.loads(_sealed(bytes(body)))


def test_reject_out_of_range_code_in_a_full_block():
    # a flip in the first 64-bit block of level 0 moves an element to the
    # other child of its node: the node sizes below change, and either the
    # next level's stored length disagrees and the file is rejected, or the
    # file holds another string that loads and answers consistently
    g = LabelledGraph.from_dag(generate(3, 100, seed=4))
    level = g.targets._levels[0]
    assert level.n == 300
    blob = serialize.dumps(g)
    stored = struct.pack("<Q", level.n) + level.to_parts()["words"].astype("<u8").tobytes()
    at = blob.index(stored) + 8
    outcomes = {"rejected": 0, "agrees": 0}
    for bit in range(64):
        body = bytearray(blob[:-4])
        body[at + (bit >> 3)] ^= 1 << (bit & 7)
        try:
            g2 = serialize.loads(_sealed(bytes(body)))
        except FormatError as e:
            assert "level length does not match the code shape" in str(e)
            outcomes["rejected"] += 1
            continue
        _agrees_with_own_arrays(g2)
        outcomes["agrees"] += 1
    assert outcomes["rejected"] and outcomes["agrees"]


def test_load_builds_each_bitvector_once(monkeypatch):
    g = CompressedGraph.from_dag(generate(3, 300, seed=2))
    blob = serialize.dumps(g)
    built = []
    install = BitVector._install

    def spy(self, n, words):
        built.append(n)
        return install(self, n, words)

    monkeypatch.setattr(BitVector, "_install", spy)
    g2 = serialize.loads(blob)
    # the tree and one bitvector per level of the string and of its map
    assert len(built) == 1 + g2.targets.width + g2.targets._map.width
    built.clear()
    assert serialize.dumps(g2) == blob
    assert built == []


def test_dumps_rejects_other_types():
    with pytest.raises(TypeError):
        serialize.dumps(object())


def test_empty_graph_roundtrip():
    d = Dag(3, np.zeros((0, 3), dtype=np.int64))
    g = CompressedGraph.from_dag(d)
    g2 = serialize.loads(serialize.dumps(g))
    assert g2.n == 0
    assert g2.degree_in(0) == 0


# ---------------------------------------------------------------------------
# every single-bit flip and every truncation, with the CRC recomputed
# ---------------------------------------------------------------------------

def _sealed(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _agrees_with_own_arrays(g) -> None:
    """The loaded graph's batch answers against an oracle built from the
    tree parents and the string it decodes to."""
    par = None if g.tree is None else g.tree.parents_array()
    check_batches(g, NaiveGraph(g.m, g.n, par, g.targets.to_array()))


@pytest.mark.parametrize("form", ["compressed", "labelled"])
def test_every_bit_flip_and_truncation_fails_cleanly_or_agrees(form):
    d = generate(2, 12, seed=0)
    g = CompressedGraph.from_dag(d) if form == "compressed" else LabelledGraph.from_dag(d)
    body = serialize.dumps(g)[:-4]
    assert len(body) + 4 == {"compressed": 146, "labelled": 180}[form]
    cases = [body[:cut] for cut in range(len(body))]
    for bit in range(8 * len(body)):
        flipped = bytearray(body)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        cases.append(bytes(flipped))
    outcomes = {"format_error": 0, "agrees": 0}
    for case in cases:
        try:
            g2 = serialize.loads(_sealed(case))
        except FormatError:
            outcomes["format_error"] += 1
            continue
        _agrees_with_own_arrays(g2)
        outcomes["agrees"] += 1
    assert sum(outcomes.values()) == 9 * len(body)
    assert outcomes["agrees"] >= 1                  # the sweep reaches the queries
