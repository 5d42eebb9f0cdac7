import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rrr_reference import decode_block

import upag
from upag import bitvector
from upag.bitvector import BitVector
from upag.errors import OutOfRangeError

MODES = ["plain", "rrr"]


def ref_rank1(bits, i):
    return int(bits[:i].sum())


def ref_select(bits, k, polarity):
    return int(np.nonzero(bits == polarity)[0][k - 1]) + 1


def check_against_reference(bits, mode):
    bits = np.asarray(bits, dtype=np.uint8)
    bv = BitVector(bits, mode=mode)
    n = bits.size
    assert bv.ones == int(bits.sum())
    assert np.array_equal(bv.to_array(), bits)
    pos = np.arange(n + 1)
    expect_rank = np.concatenate([[0], np.cumsum(bits)])
    assert np.array_equal(bv.rank1_batch(pos), expect_rank)
    assert np.array_equal(bv.rank0_batch(pos), pos - expect_rank)
    if n:
        idx = np.arange(1, n + 1)
        assert np.array_equal(bv.access_batch(idx), bits.astype(np.int64))
    ones = int(bits.sum())
    if ones:
        ks = np.arange(1, ones + 1)
        expect = np.nonzero(bits == 1)[0] + 1
        assert np.array_equal(bv.select1_batch(ks), expect)
        assert bv.select1(1) == expect[0]
        assert bv.select1(ones) == expect[-1]
    zeros = n - ones
    if zeros:
        ks = np.arange(1, zeros + 1)
        expect = np.nonzero(bits == 0)[0] + 1
        assert np.array_equal(bv.select0_batch(ks), expect)
        assert bv.select0(1) == expect[0]
        assert bv.select0(zeros) == expect[-1]
    return bv


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n,p", [
    (0, 0.5), (1, 0.0), (1, 1.0), (17, 0.3), (63, 0.5), (64, 0.5), (65, 0.5),
    (64, 0.0), (64, 1.0), (129, 0.05), (1000, 0.5), (1024, 0.9), (1025, 0.02),
    (4200, 0.5), (20000, 0.5),
])
def test_modes_match_reference(mode, n, p, rng):
    bits = (rng.random(n) < p).astype(np.uint8)
    check_against_reference(bits, mode)


@pytest.mark.parametrize("mode", MODES)
def test_runs_and_blocky_patterns(mode):
    # long runs stress the class-0/class-64 paths and superblock boundaries
    bits = np.concatenate([
        np.ones(700, np.uint8), np.zeros(1500, np.uint8),
        np.ones(64, np.uint8), np.zeros(1, np.uint8), np.ones(300, np.uint8),
    ])
    check_against_reference(bits, mode)


@pytest.mark.parametrize("mode", MODES)
def test_select_beyond_anchor_spacing(mode, rng):
    # more than 2^12 occurrences of each polarity (the spacing select anchors
    # once had), spread over many superblocks
    bits = (rng.random(3 * 4096 * 2) < 0.5).astype(np.uint8)
    check_against_reference(bits, mode)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_random_small_vectors(data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), max_size=300)), dtype=np.uint8)
    mode = data.draw(st.sampled_from(MODES))
    bv = BitVector(bits, mode=mode)
    assert np.array_equal(bv.to_array(), bits)
    n = bits.size
    i = data.draw(st.integers(0, n))
    assert bv.rank1(i) == ref_rank1(bits, i)
    ones = int(bits.sum())
    if ones:
        k = data.draw(st.integers(1, ones))
        assert bv.select1(k) == ref_select(bits, k, 1)
        # rank/select inversion
        assert bv.rank1(bv.select1(k)) == k
    zeros = n - ones
    if zeros:
        k = data.draw(st.integers(1, zeros))
        assert bv.select0(k) == ref_select(bits, k, 0)


@pytest.mark.parametrize("mode", MODES)
def test_out_of_range(mode):
    bv = BitVector([1, 0, 1], mode=mode)
    with pytest.raises(OutOfRangeError):
        bv.access(0)
    with pytest.raises(OutOfRangeError):
        bv.access(4)
    with pytest.raises(OutOfRangeError):
        bv.rank1(4)
    with pytest.raises(OutOfRangeError):
        bv.rank1(-1)
    with pytest.raises(OutOfRangeError):
        bv.select1(3)
    with pytest.raises(OutOfRangeError):
        bv.select0(2)
    with pytest.raises(OutOfRangeError):
        bv.select1_batch([1, 3])


def test_empty_vector():
    for mode in MODES:
        bv = BitVector([], mode=mode)
        assert len(bv) == 0 and bv.ones == 0
        assert bv.rank1(0) == 0
        with pytest.raises(OutOfRangeError):
            bv.select1(1)


def test_rrr_payload_is_exact_block_sum(rng):
    bits = (rng.random(10_000) < 0.15).astype(np.uint8)
    bv = BitVector(bits, mode="rrr")
    padded = np.zeros(((bits.size + 63) // 64) * 64, np.uint8)
    padded[:bits.size] = bits
    blocks = padded.reshape(-1, 64)
    expect = 0
    for b, row in enumerate(blocks):
        blen = 64 if b < blocks.shape[0] - 1 else bits.size - 64 * (blocks.shape[0] - 1)
        c = int(row[:blen].sum())
        expect += max(0, math.ceil(math.log2(math.comb(blen, c)))) if math.comb(blen, c) > 1 else 0
    rep = bv.space_report()
    assert rep["payload_bits"] == expect


def test_rrr_beats_plain_on_sparse_input(rng):
    bits = (rng.random(50_000) < 0.03).astype(np.uint8)
    sparse = BitVector(bits, mode="rrr").space_report()
    dense = BitVector(bits, mode="plain").space_report()
    assert sparse["payload_bits"] < 0.35 * dense["payload_bits"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000, 4097])
def test_parts_roundtrip(mode, n, rng):
    bits = (rng.random(n) < 0.4).astype(np.uint8)
    bv = BitVector(bits, mode=mode)
    parts = bv.to_parts()
    back = BitVector.from_parts(**parts)
    assert np.array_equal(back.to_array(), bits)
    assert back.space_report() == bv.space_report()
    if n:
        pos = rng.integers(0, n + 1, size=50)
        assert np.array_equal(back.rank1_batch(pos), bv.rank1_batch(pos))


def test_from_parts_validation():
    with pytest.raises(ValueError):
        BitVector.from_parts(100, "plain", words=np.zeros(1, np.uint64))
    with pytest.raises(ValueError):
        BitVector.from_parts(100, "rrr", classes=np.full(2, 65, np.uint8),
                             payload=np.zeros(1, np.uint64))
    with pytest.raises(ValueError):
        BitVector.from_parts(10, "wat")


def test_batch_equals_scalar(rng):
    bits = (rng.random(2500) < 0.5).astype(np.uint8)
    for mode in MODES:
        bv = BitVector(bits, mode=mode)
        ks = rng.integers(1, bv.ones + 1, size=64)
        batch = bv.select1_batch(ks)
        assert all(bv.select1(int(k)) == b for k, b in zip(ks, batch))
        ps = rng.integers(0, bits.size + 1, size=64)
        batch = bv.rank1_batch(ps)
        assert all(bv.rank1(int(p)) == b for p, b in zip(ps, batch))


@pytest.mark.parametrize("tail", range(1, 64))
def test_rrr_batch_decode_matches_plain(tail):
    # full blocks of class 0, 1, 32, 63 and 64, then a partial block of every
    # length and several classes; every batch has more than 32 lanes, so rrr
    # answers come from the vectorised block decode
    rng = np.random.default_rng(tail)
    full = []
    for c in (0, 1, 32, 63, 64):
        blk = np.zeros(64, np.uint8)
        blk[rng.choice(64, c, replace=False)] = 1
        full.append(blk)
    for c in sorted({0, 1, tail // 2, tail - 1, tail}):
        end = np.zeros(tail, np.uint8)
        end[rng.choice(tail, c, replace=False)] = 1
        order = rng.permutation(len(full))
        bits = np.concatenate([full[i] for i in order] + [end])
        plain = BitVector(bits, mode="plain")
        rrr = BitVector(bits, mode="rrr")
        pos = np.arange(bits.size + 1)
        ones = np.arange(1, int(bits.sum()) + 1)
        zeros = np.arange(1, bits.size - int(bits.sum()) + 1)
        assert min(pos.size, ones.size, zeros.size) > 32
        assert np.array_equal(rrr.rank1_batch(pos), np.concatenate([[0], np.cumsum(bits)]))
        assert np.array_equal(rrr.rank1_batch(pos), plain.rank1_batch(pos))
        assert np.array_equal(rrr.access_batch(pos[1:]), bits)
        assert np.array_equal(rrr.access_batch(pos[1:]), plain.access_batch(pos[1:]))
        assert np.array_equal(rrr.select1_batch(ones), np.flatnonzero(bits) + 1)
        assert np.array_equal(rrr.select1_batch(ones), plain.select1_batch(ones))
        assert np.array_equal(rrr.select0_batch(zeros), np.flatnonzero(bits == 0) + 1)
        assert np.array_equal(rrr.select0_batch(zeros), plain.select0_batch(zeros))


# ---------------------------------------------------------------------------
# the rrr block decoder against the bit-serial reference
# ---------------------------------------------------------------------------

def _codes_of_classes(blen: int, seed: int) -> list[tuple[int, int]]:
    """(code, class) pairs: every class at codes 0, 1, C-2, C-1 and two random."""
    rnd = random.Random(seed)
    cases = []
    for k in range(blen + 1):
        c = math.comb(blen, k)
        codes = {0, 1, c - 2, c - 1, rnd.randrange(c), rnd.randrange(c)}
        cases += [(code, k) for code in sorted(codes) if 0 <= code < c]
    return cases


def _decode_in_chunks(cases, blen: int, chunk: int | None) -> np.ndarray:
    codes = np.array([code for code, _ in cases], dtype=np.uint64)
    classes = np.array([k for _, k in cases], dtype=np.int64)
    blens = np.full(len(cases), blen, dtype=np.int64)
    step = chunk or len(cases)
    return np.concatenate([
        bitvector._decode_words(codes[i:i + step], classes[i:i + step], blens[i:i + step])
        for i in range(0, len(cases), step)
    ])


def _expected_words(cases, blen: int) -> np.ndarray:
    return np.array([decode_block(code, k, blen) for code, k in cases], dtype=np.uint64)


@pytest.mark.parametrize("chunk", [1, 2, 33, None])
def test_decode_every_class(chunk):
    cases = _codes_of_classes(64, seed=1)
    got = _decode_in_chunks(cases, 64, chunk)
    assert np.array_equal(got, _expected_words(cases, 64))


@pytest.mark.parametrize("chunk", [7, None])
def test_decode_every_partial_length(chunk):
    for blen in range(1, 64):
        cases = _codes_of_classes(blen, seed=blen)
        got = _decode_in_chunks(cases, blen, chunk)
        assert np.array_equal(got, _expected_words(cases, blen)), blen


@pytest.mark.parametrize("size", [1, 2, 100, 512])
def test_decode_batch_sizes_with_repeats(size):
    pool = _codes_of_classes(64, seed=2)[::7]            # blocks of every class range
    pick = np.random.default_rng(size).integers(0, len(pool), size)   # with repeats
    cases = [pool[i] for i in pick]
    got = _decode_in_chunks(cases, 64, None)
    assert np.array_equal(got, _expected_words(cases, 64))


def _blocky_bits(nblocks: int, tail: int, rng) -> np.ndarray:
    """Blocks of random density, each holding at least one 1 and one 0."""
    dens = rng.uniform(0.02, 0.98, nblocks)
    bits = (rng.random((nblocks, 64)) < dens[:, None]).astype(np.uint8)
    bits[:, 0], bits[:, 1] = 1, 0
    return bits.ravel()[:64 * (nblocks - 1) + tail]


@pytest.mark.parametrize("distinct", [1, 40, 160, "all"])
def test_rrr_queries_decode_each_block_once(distinct, monkeypatch):
    # every query below has more lanes than _FEW_LANES, so it decodes
    # through _decode_words, which sees exactly `distinct` blocks; the
    # "all" case also repeats every block several times
    rng = np.random.default_rng(128)
    bits = _blocky_bits(168, tail=37, rng=rng)
    bv = BitVector(bits, mode="rrr")
    nb = bv._nblocks
    blocks = np.arange(nb) if distinct == "all" else np.sort(rng.choice(nb, distinct, replace=False))
    lanes = 3 * nb if distinct == "all" else max(2 * blocks.size, bitvector._FEW_LANES + 1)
    blk = np.concatenate([blocks, rng.choice(blocks, lanes - blocks.size)])
    blen = np.where(blk == nb - 1, 37, 64)
    pos = blk * 64 + rng.integers(0, blen)              # 0-based, inside the block

    decoded = []
    decode = bitvector._decode_words

    def spy(codes, classes, blens):
        decoded.append(codes.size)
        return decode(codes, classes, blens)

    monkeypatch.setattr(bitvector, "_decode_words", spy)
    rank = np.concatenate([[0], np.cumsum(bits)])
    assert np.array_equal(bv.rank1_batch(pos), rank[pos])
    assert np.array_equal(bv.access_batch(pos + 1), bits[pos])
    ones, zeros = np.flatnonzero(bits), np.flatnonzero(bits == 0)
    in_blocks1 = np.isin(ones >> 6, blk)
    in_blocks0 = np.isin(zeros >> 6, blk)
    k1 = rng.choice(np.flatnonzero(in_blocks1), lanes) + 1
    k0 = rng.choice(np.flatnonzero(in_blocks0), lanes) + 1
    k1[:blocks.size] = np.searchsorted(ones >> 6, blocks) + 1   # first one of each block
    k0[:blocks.size] = np.searchsorted(zeros >> 6, blocks) + 1
    assert np.array_equal(bv.select1_batch(k1), ones[k1 - 1] + 1)
    assert np.array_equal(bv.select0_batch(k0), zeros[k0 - 1] + 1)
    assert decoded == [blocks.size] * 4


def test_import_builds_no_decode_table():
    code = ("import numpy as np, upag, upag.bitvector as b\n"
            "before = b._fused_tables.cache_info().currsize\n"
            "b.BitVector([1, 0] * 100, mode='rrr').rank1_batch(np.arange(201))\n"
            "print(before, b._fused_tables.cache_info().currsize)\n")
    src = str(Path(upag.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0", "1"]
