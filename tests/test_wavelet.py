import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upag.bitvector import BitVector
from upag.errors import OutOfRangeError
from upag.wavelet import WaveletTree


def with_level_mode(wt, mode):
    """``wt``, or for ``mode="plain"`` the same matrix on plain bitvectors
    of the same level bits, as a file may carry them."""
    if mode == "rrr":
        return wt
    return WaveletTree.from_levels(wt.sigma, wt.length, wt._presence,
                                   [BitVector(lvl.to_array()) for lvl in wt._levels])


def make(values, sigma, mode="rrr"):
    return with_level_mode(WaveletTree(values, sigma), mode)


def check_against_reference(values, sigma, mode="rrr"):
    arr = np.asarray(values, dtype=np.int64)
    wt = make(arr, sigma, mode)
    assert wt.length == arr.size
    assert wt.sigma_eff == len(set(arr.tolist()))
    assert np.array_equal(wt.to_array(), arr)
    # rank at every prefix for every symbol that occurs, plus a missing one
    symbols = sorted(set(arr.tolist()))[:6]
    for c in symbols:
        prefs = np.arange(arr.size + 1)
        expect = np.concatenate([[0], np.cumsum(arr == c)])
        got = wt.rank_batch(np.full(prefs.size, c), prefs)
        assert np.array_equal(got, expect)
        occ = int((arr == c).sum())
        assert wt.occ(c) == occ
        if occ:
            ks = np.arange(1, occ + 1)
            expect_pos = np.nonzero(arr == c)[0] + 1
            assert np.array_equal(wt.select_batch(np.full(occ, c), ks), expect_pos)
    return wt


@pytest.mark.parametrize("mode", ["plain", "rrr"])
@pytest.mark.parametrize("sigma,length", [
    (1, 0), (1, 5), (2, 100), (5, 1), (7, 200), (64, 300), (100, 64),
])
def test_random_sequences(mode, sigma, length, rng):
    values = rng.integers(0, sigma, size=length)
    check_against_reference(values, sigma, mode)


def test_sparse_alphabet(rng):
    # huge alphabet, few distinct symbols: width must track sigma_eff
    values = rng.choice([3, 1000, 65535, 9], size=500)
    wt = check_against_reference(values, 1 << 16)
    assert wt.sigma_eff == 4
    assert wt.width == 2


def test_single_distinct_symbol():
    wt = check_against_reference([7] * 40, 10)
    assert wt.width == 0
    assert wt.rank(7, 25) == 25
    assert wt.select(7, 13) == 13
    assert wt.rank(3, 40) == 0


def test_known_sequence_queries():
    seq = [0, 0, 1, 1, 1, 1, 2, 2, 4, 4]
    wt = WaveletTree(seq, 6)
    assert wt.rank(1, 6) == 4
    assert wt.select(4, 1) == 9
    assert wt.access(7) == 2
    assert wt.occ(3) == 0


def test_interval_rank_counts_adjacency_style():
    seq = [5, 5, 2, 7, 2, 2, 9, 5]
    wt = WaveletTree(seq, 12)
    # occurrences of 2 inside positions 3..6 (1-based, inclusive)
    assert wt.rank(2, 6) - wt.rank(2, 2) == 3


def test_errors():
    wt = WaveletTree([1, 2, 1], 4)
    with pytest.raises(OutOfRangeError):
        wt.rank(4, 1)
    with pytest.raises(OutOfRangeError):
        wt.rank(-1, 1)
    with pytest.raises(OutOfRangeError):
        wt.rank(1, 4)
    with pytest.raises(OutOfRangeError):
        wt.select(1, 3)
    with pytest.raises(OutOfRangeError):
        wt.select(3, 1)       # symbol in range but absent
    with pytest.raises(OutOfRangeError):
        wt.access(0)
    with pytest.raises(OutOfRangeError):
        WaveletTree([5], 5)


def test_empty_sequence():
    wt = WaveletTree([], 10)
    assert wt.length == 0 and wt.sigma_eff == 0 and wt.width == 0
    assert wt.rank(3, 0) == 0
    with pytest.raises(OutOfRangeError):
        wt.select(3, 1)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_rank_select_inversion(data):
    sigma = data.draw(st.integers(1, 40))
    values = data.draw(st.lists(st.integers(0, sigma - 1), min_size=1, max_size=200))
    wt = WaveletTree(values, sigma)
    arr = np.array(values)
    c = data.draw(st.sampled_from(values))
    occ = int((arr == c).sum())
    k = data.draw(st.integers(1, occ))
    pos = wt.select(c, k)
    assert wt.rank(c, pos) == k
    assert wt.rank(c, pos - 1) == k - 1
    assert wt.access(pos) == c


def test_parts_roundtrip(rng):
    # the serialized parts are those of the presence map and the levels
    values = rng.integers(0, 37, size=333)
    wt = WaveletTree(values, 37)
    rebuilt = [BitVector.from_parts(**bv.to_parts()) for bv in [wt._presence] + wt._levels]
    back = WaveletTree.from_levels(37, 333, rebuilt[0], rebuilt[1:])
    assert np.array_equal(back.to_array(), values)
    assert back.space_report() == wt.space_report()
    assert back.select(int(values[5]), 1) == wt.select(int(values[5]), 1)


def test_space_report_shape(rng):
    values = rng.integers(0, 1000, size=5000)
    wt = WaveletTree(values, 1024)
    rep = wt.space_report()
    assert rep["width"] == wt.width
    assert rep["payload_bits"] > 0
    assert rep["directory_bits"] > 0
    assert rep["presence_bits"] > 0
    # plain levels cost exactly length bits each
    plain = make(values, 1024, "plain")
    assert plain.space_report()["payload_bits"] == plain.width * plain.length


@pytest.mark.parametrize("mode", ["plain", "rrr"])
def test_rank_batch_mixed_symbols(mode, rng):
    # one call mixing repeated, distinct and absent symbols, so the interval
    # walk is shared by several lanes of several codes at once
    sigma = 40
    values = rng.choice(np.arange(0, sigma, 3), size=500)   # 1, 2, 4, ... absent
    wt = make(values, sigma, mode)
    cs = np.concatenate([np.full(50, values[0]), rng.integers(0, sigma, 300),
                         np.arange(sigma)])
    prefs = rng.integers(0, values.size + 1, cs.size)
    prefs[:20] = 0
    prefs[20:40] = values.size
    want = np.array([int((values[:p] == c).sum()) for c, p in zip(cs, prefs)])
    assert np.array_equal(wt.rank_batch(cs, prefs), want)


def _select_reference(arr, cs, ks):
    """Positions of the k-th occurrences, or the error for the first lane
    whose k lies outside 1..occ."""
    for c, k in zip(cs, ks):
        occ = int((arr == c).sum())
        if not 1 <= k <= occ:
            return f"symbol {c} has only {occ} occurrences"
    return np.array([np.flatnonzero(arr == c)[k - 1] + 1 for c, k in zip(cs, ks)])


@pytest.mark.parametrize("mode", ["plain", "rrr"])
@pytest.mark.parametrize("sigma,length", [(1, 9), (2, 50), (40, 700)])
def test_select_batch_mixed_symbols_and_bounds(mode, sigma, length, rng):
    # present and absent symbols in one call, k in {0, 1, occ, occ + 1}
    arr = rng.integers(0, sigma, size=length)
    arr[arr == sigma // 2] = 0                    # one symbol left absent
    big = sigma + 3
    wt = make(arr, big, mode)
    syms = np.arange(big)
    occ = np.bincount(arr, minlength=big)
    for trial in range(40):
        cs = rng.choice(syms, size=int(rng.integers(1, 30)))
        pick = rng.integers(0, 4, cs.size)
        ks = np.choose(pick, [np.zeros_like(cs), np.ones_like(cs), occ[cs], occ[cs] + 1])
        if trial % 2:                             # half the calls are all in range
            ok = (ks >= 1) & (ks <= occ[cs])
            cs, ks = cs[ok], ks[ok]
        want = _select_reference(arr, cs.tolist(), ks.tolist())
        if isinstance(want, str):
            with pytest.raises(OutOfRangeError) as err:
                wt.select_batch(cs, ks)
            assert str(err.value) == want
        else:
            assert np.array_equal(wt.select_batch(cs, ks), want)


@pytest.mark.parametrize("mode", ["plain", "rrr"])
@pytest.mark.parametrize("sigma,length", [(1, 0), (1, 7), (2, 50), (9, 400), (300, 2000)])
def test_positions_match_select(mode, sigma, length, rng):
    values = rng.integers(0, sigma, size=length)
    wt = make(values, sigma, mode)
    for c in range(min(sigma, 12)):
        want = np.flatnonzero(values == c) + 1
        got = wt.positions(c)
        assert np.array_equal(got, want), c
        if want.size:
            assert np.array_equal(got, wt.select_batch(np.full(want.size, c),
                                                       np.arange(1, want.size + 1)))
    with pytest.raises(OutOfRangeError):
        wt.positions(sigma)
    with pytest.raises(OutOfRangeError):
        wt.positions(-1)


@pytest.mark.parametrize("mode", ["plain", "rrr"])
def test_codes_beyond_sigma_eff_are_counted_and_rejected(mode):
    # all eight symbols present, so codes equal symbols; lowering sigma_eff
    # inside the same width makes codes >= sigma_eff stray ones
    vals = np.random.default_rng(5).integers(0, 8, 300)
    vals[:8] = np.arange(8)
    wt = make(vals, 8, mode)
    for s in (5, 6, 7, 8):
        wt.sigma_eff = s
        assert wt._codes_beyond() == int((vals >= s).sum())
    five = BitVector([1, 1, 1, 1, 1, 0, 0, 0], mode="rrr")
    with pytest.raises(ValueError, match="beyond the effective alphabet"):
        WaveletTree.from_levels(8, 300, five, wt._levels)
    # no levels: a non-empty string needs a present symbol
    empty = make([], 4, mode)
    assert empty._codes_beyond() == 0
    with pytest.raises(ValueError, match="beyond the effective alphabet"):
        WaveletTree.from_levels(4, 3, empty._presence, [])


@pytest.mark.parametrize("sigma", [5, 6, 7, 8, 9, 300])
@pytest.mark.parametrize("length", [63, 64, 65, 1023, 1024, 1025, 2049, 3 * 1024 + 1])
def test_block_and_superblock_edges(sigma, length):
    # level l + 1 starts its ones at z_l, so a position near a 64-bit block
    # or a 1,024-bit superblock edge at one level lands elsewhere at the next
    rng = np.random.default_rng(sigma * 10_000 + length)
    values = rng.integers(0, sigma, size=length)
    k = min(sigma, length)
    values[:k] = np.arange(k)
    wt = check_against_reference(values, sigma)
    for c in (0, sigma - 1):
        want = np.flatnonzero(values == c) + 1
        assert np.array_equal(wt.positions(c), want)
    edges = np.unique(np.clip([1, 63, 64, 65, 1023, 1024, 1025, length], 1, length))
    assert np.array_equal(wt.access_batch(edges), values[edges - 1])


@pytest.mark.parametrize("zeros", [63, 64, 65, 1023, 1024, 1025])
def test_zero_count_on_block_edges(zeros):
    # z_0 codes below 4 and the rest above, so level 1's ones start exactly
    # at, before or after a block or superblock edge
    rng = np.random.default_rng(zeros)
    low, high = rng.integers(0, 4, zeros), rng.integers(4, 8, 2100 - zeros)
    low[:4], high[:4] = np.arange(4), np.arange(4, 8)
    wt = check_against_reference(rng.permutation(np.concatenate([low, high])), 8)
    assert wt._zeros[0] == zeros


def matrix_levels(codes, width):
    """Bits of every level, and the sequence each level reads, by the
    definition: level l + 1 reads level l's sequence stably partitioned
    into the codes whose level-l bit is 0, then those whose bit is 1."""
    seq, levels, seqs = list(codes), [], []
    for lvl in range(width):
        bits = [(c >> (width - 1 - lvl)) & 1 for c in seq]
        levels.append(bits)
        seqs.append(seq)
        seq = [c for c, b in zip(seq, bits) if b == 0] + [c for c, b in zip(seq, bits) if b == 1]
    return levels, seqs


@pytest.mark.parametrize("sigma,length", [(2, 9), (5, 70), (8, 300), (13, 1100), (200, 2100)])
def test_levels_are_stable_partitions(sigma, length, rng):
    values = rng.integers(0, sigma, size=length)
    wt = WaveletTree(values, sigma)
    codes = np.searchsorted(np.unique(values), values)          # dense codes
    levels, seqs = matrix_levels(codes.tolist(), wt.width)
    assert len(wt._levels) == wt.width == len(levels)
    for lvl, (bv, z) in enumerate(zip(wt._levels, wt._zeros)):
        assert bv.to_array().tolist() == levels[lvl], lvl
        assert z == levels[lvl].count(0)
        if lvl:
            prev = np.array(seqs[lvl - 1])
            bit = np.array(levels[lvl - 1])
            assert seqs[lvl] == np.concatenate([prev[bit == 0], prev[bit == 1]]).tolist()
