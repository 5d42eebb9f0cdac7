import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upag.bitvector import BitVector
from upag.errors import OutOfRangeError
from upag.wavelet import WaveletTree


def check_against_reference(values, sigma, mode="rrr"):
    arr = np.asarray(values, dtype=np.int64)
    wt = WaveletTree(arr, sigma, mode=mode)
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
    values = rng.integers(0, 37, size=333)
    wt = WaveletTree(values, 37)
    back = WaveletTree.from_parts(wt.to_parts())
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
    plain = WaveletTree(values, 1024, mode="plain")
    assert plain.space_report()["payload_bits"] == plain.width * plain.length


@pytest.mark.parametrize("mode", ["plain", "rrr"])
def test_rank_batch_mixed_symbols(mode, rng):
    # one call mixing repeated, distinct and absent symbols, so the interval
    # walk is shared by several lanes of several codes at once
    sigma = 40
    values = rng.choice(np.arange(0, sigma, 3), size=500)   # 1, 2, 4, ... absent
    wt = WaveletTree(values, sigma, mode=mode)
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
    wt = WaveletTree(arr, big, mode=mode)
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
    wt = WaveletTree(values, sigma, mode=mode)
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
    wt = WaveletTree(vals, sigma=8, mode=mode)
    for s in (5, 6, 7, 8):
        wt.sigma_eff = s
        assert wt._codes_beyond() == int((vals >= s).sum())
    parts = wt.to_parts()
    parts["presence"] = BitVector([1, 1, 1, 1, 1, 0, 0, 0], mode="rrr").to_parts()
    with pytest.raises(ValueError, match="beyond the effective alphabet"):
        WaveletTree.from_parts(parts)
    # no levels: a non-empty string needs a present symbol
    empty = WaveletTree([], sigma=4, mode=mode).to_parts()
    empty["length"] = 3
    with pytest.raises(ValueError, match="beyond the effective alphabet"):
        WaveletTree.from_parts(empty)
