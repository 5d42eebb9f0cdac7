from collections import deque

import numpy as np
import pytest
from huffman_reference import huffman_cost, matrix_codes, matrix_levels
from hypothesis import given, settings
from hypothesis import strategies as st

from upag import bptree, serialize, wavelet
from upag.bitvector import BitVector
from upag.errors import FormatError, OutOfRangeError
from upag.pa_gen import generate
from upag.ugraph import CompressedGraph
from upag.wavelet import WaveletTree, _code_lengths, _fall, _rise


def reassembled(wt: WaveletTree) -> WaveletTree:
    """``wt`` rebuilt the way the loader does it: from copies of its level
    bits, its map's level bits and the map's key table."""
    def copies(m):
        return [BitVector.from_parts(**bv.to_parts()) for bv in m._levels]

    keys = WaveletTree.from_levels(wt._map.sigma, wt._map.length, copies(wt._map), wt._map._table.copy())
    return WaveletTree.from_levels(wt.sigma, wt.length, copies(wt), keys)


# Each case runs on the matrix as built ("rrr") and as reassembled from
# copies of its stored parts ("plain"), the way the loader builds it.  The
# ids are those of the two level modes the cases covered before every level
# was plain.
FORMS = [pytest.param("reassembled", id="plain"), pytest.param("built", id="rrr")]


def make(values, sigma, form="built"):
    wt = WaveletTree(values, sigma)
    return reassembled(wt) if form == "reassembled" else wt


def check_against_reference(values, sigma, form="built"):
    arr = np.asarray(values, dtype=np.int64)
    wt = make(arr, sigma, form)
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


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("sigma,length", [
    (1, 0), (1, 5), (2, 100), (5, 1), (7, 200), (64, 300), (100, 64),
])
def test_random_sequences(form, sigma, length, rng):
    values = rng.integers(0, sigma, size=length)
    check_against_reference(values, sigma, form)


def test_sparse_alphabet(rng):
    # huge alphabet, few distinct symbols: the levels track the present
    # symbols' counts, not sigma
    values = rng.choice([3, 1000, 65535, 9], size=500)
    wt = check_against_reference(values, 1 << 16)
    assert wt.sigma_eff == 4
    assert wt.width <= 3


def test_single_distinct_symbol():
    # a lone symbol's code is empty: no level, and the map tells it from
    # an absent one
    wt = check_against_reference([7] * 40, 10)
    assert wt.width == 0
    assert wt.rank(7, 25) == 25
    assert wt.select(7, 13) == 13
    assert wt.rank(3, 40) == 0
    assert wt.symbol_counts() == {7: 40}


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
    with pytest.raises(TypeError):
        WaveletTree([1.5, 2.7], 3)    # not truncated to [1, 2]


BEYOND_INT64 = [2 ** 63, -(2 ** 63) - 1, 10 ** 23]


@pytest.mark.parametrize("big", BEYOND_INT64)
def test_rank_beyond_int64_is_out_of_range(big):
    wt = WaveletTree([1, 2, 1], 4)
    for args in ((big, 1), (1, big)):
        with pytest.raises(OutOfRangeError):
            wt.rank(*args)
        with pytest.raises(OutOfRangeError):
            wt.rank_batch(*([a] for a in args))


@pytest.mark.parametrize("big", BEYOND_INT64)
def test_select_beyond_int64_is_out_of_range(big):
    wt = WaveletTree([1, 2, 1], 4)
    for args in ((big, 1), (1, big)):
        with pytest.raises(OutOfRangeError):
            wt.select(*args)
        with pytest.raises(OutOfRangeError):
            wt.select_batch(*([a] for a in args))
    with pytest.raises(OutOfRangeError):
        wt.positions(big)
    with pytest.raises(OutOfRangeError):
        wt.access_batch([big])


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
    # the stored parts are the level bits, the map's level bits and its
    # key table; everything else is rebuilt
    values = rng.integers(0, 37, size=333)
    wt = WaveletTree(values, 37)
    back = reassembled(wt)
    assert np.array_equal(back.to_array(), values)
    assert back.space_report() == wt.space_report()
    assert back.select(int(values[5]), 1) == wt.select(int(values[5]), 1)


def test_space_report_shape(rng):
    values = rng.integers(0, 1000, size=5000)
    wt = WaveletTree(values, 1024)
    rep = wt.space_report()
    assert rep["width"] == wt.width
    assert rep["directory_bits"] > 0
    assert rep["presence_bits"] > 0
    # the payload is the Huffman cost: one level bit per code bit
    counts = np.bincount(values, minlength=1024)
    assert rep["payload_bits"] == sum(lvl.n for lvl in wt._levels) == huffman_cost(counts)
    assert rep["total_bits"] == rep["payload_bits"] + rep["directory_bits"] + rep["presence_bits"]


@pytest.mark.parametrize("form", FORMS)
def test_rank_batch_mixed_symbols(form, rng):
    # one call mixing repeated, distinct and absent symbols, so the leaf
    # walk is shared by several lanes of several leaves at once
    sigma = 40
    values = rng.choice(np.arange(0, sigma, 3), size=500)   # 1, 2, 4, ... absent
    wt = make(values, sigma, form)
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


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("sigma,length", [(1, 9), (2, 50), (40, 700)])
def test_select_batch_mixed_symbols_and_bounds(form, sigma, length, rng):
    # present and absent symbols in one call, k in {0, 1, occ, occ + 1}
    arr = rng.integers(0, sigma, size=length)
    arr[arr == sigma // 2] = 0                    # one symbol left absent
    big = sigma + 3
    wt = make(arr, big, form)
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


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("sigma,length", [(1, 0), (1, 7), (2, 50), (9, 400), (300, 2000)])
def test_positions_match_select(form, sigma, length, rng):
    values = rng.integers(0, sigma, size=length)
    wt = make(values, sigma, form)
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


@pytest.mark.parametrize("form", FORMS)
def test_codes_beyond_sigma_eff_are_counted_and_rejected(form):
    # symbols 0..4 occur and 5..7 do not: only the five present symbols
    # have a code, and they are what sigma_eff and the counts report
    vals = np.random.default_rng(5).integers(0, 5, 300)
    vals[:5] = np.arange(5)
    wt = make(vals, 8, form)
    assert wt.sigma_eff == 5
    assert sorted(_lengths_of(wt)) == [0, 1, 2, 3, 4]
    assert wt.symbol_counts() == {c: int((vals == c).sum()) for c in range(5)}
    # a map over more or fewer symbols than the alphabet gives codes beyond
    # it, or leaves symbols out, and is rejected
    for sigma in (7, 9):
        with pytest.raises(ValueError, match="does not span the alphabet"):
            WaveletTree.from_levels(sigma, wt.length, wt._levels, wt._map)
    # no levels: a non-empty string needs a present symbol
    empty = make([], 4, form)
    assert empty.sigma_eff == 0 and empty.symbol_counts() == {}
    with pytest.raises(ValueError, match="no present symbol"):
        WaveletTree.from_levels(4, 3, [], empty._map)


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


def first_one_falls(bv: BitVector) -> int:
    """Where the first 1 of a level lands on the next level: by the step
    rule, at the level's zero count."""
    q, bit = _fall(bv, np.flatnonzero(bv.to_array())[:1])
    assert bit.tolist() == [True]
    return int(q[0])


@pytest.mark.parametrize("zeros", [63, 64, 65, 1023, 1024, 1025])
def test_zero_count_on_block_edges(zeros):
    # two symbols get one-bit codes, the lower one bit 0, so the higher
    # one's leaf starts exactly at, before or after a block or superblock
    # edge of the partitioned level
    rng = np.random.default_rng(zeros)
    values = rng.permutation(np.repeat([2, 5], [zeros, 2100 - zeros]))
    wt = check_against_reference(values, 8)
    assert wt.width == 1 and first_one_falls(wt._levels[0]) == zeros


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("sigma,length", [(5, 63), (9, 1024), (300, 1025), (7, 2049), (300, 3 * 1024 + 1)])
def test_the_level_steps_invert_each_other_on_every_level(sigma, length, form):
    # on every level of the string and of its map, every position falls
    # and rises back, one lane at a time on block and superblock edges and
    # around z as well; a given bit broadcasts and moves no answer
    rng = np.random.default_rng(sigma * 10_000 + length)
    values = rng.integers(0, sigma, size=length)
    values[:min(sigma, length)] = np.arange(min(sigma, length))
    wt = make(values, sigma, form)
    for bv in wt._levels + wt._map._levels:
        p = np.arange(bv.n)
        q, bit = _fall(bv, p)
        assert np.array_equal(bit, bv.to_array().astype(bool))
        assert np.array_equal(_rise(bv, q.copy()), p)
        z = bv.n - bv.ones
        assert np.array_equal(q[bit], z + np.arange(bv.ones)) and np.array_equal(q[~bit], np.arange(z))
        given, same = _fall(bv, p, bit)
        assert np.array_equal(given, q) and given.dtype == q.dtype and same is bit
        both = _fall(bv, np.stack((p, p[::-1])), [[False], [True]])[0]
        assert both.shape == (2, bv.n)
        assert np.array_equal(both[0], _fall(bv, p, False)[0])
        assert np.array_equal(both[1], _fall(bv, p[::-1], True)[0])
        edges = np.unique(np.clip([0, 63, 64, 65, 1023, 1024, 1025, z - 1, z, bv.n - 1], 0, bv.n - 1))
        for e in edges.tolist():
            assert _rise(bv, q[e:e + 1].copy()).tolist() == [e]


# ---------------------------------------------------------------------------
# the code: Huffman lengths, and levels against the definitions
# ---------------------------------------------------------------------------

def fibonacci_counts(k: int) -> np.ndarray:
    fib = [1, 1]
    while len(fib) < k:
        fib.append(fib[-1] + fib[-2])
    return np.array(fib[:k])


COUNT_KINDS = {
    "random": lambda rng: rng.integers(0, 50, int(rng.integers(2, 300))),
    "zipf": lambda rng: np.bincount(np.minimum(rng.zipf(1.4, 3000), 500)),
    "fibonacci": lambda rng: rng.permutation(fibonacci_counts(int(rng.integers(2, 17)))),
    "equal": lambda rng: np.full(int(rng.integers(2, 1000)), int(rng.integers(1, 9))),
    "one": lambda rng: np.array([0, 0, int(rng.integers(1, 9))]),
    "empty": lambda rng: np.zeros(int(rng.integers(1, 5)), dtype=np.int64),
}


DEEP = {"fibonacci_deep": lambda rng: rng.permutation(fibonacci_counts(int(rng.integers(30, 46))))}


@pytest.mark.parametrize("kind", {**COUNT_KINDS, **DEEP})
def test_code_lengths_are_optimal_and_complete(kind):
    rng = np.random.default_rng(len(kind))
    for _ in range(25):
        counts = {**COUNT_KINDS, **DEEP}[kind](rng)
        lengths = _code_lengths(counts)
        live = counts > 0
        assert np.array_equal(lengths >= 0, live)
        assert int((lengths[live] * counts[live]).sum()) == huffman_cost(counts)
        if live.sum() >= 2:                                     # Kraft equality
            top = int(lengths.max())
            assert sum(1 << (top - int(n)) for n in lengths[live]) == 1 << top
        else:
            assert np.all(lengths[live] == 0)


def test_code_lengths_loop_over_runs_not_symbols(monkeypatch):
    # 2^16 symbols of three distinct counts: a few dozen merge steps, where
    # a heap takes one per symbol
    steps = []

    class Counting(deque):
        def append(self, item):
            steps.append(item)
            super().append(item)

    monkeypatch.setattr(wavelet, "deque", Counting)
    counts = np.repeat([1, 2, 3], [30000, 20000, 15536])
    lengths = _code_lengths(counts)
    assert int((lengths * counts).sum()) == huffman_cost(counts)
    assert 0 < len(steps) < 100


def _lengths_of(wt: WaveletTree) -> dict[int, int]:
    """Code length of every present symbol, read from the structure."""
    depth = wt._leaf_of(np.arange(wt.sigma))[0]
    return {s: int(d) for s, d in enumerate(depth) if d >= 0}


@pytest.mark.parametrize("kind", ["random", "zipf", "fibonacci", "one"])
def test_levels_match_the_definition_and_endings_form_each_tail(kind):
    rng = np.random.default_rng(7)
    for _ in range(15):
        counts = COUNT_KINDS[kind](rng)
        values = rng.permutation(np.repeat(np.arange(counts.size), counts))
        wt = WaveletTree(values, counts.size)
        lengths = _lengths_of(wt)
        assert lengths == {s: int(n) for s, n in enumerate(_code_lengths(counts)) if n >= 0}
        levels, tails = matrix_levels(values.tolist(), matrix_codes(lengths))
        assert all(tails)
        assert [bv.to_array().tolist() for bv in wt._levels] == levels
        assert [first_one_falls(bv) for bv in wt._levels] == [lvl.count(0) for lvl in levels]


@pytest.mark.parametrize("sigma,length", [(2, 9), (5, 70), (8, 300), (13, 1100), (200, 2100)])
def test_levels_are_stable_partitions(sigma, length, rng):
    # each level is its predecessor stably partitioned by the bit just
    # read, zeros first, minus a tail: the elements whose code ended
    values = rng.integers(0, sigma, size=length)
    wt = WaveletTree(values, sigma)
    codes = matrix_codes(_lengths_of(wt))
    levels, tails = matrix_levels(values.tolist(), codes)
    assert all(tails)
    assert len(wt._levels) == wt.width == len(levels)
    for lvl, bv in enumerate(wt._levels):
        assert bv.to_array().tolist() == levels[lvl], lvl
        assert first_one_falls(bv) == levels[lvl].count(0)
        if lvl:
            assert bv.n <= wt._levels[lvl - 1].n


# ---------------------------------------------------------------------------
# every query against a naive scan, over strings of every shape
# ---------------------------------------------------------------------------

def _string(kind: str, data) -> tuple[np.ndarray, int]:
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "sparse":
        sigma = 1 << 20
        values = rng.choice(rng.integers(0, sigma, 7), size=int(rng.integers(1, 300)))
        return values, sigma
    counts = COUNT_KINDS[kind](rng)
    values = rng.permutation(np.repeat(np.arange(counts.size), counts))
    return values, counts.size + int(rng.integers(0, 3))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_queries_match_a_naive_scan(data):
    kind = data.draw(st.sampled_from(["random", "zipf", "fibonacci", "one", "empty", "sparse"]))
    values, sigma = _string(kind, data)
    wt = WaveletTree(values, sigma)
    n = values.size
    assert np.array_equal(wt.to_array(), values)
    present = np.unique(values)
    absent = np.setdiff1d(np.arange(min(sigma, 64)), present)[:3]
    cs = np.concatenate([present[:20], absent])
    pos = np.unique(np.concatenate([[0, n], np.random.default_rng(n).integers(0, n + 1, 30)]))
    lane_c, lane_p = np.repeat(cs, pos.size), np.tile(pos, cs.size)
    want = np.array([int((values[:p] == c).sum()) for c, p in zip(lane_c, lane_p)])
    assert np.array_equal(wt.rank_batch(lane_c, lane_p), want)
    # counts over ranges [lo, hi), both ends walked at once
    lo, hi = np.sort(np.stack((lane_p, np.tile(pos[::-1], cs.size))), axis=0)
    want = np.array([int((values[a:b] == c).sum()) for c, a, b in zip(lane_c, lo, hi)])
    assert np.array_equal(wt._count(lane_c, lo, hi), want)
    for c in cs.tolist():
        where = np.flatnonzero(values == c) + 1
        assert np.array_equal(wt.positions(c), where)
        if where.size:
            assert np.array_equal(wt.select_batch(np.full(where.size, c),
                                                  np.arange(1, where.size + 1)), where)
    assert wt.symbol_counts() == {int(c): int((values == c).sum()) for c in present}
    # counts by leaf coordinates, on the string (beside a map) and on its map
    # (beside a key table), as built and as the loader reassembles them
    counts = np.bincount(values, minlength=sigma)
    key_counts = np.bincount(_code_lengths(counts) + 1, minlength=wt._map.sigma)
    for m in (wt, serialize._Reader(serialize._wavelet(wt)).wavelet()):
        assert np.array_equal(m._counts(), counts)
        assert np.array_equal(m._map._counts(), key_counts)


# ---------------------------------------------------------------------------
# reassembly validates what it rebuilds
# ---------------------------------------------------------------------------

def _small(keys) -> WaveletTree:
    """A map matrix (keys kept in a table) over the given keys."""
    keys = np.asarray(keys, dtype=np.int64)
    m = WaveletTree.__new__(WaveletTree)
    m._build(keys, int(keys.max()) + 1, small=True)
    return m


def test_reassembly_rejects_a_code_without_occurrence(monkeypatch):
    # symbol 3 never occurs, yet the lengths give it a two-bit code (the
    # map over the keys keeps its own lengths)
    lengths = wavelet._code_lengths
    monkeypatch.setattr(wavelet, "_code_lengths", lambda counts: np.array([2, 2, 2, 2, -1])
                        if counts.size == 5 else lengths(counts))
    wt = WaveletTree([0, 1, 1, 2, 2, 2], 5)
    assert wt._map._table.size == 4
    monkeypatch.undo()
    with pytest.raises(ValueError, match="never occurs"):
        reassembled(wt)


def test_reassembly_rejects_lengths_breaking_kraft():
    wt = WaveletTree([0, 1, 1, 2, 2, 2], 4)
    wt._map = _small([1 + 1, 1 + 2, 1 + 3, 0])          # 1/2 + 1/4 + 1/8 < 1
    with pytest.raises(ValueError, match="Kraft"):
        reassembled(wt)
    wt._map = _small([1 + 1, 1 + 1, 1 + 1, 0])          # 3/2 > 1
    with pytest.raises(ValueError, match="Kraft"):
        reassembled(wt)
    wt._map = _small([1 + 1, 1 + 1, 1 + 1, 1 + 1])      # 2 > 1, every depth even
    with pytest.raises(ValueError, match="Kraft"):
        reassembled(wt)
    wt._map = _small([1 + 0, 1 + 0, 0, 0])              # two symbols at the root
    with pytest.raises(ValueError, match="Kraft"):
        reassembled(wt)


def test_reassembly_rejects_a_level_length_off_the_shape():
    wt = WaveletTree([0, 1, 1, 2, 2, 2, 3, 3], 4)
    for lvl in range(wt.width):
        bits = wt._levels[lvl].to_array()
        for wrong in (bits[:-1], np.append(bits, 0)):
            broken = WaveletTree.__new__(WaveletTree)
            broken.__dict__.update(wt.__dict__)
            broken._levels = list(wt._levels)
            broken._levels[lvl] = BitVector(wrong)
            with pytest.raises(ValueError, match="level length"):
                reassembled(broken)


def test_reassembly_rejects_a_string_without_present_symbol():
    # a one-symbol string keeps no level; if its map marked the symbol
    # absent, nothing would tell which symbol the string holds
    wt = WaveletTree([2, 2, 2], 4)
    assert wt.width == 0 and reassembled(wt).to_array().tolist() == [2, 2, 2]
    wt._map = _small([0, 0, 0, 0])
    with pytest.raises(ValueError, match="no present symbol"):
        reassembled(wt)


@pytest.mark.parametrize("kind", ["zipf", "fibonacci", "one", "empty"])
def test_path_rows_reach_the_deepest_lane(kind):
    # one row per level down to the deepest lane, each the lane's code bit
    # (False from its depth on); no row for an empty or all-absent batch
    rng = np.random.default_rng(3)
    counts = COUNT_KINDS[kind](rng)
    wt = WaveletTree(rng.permutation(np.repeat(np.arange(counts.size), counts)), counts.size)
    codes = matrix_codes(_lengths_of(wt))
    for cs in (np.arange(counts.size), rng.integers(0, counts.size, 7),
               np.flatnonzero(counts == 0), np.zeros(0, dtype=np.int64)):
        depth, node, _ = wt._leaf_of(cs)
        bits = wavelet._path(wt._K, depth, node)
        assert bits.shape == (depth.max(initial=0), cs.size)
        for lane, c in enumerate(cs.tolist()):
            code = [int(b) for b in codes.get(c, "")]
            assert bits[:, lane].tolist() == code + [False] * (bits.shape[0] - len(code))


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", ["random", "zipf", "fibonacci", "one"])
def test_walks_on_shuffled_lanes_of_mixed_depth_match_one_lane_walks(kind, form):
    # every symbol three times over, shuffled: lanes of every depth, absent
    # ones (depth -1) and, for a lone symbol, depth-0 ones; each lane walks
    # down and up as it does alone, to the naive count and position
    rng = np.random.default_rng(7)
    counts = COUNT_KINDS[kind](rng)
    values = rng.permutation(np.repeat(np.arange(counts.size), counts))
    wt = make(values, counts.size, form)
    cs = rng.permutation(np.repeat(np.arange(counts.size), 3))
    depth, node, present = wt._leaf_of(cs)
    assert np.array_equal(depth == -1, counts[cs] == 0)
    assert (depth == 0).any() == (kind == "one")
    bits = wavelet._path(wt._K, depth, node)
    lo = rng.integers(0, values.size + 1, cs.size)
    ends = np.stack((lo, rng.integers(lo, values.size + 1)))
    down = wt._descend(depth, bits, ends)
    start = wt._leaves(depth, node)[0]
    k = rng.integers(0, np.maximum(counts[cs], 1))       # an occurrence in the leaf
    up = wt._ascend(depth, start + k)
    for lane, c in enumerate(cs.tolist()):
        one = slice(lane, lane + 1)
        alone = wavelet._path(wt._K, depth[one], node[one])
        assert np.array_equal(wt._descend(depth[one], alone, ends[:, one]), down[:, one])
        assert np.array_equal(wt._ascend(depth[one], start[one] + k[one]), up[one])
        if present[lane]:
            s, e = down[:, lane]
            assert e - s == np.count_nonzero(values[ends[0, lane]:ends[1, lane]] == c)
            assert up[lane] == np.flatnonzero(values == c)[k[lane]]
        else:                                            # an absent lane walks nowhere
            assert np.array_equal(down[:, lane], ends[:, lane]) and up[lane] == start[lane] + k[lane]


# ---------------------------------------------------------------------------
# the map's leaf tables: bounds, nodes and order, kept from install
# ---------------------------------------------------------------------------

def _small_matrices(kind: str, form: str) -> list[WaveletTree]:
    """Small matrices (keys kept in a table) of a count kind: one over a
    string of that kind and the code-length map of such a string, as built
    or as reassembled from copies of their parts."""
    rng = np.random.default_rng(11)
    out = []
    for _ in range(6):
        counts = COUNT_KINDS[kind](rng)
        values = rng.permutation(np.repeat(np.arange(counts.size), counts))
        over = WaveletTree.__new__(WaveletTree)
        over._build(values, counts.size, small=True)
        for m in (over, WaveletTree(values, counts.size)._map):
            if form == "reassembled":
                m = WaveletTree.from_levels(m.sigma, m.length, [
                    BitVector.from_parts(**bv.to_parts()) for bv in m._levels], m._table.copy())
            out.append(m)
    return out


def _key_leaves(m: WaveletTree) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Present symbols of a small matrix, with the depth, node and leaf
    number of each one's leaf."""
    present = np.flatnonzero(m._table)
    depth = m._table[present].astype(np.int64) - 1
    node = m._nodes[present].astype(np.int64)
    return present, depth, node, m._leaf_number(depth, node)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_map_leaf_bounds_match_the_descent(kind, form):
    for m in _small_matrices(kind, form):
        present, depth, node, leaf = _key_leaves(m)
        assert np.array_equal(np.sort(leaf), np.arange(m._bounds.shape[1]))   # each leaf once
        ends = np.array([[0], [m.length]]).repeat(present.size, axis=1)
        walked = m._descend(depth, wavelet._path(m._K, depth, node), ends)
        assert np.array_equal(m._bounds[:, leaf], walked)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_map_leaf_nodes_and_order_match_the_key_table(kind, form):
    for m in _small_matrices(kind, form):
        assert np.array_equal(m._nodes, wavelet._leaf_nodes(m._table.astype(np.int64), m._K))
        order = np.argsort(m._table, kind="stable")
        assert np.array_equal(m._order, order[m._table[order] > 0])
        present, _, _, leaf = _key_leaves(m)
        assert np.array_equal(m._order[leaf], present)
        for a in (m._first, m._bounds, m._nodes, m._order):    # resident: narrow
            assert a.dtype == wavelet._narrow(a.astype(np.int64)).dtype


@pytest.mark.parametrize("values, dtype", [
    ([], np.int8), ([-128, 127], np.int8), ([0, 128], np.int16), ([-129], np.int16),
    ([2**15], np.int32), ([-2**31, 2**31 - 1], np.int32), ([2**31], np.int64)])
def test_narrow_keeps_every_entry_in_the_smallest_type(values, dtype):
    a = np.array(values, dtype=np.int64)
    got = wavelet._narrow(a)
    assert got.dtype == dtype and np.array_equal(got, a)


def test_map_bounds_are_walked_once_at_install(monkeypatch, rng):
    walks = []
    leaf_bounds = WaveletTree._leaf_bounds

    def counting(self):
        walks.append(self)
        return leaf_bounds(self)

    monkeypatch.setattr(WaveletTree, "_leaf_bounds", counting)
    values = np.minimum(rng.zipf(1.3, 3000), 400)
    wt = WaveletTree(values, 401)
    assert walks == [wt._map]
    walks.clear()
    back = reassembled(wt)                   # the map at install, the string to validate
    assert walks == [back._map, back]
    walks.clear()
    for m in (wt, back):
        # none per scalar or below-threshold call, on the string or its map
        c = int(values[0])
        assert m.select(c, 1) == 1 and m.rank(c, 1) == 1 and m.occ(c) == np.count_nonzero(values == c)
        assert m.access(1) == c and np.array_equal(m.access_batch(np.arange(1, 31)), values[:30])
        assert np.array_equal(m.positions(c), np.flatnonzero(values == c) + 1)
        assert m._map.select(m._map.access(1), 1) == 1
        keys = m._map.to_array()
        assert np.array_equal(m._map._counts(), np.bincount(keys, minlength=m._map.sigma))
        assert walks == []
        # exactly one per whole-alphabet call on the string
        for call, want in ((m.to_array, values),
                           (m._counts, np.bincount(values, minlength=m.sigma))):
            assert np.array_equal(call(), want)
            assert walks == [m]
            walks.clear()
        pos = np.argsort(values, kind="stable")
        ks = np.arange(pos.size) - np.searchsorted(values[pos], values[pos]) + 1
        assert np.array_equal(m.select_batch(values[pos], ks), pos + 1)
        assert walks == [m]
        walks.clear()


def test_map_levels_off_the_shape_raise_value_error():
    g = CompressedGraph.from_dag(generate(3, 300, seed=1))
    m = g.targets._map
    assert m.width >= 2
    parts = [BitVector.from_parts(**bv.to_parts()) for bv in m._levels]
    wrong_levels = [parts[:-1], parts + parts[-1:]]
    for lvl in range(m.width):
        bits = m._levels[lvl].to_array()
        for wrong in (bits[:-1], np.append(bits, 0)):
            wrong_levels.append(parts[:lvl] + [BitVector(wrong)] + parts[lvl + 1:])
    for levels in wrong_levels:
        with pytest.raises(ValueError, match="level (count|length)"):
            WaveletTree.from_levels(m.sigma, m.length, levels, m._table.copy())
        # and on load, through the file's map
        broken = WaveletTree.__new__(WaveletTree)
        broken.__dict__.update(m.__dict__)
        broken._levels, broken.width = levels, len(levels)
        g.targets._map = broken
        with pytest.raises(FormatError, match="level (count|length)"):
            serialize.loads(serialize.dumps(g))


# ---------------------------------------------------------------------------
# the leaf index, and the routes that read it or every leaf's bounds
# ---------------------------------------------------------------------------

ROUTES = [(whole, bounds) for whole in (0, 10**9) for bounds in (0, 10**9)]


def _with_map(kind: str, form: str) -> list[tuple[WaveletTree, np.ndarray]]:
    """A string of a count kind over an alphabet two symbols past its
    own (so absent symbols lie beside present ones), and its map, each
    with the values it holds."""
    rng = np.random.default_rng(13)
    counts = COUNT_KINDS[kind](rng)
    values = rng.permutation(np.repeat(np.arange(counts.size), counts))
    wt = make(values, counts.size + 2, form)
    keys = _code_lengths(np.bincount(values, minlength=wt.sigma)) + 1
    return [(wt, values), (wt._map, keys)]


def _every_occurrence(values: np.ndarray, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(symbol, k, 0-based position) of every occurrence, shuffled."""
    pos = np.argsort(values, kind="stable")
    ks = np.arange(pos.size) - np.searchsorted(values[pos], values[pos]) + 1
    lanes = rng.permutation(pos.size)
    return values[pos][lanes], ks[lanes], pos[lanes]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", COUNT_KINDS)
def test_leaf_index_routes_agree_with_one_lane_walks(kind, form, monkeypatch):
    # each route forced on and off through its share: the batch answers
    # are the naive ones, and lane by lane those of one-lane walks, on the
    # string (absent symbols mixed in) and on its map
    rng = np.random.default_rng(29)
    for m, vals in _with_map(kind, form):
        n = vals.size
        counts = np.bincount(vals, minlength=m.sigma)
        p = rng.permutation(np.concatenate((np.arange(n), rng.integers(0, max(n, 1), n // 2))))
        cs = rng.permutation(np.repeat(np.arange(m.sigma), 2))
        sel_c, sel_k, sel_pos = _every_occurrence(vals, rng)
        depth, node, present = m._leaf_of(cs)
        assert (~present).any() or m._map is None           # a map may use every key
        monkeypatch.setattr(wavelet, "_INDEX_SHARE", 0)
        monkeypatch.setattr(wavelet, "_BOUNDS_SHARE", 0)
        probe = range(min(p.size, 120))
        down = [m._down(p[i:i + 1]) for i in probe]
        up = [m._ascend(m._leaf_at(leaf)[0], q) for leaf, q in down]
        lanes = range(min(cs.size, 120))
        leaves = [m._leaves(depth[i:i + 1], node[i:i + 1]) for i in lanes]
        for whole, bounds in ROUTES:
            monkeypatch.setattr(wavelet, "_INDEX_SHARE", whole)
            monkeypatch.setattr(wavelet, "_BOUNDS_SHARE", bounds)
            assert np.array_equal(m.access_batch(p + 1), vals[p])
            leaf, q = m._down(p)              # each lane's leaf number is its symbol's
            held = m._leaf_of(vals[p])
            assert np.array_equal(leaf, m._leaf_number(held[0], held[1]))
            at = m._leaf_at(leaf)[0]
            for i in probe:
                assert [int(leaf[i]), int(q[i])] == [int(a[0]) for a in down[i]]
                assert int(m._ascend(at[i:i + 1], q[i:i + 1])[0]) == int(up[i][0])
            assert np.array_equal(m._ascend(at, q), p)
            s, e = m._leaves(depth, node)
            assert np.array_equal(e - s, counts[cs]) and not s[~present].any()
            for i in lanes:
                assert np.array_equal(np.stack((s, e))[:, i:i + 1], leaves[i])
            assert np.array_equal(m.occ_batch(cs), counts[cs])
            assert np.array_equal(m.select_batch(sel_c, sel_k), sel_pos + 1)
            for c in (int(cs[0]), int(cs[np.argmin(present)])):
                assert np.array_equal(m.positions(c), np.flatnonzero(vals == c) + 1)
            for absent in np.flatnonzero(counts == 0)[:1].tolist():
                assert m.occ_batch([absent]).tolist() == [0] and m.occ(absent) == 0
                with pytest.raises(OutOfRangeError):
                    m.select_batch(np.append(sel_c, absent), np.append(sel_k, 1))


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("kind", ["random", "zipf", "fibonacci", "equal", "one", "empty"])
def test_leaf_index_lists_each_leaf_in_order_and_the_ascent_reads_it(kind, form):
    # the index lists every leaf by depth, then node, each leaf's
    # occurrences ascending; at every depth D >= 1 the positions of depth D
    # ([n_D, n_{D-1}) with n_d the length of level d) climb, walked, to
    # index[length - n_{D-1} + p - n_D]: the index is the ascent's answer
    for m, vals in _with_map(kind, form):
        index = m._leaf_index()
        assert index.dtype == np.int32
        present = np.flatnonzero(np.bincount(vals, minlength=m.sigma))
        depth, node, _ = m._leaf_of(present)
        by_leaf = present[np.argsort(m._leaf_number(depth, node))]
        want = [np.flatnonzero(vals == c) for c in by_leaf.tolist()]
        assert np.array_equal(index, np.concatenate(want) if want else np.zeros(0))
        n = [m.length] + [bv.n for bv in m._levels[1:]] + [0]
        for d in range(1, m.width + 1):
            p = np.arange(n[d], n[d - 1])
            walked = m._ascend(np.full(p.size, d), p)
            assert np.array_equal(index[m.length - n[d - 1] + p - n[d]], walked)
        # depth 0 (a lone symbol's root leaf) and absent lanes stay put
        q = np.arange(min(m.length, 5))
        assert np.array_equal(m._ascend(np.zeros(q.size, dtype=np.int64), q), q)
        assert np.array_equal(m._ascend(np.full(q.size, -1), q), q)


def test_the_leaf_index_is_built_once_per_whole_batch_and_never_for_small_ones(monkeypatch):
    g = CompressedGraph.from_dag(generate(3, 1 << 12, seed=4))
    wt = g.targets
    values = wt.to_array()
    vs = np.arange(g.n + 1)
    deg = g.degree_in_batch(vs)
    iv = np.repeat(vs, deg)
    ij = np.arange(iv.size) - np.repeat(np.cumsum(deg) - deg, deg) + 1
    sel_c, sel_k, _ = _every_occurrence(values, np.random.default_rng(1))
    built, leaf_index = [], WaveletTree._leaf_index

    def spy(self):
        built.append(self)
        return leaf_index(self)

    monkeypatch.setattr(WaveletTree, "_leaf_index", spy)
    whole = [wt.to_array,                # whole descents: access of every position
             lambda: g.out_neighbour_batch(np.repeat(vs[1:], 3), np.tile([1, 2, 3], g.n))]
    for call in whole:                   # once on the string, at most once on its map
        built.clear()
        call()
        assert [m for m in built if m is wt] == [wt] and set(map(id, built)) <= {id(wt), id(wt._map)}
        assert len(built) == len(set(map(id, built)))
    built.clear()
    rng = np.random.default_rng(2)
    lanes = wt.length // 64              # a walk batch's share of the string at 2^18
    v = rng.integers(1, g.n + 1, lanes)
    hub = int(np.argmax(deg))
    g.degree_in_batch(v)
    g.out_neighbour_batch(v, rng.integers(1, 4, lanes))
    g.in_neighbour_batch(iv[rng.integers(0, iv.size, lanes)], 1)
    wt.access_batch(rng.integers(1, wt.length + 1, lanes))
    wt.select_batch(sel_c[:lanes], sel_k[:lanes])
    wt.rank_batch(v, rng.integers(0, wt.length + 1, lanes))
    for c in (hub, int(values[0])):
        wt.access(1), wt.rank(c, wt.length), wt.select(c, 1), wt.occ(c), wt.positions(c)
        g.neighbours_in(c), g.neighbours_out(max(c, 1)), g.degree_in(c), g.in_neighbour(hub, 1)
    assert built == []


def test_whole_batch_ascents_build_no_leaf_index(monkeypatch):
    # select over every occurrence, every in-edge of a graph in one batch
    # and the positions of a symbol that holds most of its string climb
    # level by level: none builds the leaf index
    g = CompressedGraph.from_dag(generate(3, 1 << 12, seed=4))
    wt, rng = g.targets, np.random.default_rng(6)
    values = wt.to_array()
    vs = np.arange(g.n + 1)
    deg = g.degree_in_batch(vs)
    iv = np.repeat(vs, deg)
    ij = np.arange(iv.size) - np.repeat(np.cumsum(deg) - deg, deg) + 1
    sel_c, sel_k, sel_pos = _every_occurrence(values, rng)
    skewed = rng.permutation(np.concatenate((np.zeros(3000, np.int64), rng.integers(1, 40, 1000))))
    heavy = WaveletTree(skewed, 40)
    built, leaf_index = [], WaveletTree._leaf_index

    def spy(self):
        built.append(self)
        return leaf_index(self)

    monkeypatch.setattr(WaveletTree, "_leaf_index", spy)
    assert np.array_equal(wt.select_batch(sel_c, sel_k), sel_pos + 1)
    g.in_neighbour_batch(iv, ij)        # its answers: test_ugraph's whole-graph batch
    assert np.array_equal(heavy.positions(0), np.flatnonzero(skewed == 0) + 1)
    assert not [m for m in built if m is wt or m is heavy]      # a map may descend on its own


def test_only_select_and_access_sort_out_repeated_lanes(monkeypatch):
    # each distinct symbol of a select and each distinct leaf of an access
    # costs a walk of the map, so those two remove repeats, once per call;
    # every other batch, the tree's spans and the map's key reads work on
    # every lane, at whole-graph size too
    g = CompressedGraph.from_dag(generate(3, 1 << 12, seed=4))
    wt, rng = g.targets, np.random.default_rng(8)
    values = wt.to_array()
    vs = np.arange(g.n + 1)
    deg = g.degree_in_batch(vs)
    iv = np.repeat(vs, deg)
    ij = np.arange(iv.size) - np.repeat(np.cumsum(deg) - deg, deg) + 1
    sel_c, sel_k, sel_pos = _every_occurrence(values, rng)
    sorts, distinct = [], wavelet._distinct

    def spy(a):
        sorts.append(a.size)
        return distinct(a)

    monkeypatch.setattr(wavelet, "_distinct", spy)
    once = [(lambda: wt.access_batch(np.arange(1, wt.length + 1)), values),
            (lambda: wt.select_batch(sel_c, sel_k), sel_pos + 1),
            (lambda: g.out_neighbour_batch(np.repeat(vs[1:], 3), np.tile([1, 2, 3], g.n)), None),
            (lambda: g.in_neighbour_batch(iv, ij), None)]
    for call, want in once:
        sorts.clear()
        got = call()
        assert want is None or np.array_equal(got, want)
        assert len(sorts) == 1
    sorts.clear()
    pairs = rng.integers(0, g.n + 1, (2, 3 * g.n))
    keys = rng.integers(0, wt._map.sigma, 3 * wt._map.sigma)
    assert np.array_equal(wt.occ_batch(vs), np.bincount(values, minlength=wt.sigma))
    assert np.array_equal(g.degree_in_batch(np.repeat(vs, 3)), np.repeat(deg, 3))
    wt.rank_batch(values, rng.integers(0, wt.length + 1, values.size))
    g.multiplicity_batch(*pairs), g.adjacent_batch(*pairs)
    g.tree._spans(iv), wt._leaf_of(values), wt._map._leaf_of(keys)
    assert sorts == []
    assert not hasattr(bptree, "_distinct")


def test_routes_switch_at_their_measured_shares(monkeypatch):
    # 960 elements: descents of 160 lanes (length / 6) read the leaf
    # index, one lane fewer walks; 2,352 present symbols: the bounds of 49
    # present lanes (sigma_eff / 48) are gathered and those of 48 walked,
    # absent lanes counting for none.  occ_batch counts its lanes, select
    # its distinct symbols, so 48 symbols asked twice each still walk there
    rng = np.random.default_rng(3)
    wt = WaveletTree(rng.permutation(np.repeat(np.arange(96), 10)), 97)
    assert (wt.length, wt.sigma_eff) == (960, 96)
    built, gathered = [], []
    leaf_index, all_bounds = WaveletTree._leaf_index, WaveletTree._all_bounds

    def spy_index(self):
        built.append(self)
        return leaf_index(self)

    def spy_bounds(self):
        gathered.append(self)
        return all_bounds(self)

    monkeypatch.setattr(WaveletTree, "_leaf_index", spy_index)
    monkeypatch.setattr(WaveletTree, "_all_bounds", spy_bounds)
    for lanes, index in ((160, True), (159, False)):
        built.clear()
        wt._down(rng.integers(0, wt.length, lanes))
        assert built == [wt] * index
    vals = rng.permutation(np.repeat(np.arange(2352), 2))
    wt = WaveletTree(vals, 2353)
    assert wt.sigma_eff == 48 * 49
    for leaves, gather in ((49, True), (48, False)):
        cs = np.append(rng.choice(2352, leaves, replace=False), 2352)
        gathered.clear()
        assert wt.occ_batch(cs).tolist() == [2] * leaves + [0]
        assert gathered == [wt] * gather
        twice, ks = np.repeat(cs[:-1], 2), np.tile([1, 2], leaves)
        want = [np.flatnonzero(vals == c)[k - 1] + 1 for c, k in zip(twice, ks)]
        gathered.clear()
        assert wt.select_batch(twice, ks).tolist() == want
        assert gathered == [wt] * gather


def test_leaves_are_numbered_from_install_alone(monkeypatch):
    # both matrices keep each depth's first leaf number: only install
    # derives it, once per matrix, and no query, scalar or batch, does
    g = CompressedGraph.from_dag(generate(3, 1 << 12, seed=5))
    derived, first_leaves = [], wavelet._first_leaves

    def spy(K):
        derived.append(K)
        return first_leaves(K)

    monkeypatch.setattr(wavelet, "_first_leaves", spy)
    loaded = serialize.loads(serialize.dumps(g))
    assert len(derived) == 2                             # the map, then the string
    rng = np.random.default_rng(6)
    for wt in (g.targets, loaded.targets):
        values = wt.to_array()
        derived.clear()
        c = int(values[0])
        assert wt.access(1) == c and wt.rank(c, wt.length) == np.count_nonzero(values == c)
        assert wt.select(c, 1) == 1
        i = rng.integers(1, wt.length + 1, 4096)
        assert np.array_equal(wt.access_batch(i), values[i - 1])
        cs = values[i - 1]
        assert np.array_equal(wt.rank_batch(cs, i), [np.count_nonzero(values[:k] == v)
                                                    for v, k in zip(cs.tolist(), i.tolist())])
        assert np.array_equal(wt.select_batch(cs, 1), [np.argmax(values == v) + 1 for v in cs.tolist()])
        assert derived == []
