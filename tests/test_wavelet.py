from collections import deque

import numpy as np
import pytest
from huffman_reference import huffman_cost, matrix_codes, matrix_levels
from hypothesis import given, settings
from hypothesis import strategies as st

from upag import serialize, wavelet
from upag.bitvector import BitVector
from upag.errors import OutOfRangeError
from upag.wavelet import WaveletTree, _code_lengths


def reassembled(wt: WaveletTree) -> WaveletTree:
    """``wt`` rebuilt the way the loader does it: from copies of its level
    bits, its map's level bits and the map's key table."""
    def copies(m):
        return [BitVector.from_parts(**bv.to_parts()) for bv in m._levels]

    keys = WaveletTree.from_levels(wt._map.sigma, wt.sigma, copies(wt._map), wt._map._table.copy())
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


@pytest.mark.parametrize("zeros", [63, 64, 65, 1023, 1024, 1025])
def test_zero_count_on_block_edges(zeros):
    # two symbols get one-bit codes, the lower one bit 0, so the higher
    # one's leaf starts exactly at, before or after a block or superblock
    # edge of the partitioned level
    rng = np.random.default_rng(zeros)
    values = rng.permutation(np.repeat([2, 5], [zeros, 2100 - zeros]))
    wt = check_against_reference(values, 8)
    assert wt.width == 1 and wt._zeros[0] == zeros


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
        assert wt._zeros == [lvl.count(0) for lvl in levels]


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
    for lvl, (bv, z) in enumerate(zip(wt._levels, wt._zeros)):
        assert bv.to_array().tolist() == levels[lvl], lvl
        assert z == levels[lvl].count(0)
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
    w = serialize._Writer()
    w.wavelet(wt)
    for m in (wt, serialize._Reader(w.buf.getvalue()).wavelet()):
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
