import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upag import bitvector
from upag.bits import popcount
from upag.bitvector import BitVector
from upag.errors import OutOfRangeError
from upag.wavelet import WaveletTree

# Each case runs on a vector as built from its bits ("rrr") and on one
# reassembled from copies of its stored words ("plain"), the way the loader
# builds it.  The ids are those of the two storage modes the cases covered
# before every bitvector stored plain words.
FORMS = [pytest.param("reassembled", id="plain"), pytest.param("built", id="rrr")]


def made(bits, form: str) -> BitVector:
    bv = BitVector(bits)
    return BitVector.from_parts(**bv.to_parts()) if form == "reassembled" else bv


def ref_rank1(bits, i):
    return int(bits[:i].sum())


def ref_select(bits, k, polarity):
    return int(np.nonzero(bits == polarity)[0][k - 1]) + 1


def check_against_reference(bits, form="built"):
    bits = np.asarray(bits, dtype=np.uint8)
    bv = made(bits, form)
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


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n,p", [
    (0, 0.5), (1, 0.0), (1, 1.0), (17, 0.3), (63, 0.5), (64, 0.5), (65, 0.5),
    (64, 0.0), (64, 1.0), (129, 0.05), (1000, 0.5), (1024, 0.9), (1025, 0.02),
    (4200, 0.5), (20000, 0.5),
])
def test_modes_match_reference(form, n, p, rng):
    bits = (rng.random(n) < p).astype(np.uint8)
    check_against_reference(bits, form)


@pytest.mark.parametrize("form", FORMS)
def test_runs_and_blocky_patterns(form):
    # long runs stress all-zero and all-one words and superblock boundaries
    bits = np.concatenate([
        np.ones(700, np.uint8), np.zeros(1500, np.uint8),
        np.ones(64, np.uint8), np.zeros(1, np.uint8), np.ones(300, np.uint8),
    ])
    check_against_reference(bits, form)


@pytest.mark.parametrize("form", FORMS)
def test_select_beyond_anchor_spacing(form, rng):
    # more than 2^12 occurrences of each polarity (the spacing select anchors
    # once had), spread over 24 superblocks
    bits = (rng.random(3 * 4096 * 2) < 0.5).astype(np.uint8)
    check_against_reference(bits, form)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_random_small_vectors(data):
    bits = np.array(data.draw(st.lists(st.integers(0, 1), max_size=300)), dtype=np.uint8)
    bv = BitVector(bits)
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


@pytest.mark.parametrize("form", FORMS)
def test_out_of_range(form):
    bv = made([1, 0, 1], form)
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
    # integers beyond int64, as Python ints and as uint64, in batch calls too
    for big in ([2 ** 70], [-(2 ** 63) - 1], np.array([2 ** 63], dtype=np.uint64)):
        for query in (bv.access_batch, bv.rank1_batch, bv.rank0_batch,
                      bv.select1_batch, bv.select0_batch):
            with pytest.raises(OutOfRangeError):
                query(big)


def test_empty_vector():
    bv = BitVector([])
    assert len(bv) == 0 and bv.ones == 0
    assert bv.rank1(0) == 0
    with pytest.raises(OutOfRangeError):
        bv.select1(1)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 1000, 4097])
def test_parts_roundtrip(form, n, rng):
    bits = (rng.random(n) < 0.4).astype(np.uint8)
    bv = made(bits, form)
    parts = bv.to_parts()
    back = BitVector.from_parts(**parts)
    assert np.array_equal(back.to_array(), bits)
    assert back.space_report() == bv.space_report()
    if n:
        pos = rng.integers(0, n + 1, size=50)
        assert np.array_equal(back.rank1_batch(pos), bv.rank1_batch(pos))


def test_from_parts_validation():
    with pytest.raises(ValueError):
        BitVector.from_parts(100, np.zeros(1, np.uint64))
    with pytest.raises(ValueError):
        BitVector.from_parts(100, np.zeros(3, np.uint64))
    with pytest.raises(ValueError):
        BitVector.from_parts(10, np.zeros((1, 1), np.uint64))
    # bits past n are cleared, so rank and select never see them
    bv = BitVector.from_parts(10, np.array([~np.uint64(0)]))
    assert bv.ones == 10 and bv.rank1(10) == 10 and bv.select0_batch([]).size == 0


def test_batch_equals_scalar(rng):
    bits = (rng.random(2500) < 0.5).astype(np.uint8)
    bv = BitVector(bits)
    ks = rng.integers(1, bv.ones + 1, size=64)
    batch = bv.select1_batch(ks)
    assert all(bv.select1(int(k)) == b for k, b in zip(ks, batch))
    ps = rng.integers(0, bits.size + 1, size=64)
    batch = bv.rank1_batch(ps)
    assert all(bv.rank1(int(p)) == b for p, b in zip(ps, batch))


# ---------------------------------------------------------------------------
# the block fetch against the raw bits
# ---------------------------------------------------------------------------

def _check_fetch(bits: np.ndarray, blk: np.ndarray, form: str = "built") -> None:
    bv = made(bits, form)
    nb = (bits.size + 63) // 64
    padded = np.zeros(64 * nb, np.uint8)
    padded[:bits.size] = bits
    words = np.packbits(padded, bitorder="little").view("<u8")
    before = np.concatenate([[0], np.cumsum(padded.reshape(nb, 64).sum(axis=1))])
    base, got = bv._fetch(blk)
    assert np.array_equal(base, before[blk])
    assert np.array_equal(got, words[blk])


def _fetch_bits(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bits = (rng.random(n) < rng.uniform(0.05, 0.95, n // 64 + 1).repeat(64)[:n]).astype(np.uint8)
    return bits


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", [64 * 16 * 12, 64 * 16 * 12 + 64 * 5 + 17, 64 * 33 + 1])
def test_fetch_block_and_superblock_boundaries(form, n):
    bits = _fetch_bits(n, seed=n)
    nb = (n + 63) // 64
    edges = np.array([0, 1, 14, 15, 16, 17, 31, 32, 33, nb - 2, nb - 1])
    _check_fetch(bits, edges[edges < nb], form)
    _check_fetch(bits, np.arange(nb), form)                 # the whole-prefix route


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("lanes", [1, 2, 3, 31, 32, 33])
def test_fetch_lane_counts_with_repeats(form, lanes):
    n = 64 * 16 * 40 + 29                                   # 641 blocks, partial last
    bits = _fetch_bits(n, seed=lanes)
    nb = (n + 63) // 64
    rng = np.random.default_rng(lanes)
    pool = np.concatenate([rng.integers(0, nb, max(lanes // 3, 1)), [nb - 1, 15, 16]])
    blk = rng.choice(pool, lanes)
    _check_fetch(bits, blk, form)
    pos = np.minimum(blk * 64 + rng.integers(0, 65, lanes), n)
    bv = made(bits, form)
    rank = np.concatenate([[0], np.cumsum(bits)])
    assert np.array_equal(bv.rank1_batch(pos), rank[pos])
    inside = np.minimum(pos, n - 1)
    r, bit = bv._rank_bit(inside)
    assert np.array_equal(r, rank[inside]) and np.array_equal(bit, bits[inside])
    ones, zeros = np.flatnonzero(bits), np.flatnonzero(bits == 0)
    k1 = np.searchsorted(ones, inside) + 1
    k1 = np.minimum(k1, ones.size)
    assert np.array_equal(bv.select1_batch(k1), ones[k1 - 1] + 1)
    k0 = np.minimum(np.searchsorted(zeros, inside) + 1, zeros.size)
    assert np.array_equal(bv.select0_batch(k0), zeros[k0 - 1] + 1)


@pytest.mark.parametrize("form", FORMS)
def test_rank_at_end_of_a_full_superblock(form):
    # n % 1024 == 0: rank(n) reads the whole last block, which ends exactly
    # where a new superblock would start
    for n in (1024, 3 * 1024):
        bits = _fetch_bits(n, seed=n)
        bv = made(bits, form)
        assert bv.rank1(n) == int(bits.sum())
        assert bv.rank0(n) == n - int(bits.sum())
        pos = np.array([n, n - 1, n - 64, n - 63, 0])
        assert np.array_equal(bv.rank1_batch(pos), [int(bits[:p].sum()) for p in pos])


@pytest.mark.parametrize("form", FORMS)
def test_select0_inside_a_partial_last_block(form):
    # the last block has 23 bits, its zeros are the last ones in the vector
    bits = np.ones(64 * 5 + 23, np.uint8)
    bits[64 * 5 + np.array([0, 4, 5, 22])] = 0
    bits[[3, 100]] = 0
    bv = made(bits, form)
    zeros = np.flatnonzero(bits == 0) + 1
    assert np.array_equal(bv.select0_batch(np.arange(1, zeros.size + 1)), zeros)
    assert bv.select0(zeros.size) == bits.size
    assert bv.select1(int(bits.sum())) == 64 * 5 + 22
    with pytest.raises(OutOfRangeError):
        bv.select0(zeros.size + 1)


@pytest.mark.parametrize("lanes", [13, 14])
def test_fetch_route_switches_at_a_24th_of_the_words(lanes, monkeypatch):
    # 21 superblocks, 336 = 24 * 14 words: 14 lanes or more sum one prefix
    # over every word's popcount; fewer add the words before each block to
    # its sample
    bits = _fetch_bits(64 * 16 * 21, seed=4)
    counted = []
    popcount = bitvector.popcount

    def spy(words):
        counted.append(words.size)
        return popcount(words)

    monkeypatch.setattr(bitvector, "popcount", spy)
    bv = BitVector(bits)
    counted.clear()
    blk = np.arange(lanes) * 7 % 336
    base, _ = bv._fetch(blk)
    assert counted == ([336] if lanes == 14 else [16 * lanes])
    counted.clear()
    monkeypatch.setattr(bitvector, "_WHOLE_SHARE", 1 if lanes == 14 else 10 ** 6)
    assert np.array_equal(bv._fetch(blk)[0], base)          # the other route agrees
    assert counted == ([16 * lanes] if lanes == 14 else [336])


@pytest.mark.parametrize("form", FORMS)
def test_rank_bit_at_every_position(form):
    bits = np.array([1, 0, 1], np.uint8)
    rank, bit = made(bits, form)._rank_bit(np.arange(4))
    assert rank.tolist() == [0, 1, 1, 2]
    assert bit.tolist() == [True, False, True, False]      # pos == n reads 0


@pytest.mark.parametrize("n", [0, 1, 64, 1024, 1025, 20000])
def test_resident_bits_are_reported(n, rng):
    # words plus one uint32 sample per 16 words, nothing else
    bv = BitVector((rng.random(n) < 0.5).astype(np.uint8))
    arrays = [a for a in vars(bv).values() if isinstance(a, np.ndarray)]
    rep = bv.space_report()
    assert rep["total_bits"] == 8 * sum(a.nbytes for a in arrays)
    assert rep["payload_bits"] == n
    assert rep["payload_bits"] + rep["directory_bits"] == rep["total_bits"]
    assert bv._sb.dtype == np.uint32 and bv._sb.size == max(-(-n // 1024), 1)


# ---------------------------------------------------------------------------
# words of every shape, one per block
#
# The cases below keep the names they had when blocks could be stored as
# rrr codes (a class and an offset per block).  A block is now stored as
# its word; each case checks on the same inputs that every word is kept as
# given and that rank, select and access read it back, in batches of every
# size and through both fetch routes.
# ---------------------------------------------------------------------------

def _per_block(words, last: int = 64) -> BitVector:
    """One input word per 64-bit block, the last block ``last`` bits long."""
    words = np.asarray(words, dtype=np.uint64)
    return BitVector.from_parts(64 * (words.size - 1) + last, words)


def _bits_of(words) -> np.ndarray:
    """Rows of the 64 bits of every word, bit j in column j."""
    words = np.ascontiguousarray(words, dtype="<u8")
    return np.unpackbits(words.view(np.uint8), bitorder="little").reshape(-1, 64)


def _check_words(words, blen: int) -> None:
    """Every ``blen``-bit word in ``words`` sits in a block of its own, the
    last block ``blen`` bits long: the stored words are the input, ranks at
    block edges count each word's ones, the last one of a word and the first
    zero of a block are where the word puts them."""
    words = np.asarray(words, dtype=np.uint64)
    bv = _per_block(words, blen)
    assert np.array_equal(bv.to_parts()["words"], words)
    pop = popcount(words).astype(np.int64)
    before = np.concatenate([[0], np.cumsum(pop)])
    starts = 64 * np.arange(words.size)
    assert bv.ones == int(pop.sum())
    assert np.array_equal(bv.rank1_batch(starts), before[:-1])
    assert np.array_equal(bv.rank1_batch(starts + blen), before[1:])
    # the last one of each non-zero word: the integer part of lg w, which
    # float64 gets right for w below 2^32
    nz = np.flatnonzero(words)
    if blen <= 32:
        top = np.floor(np.log2(words[nz].astype(np.float64))).astype(np.int64)
    else:
        top = 63 - np.argmax(_bits_of(words[nz])[:, ::-1], axis=1)
    assert np.array_equal(bv.select1_batch(before[nz + 1]), starts[nz] + top + 1)
    # the first zero of each block: below the last one, a block is 64 bits
    # long, so each has one; lowest zero bit of w is the one bit of (w + 1) & ~w
    full = words[:-1] if blen < 64 else words
    low = np.flatnonzero(~full)
    first = _bits_of(((full[low] + np.uint64(1)) & ~full[low]))
    at = np.argmax(first, axis=1)
    zeros_before = starts[low] - before[low]
    assert np.array_equal(bv.select0_batch(zeros_before + 1), starts[low] + at + 1)


@pytest.mark.parametrize("blen", range(1, 21))
def test_code_is_a_bijection_for_every_word(blen):
    # every blen-bit word; the short ones also bit by bit
    words = np.arange(1 << blen, dtype=np.uint64)
    _check_words(words, blen)
    if blen <= 12:
        bits = _per_block(words, blen).to_array()
        padded = np.concatenate([bits, np.zeros(64 - blen, np.uint8)]).reshape(-1, 64)
        assert np.array_equal(padded[:, :blen], _bits_of(words)[:, :blen])


@pytest.mark.parametrize("blen", range(21, 65))
def test_code_is_a_bijection_on_sparse_and_dense_classes(blen):
    # every word with at most two ones, and every word with at most two zeros
    one = np.uint64(1) << np.arange(blen, dtype=np.uint64)
    sparse = np.unique(np.concatenate([np.zeros(1, np.uint64), one, (one[:, None] | one[None, :]).ravel()]))
    full = ~np.uint64(0) >> np.uint64(64 - blen)
    for words in (sparse, sparse ^ full):
        _check_words(words, blen)
        # the same words back to back, blen bits each, straddling blocks
        check_against_reference(_bits_of(words[::3])[:, :blen].ravel())


def _class_words(blen: int, seed: int) -> np.ndarray:
    """Words of blen bits of every class k (number of ones): the lowest k
    bits, the highest k bits and two random k-subsets."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(blen + 1):
        for pick in (np.arange(k), np.arange(blen - k, blen),
                     rng.choice(blen, k, replace=False), rng.choice(blen, k, replace=False)):
            row = np.zeros(64, np.uint8)
            row[pick] = 1
            rows.append(row)
    return np.packbits(np.array(rows), axis=1, bitorder="little").view("<u8").ravel()


def _check_in_chunks(bv: BitVector, bits: np.ndarray, chunk: int | None) -> None:
    """Every rank, access and select of ``bv``, asked ``chunk`` lanes at a time."""
    rank = np.concatenate([[0], np.cumsum(bits)])
    ones, zeros = np.flatnonzero(bits) + 1, np.flatnonzero(bits == 0) + 1
    for query, lanes, want in ((bv.rank1_batch, np.arange(bits.size + 1), rank),
                               (bv.access_batch, np.arange(1, bits.size + 1), bits),
                               (bv.select1_batch, np.arange(1, ones.size + 1), ones),
                               (bv.select0_batch, np.arange(1, zeros.size + 1), zeros)):
        step = chunk or max(lanes.size, 1)
        got = [query(lanes[i:i + step]) for i in range(0, lanes.size, step)]
        assert np.array_equal(np.concatenate(got or [np.zeros(0, np.int64)]), want)


@pytest.mark.parametrize("chunk", [1, 2, 33, None])
def test_decode_every_class(chunk):
    words = _class_words(64, seed=1)
    bv = _per_block(words)
    assert popcount(words).tolist() == [k for k in range(65) for _ in range(4)]
    _check_in_chunks(bv, _bits_of(words).ravel(), chunk)


@pytest.mark.parametrize("chunk", [7, None])
def test_decode_every_partial_length(chunk):
    # two full blocks, then a last block of every length 1..63 and class
    for blen in range(1, 64):
        tail = _class_words(blen, seed=blen)
        head = np.random.default_rng(blen).integers(0, 1 << 62, 2, dtype=np.uint64)
        for w in tail[1::max(1, tail.size // 4)]:
            words = np.append(head, w)
            bits = _bits_of(words).ravel()[:128 + blen]
            _check_in_chunks(_per_block(words, blen), bits, chunk)


def test_every_16_bit_value():
    # popcount and the in-word select on every 16-bit value, at every rank
    words = np.arange(1 << 16, dtype=np.uint64)
    pop = popcount(words).astype(np.int64)
    assert pop.tolist() == [bin(w).count("1") for w in range(1 << 16)]
    lane = np.repeat(np.arange(1 << 16), pop)
    r = np.arange(lane.size) - np.repeat(np.cumsum(pop) - pop, pop) + 1
    want = np.flatnonzero(_bits_of(words)[:, :16]) % 16
    assert np.array_equal(bitvector._select_in_word(words[lane], r), want)
    # and the high half of the word: the same values shifted by 48
    high = words << np.uint64(48)
    assert np.array_equal(bitvector._select_in_word(high[lane], r), want + 48)


@pytest.mark.parametrize("size", [1, 2, 100, 512, 513, 2000])
def test_decode_batch_sizes_with_repeats(size):
    # size lanes, with repeats, over blocks of every class; small batches
    # take the per-superblock route, large ones the whole-prefix route
    words = _class_words(64, seed=2)
    bv, bits = _per_block(words), _bits_of(words).ravel()
    rng = np.random.default_rng(size)
    pos = rng.integers(0, bits.size + 1, size)
    assert np.array_equal(bv.rank1_batch(pos), np.concatenate([[0], np.cumsum(bits)])[pos])
    assert np.array_equal(bv.access_batch(np.maximum(pos, 1)), bits[np.maximum(pos, 1) - 1])
    ones, zeros = np.flatnonzero(bits) + 1, np.flatnonzero(bits == 0) + 1
    k1, k0 = rng.integers(1, ones.size + 1, size), rng.integers(1, zeros.size + 1, size)
    assert np.array_equal(bv.select1_batch(k1), ones[k1 - 1])
    assert np.array_equal(bv.select0_batch(k0), zeros[k0 - 1])


@pytest.mark.parametrize("blen", [37, 64])
def test_decode_sorts_large_steps(blen, monkeypatch):
    # 3000 lanes through either fetch route give the same answers
    rng = np.random.default_rng(blen)
    words = rng.integers(0, 1 << 62, 3000, dtype=np.uint64)
    words &= rng.integers(0, 1 << 62, 3000, dtype=np.uint64)
    bits = _bits_of(words).ravel()[:64 * 2999 + blen]
    bv = _per_block(words, blen)
    pos = rng.integers(0, bits.size + 1, 3000)
    ones = np.flatnonzero(bits) + 1
    ks = rng.integers(1, ones.size + 1, 3000)
    answers = []
    for share in (1, 10 ** 9):
        monkeypatch.setattr(bitvector, "_WHOLE_SHARE", share)
        answers.append((bv.rank1_batch(pos), bv.select1_batch(ks)))
    for rank, sel in answers:
        assert np.array_equal(rank, np.concatenate([[0], np.cumsum(bits)])[pos])
        assert np.array_equal(sel, ones[ks - 1])


@pytest.mark.parametrize("tail", range(1, 64))
def test_rrr_batch_decode_matches_plain(tail):
    # full blocks of class 0, 1, 32, 63 and 64, then a partial block of every
    # length and several classes; every batch has more than 32 lanes, and
    # the vector as built and as reassembled from its words agree
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
        built, back = made(bits, "built"), made(bits, "reassembled")
        pos = np.arange(bits.size + 1)
        ones = np.arange(1, int(bits.sum()) + 1)
        zeros = np.arange(1, bits.size - int(bits.sum()) + 1)
        assert min(pos.size, ones.size, zeros.size) > 32
        assert np.array_equal(built.rank1_batch(pos), np.concatenate([[0], np.cumsum(bits)]))
        assert np.array_equal(built.rank1_batch(pos), back.rank1_batch(pos))
        assert np.array_equal(built.access_batch(pos[1:]), bits)
        assert np.array_equal(built.access_batch(pos[1:]), back.access_batch(pos[1:]))
        assert np.array_equal(built.select1_batch(ones), np.flatnonzero(bits) + 1)
        assert np.array_equal(built.select1_batch(ones), back.select1_batch(ones))
        assert np.array_equal(built.select0_batch(zeros), np.flatnonzero(bits == 0) + 1)
        assert np.array_equal(built.select0_batch(zeros), back.select0_batch(zeros))


def test_rrr_payload_is_exact_block_sum(rng):
    # the payload is the bits the blocks hold, and the rest is one word's
    # padding and one 32-bit sample per 16 words
    bits = (rng.random(10_000) < 0.15).astype(np.uint8)
    rep = BitVector(bits).space_report()
    nblocks = -(-bits.size // 64)
    assert rep["payload_bits"] == sum(min(64, bits.size - 64 * b) for b in range(nblocks))
    assert rep["directory_bits"] == 64 * nblocks - bits.size + 32 * -(-nblocks // 16)


def test_rrr_beats_plain_on_sparse_input(rng):
    # a sparse string, one symbol at 97% of the places and 15 others at
    # the rest, costs the Huffman-shaped matrix about 1.1 bits per element
    # where a balanced code of the 16 symbols takes 4
    values = np.where(rng.random(50_000) < 0.03, rng.integers(1, 16, 50_000), 0)
    rep = WaveletTree(values, 16).space_report()
    assert rep["payload_bits"] < 0.35 * 4 * values.size


def _spy_fetches(monkeypatch) -> list[int]:
    """Lane counts of every ``BitVector._fetch`` call from now on."""
    fetched = []
    fetch = BitVector._fetch

    def spy(self, blk):
        fetched.append(blk.size)
        return fetch(self, blk)

    monkeypatch.setattr(BitVector, "_fetch", spy)
    return fetched


def _blocky_bits(nblocks: int, tail: int, rng) -> np.ndarray:
    """Blocks of random density, each holding at least one 1 and one 0."""
    dens = rng.uniform(0.02, 0.98, nblocks)
    bits = (rng.random((nblocks, 64)) < dens[:, None]).astype(np.uint8)
    bits[:, 0], bits[:, 1] = 1, 0
    return bits.ravel()[:64 * (nblocks - 1) + tail]


@pytest.mark.parametrize("distinct", [1, 40, 160, "all"])
def test_rrr_queries_decode_each_block_once(distinct, monkeypatch):
    # a rank or access batch over `distinct` blocks, with repeats, is one
    # fetch of one lane per query lane, and nothing else reads a block;
    # select finishes from its own scan of the superblocks and fetches none
    rng = np.random.default_rng(128)
    bits = _blocky_bits(168, tail=37, rng=rng)
    bv = BitVector(bits)
    nb = -(-bits.size // 64)
    blocks = np.arange(nb) if distinct == "all" else np.sort(rng.choice(nb, distinct, replace=False))
    lanes = 3 * nb if distinct == "all" else max(2 * blocks.size, 33)
    blk = np.concatenate([blocks, rng.choice(blocks, lanes - blocks.size)])
    blen = np.where(blk == nb - 1, 37, 64)
    pos = blk * 64 + rng.integers(0, blen)              # 0-based, inside the block
    fetched = _spy_fetches(monkeypatch)

    def fetches(query, want):
        fetched.clear()
        query()
        assert fetched == want

    rank = np.concatenate([[0], np.cumsum(bits)])
    fetches(lambda: np.testing.assert_array_equal(bv.rank1_batch(pos), rank[pos]), [lanes])
    fetches(lambda: np.testing.assert_array_equal(bv.access_batch(pos + 1), bits[pos]), [lanes])
    ones, zeros = np.flatnonzero(bits), np.flatnonzero(bits == 0)
    k1 = rng.choice(np.flatnonzero(np.isin(ones >> 6, blk)), lanes) + 1
    k0 = rng.choice(np.flatnonzero(np.isin(zeros >> 6, blk)), lanes) + 1
    k1[:blocks.size] = np.searchsorted(ones >> 6, blocks) + 1   # first one of each block
    k0[:blocks.size] = np.searchsorted(zeros >> 6, blocks) + 1
    fetches(lambda: np.testing.assert_array_equal(bv.select1_batch(k1), ones[k1 - 1] + 1), [])
    fetches(lambda: np.testing.assert_array_equal(bv.select0_batch(k0), zeros[k0 - 1] + 1), [])


def test_one_lane_queries_decode_one_block(monkeypatch):
    bits = _fetch_bits(64 * 16 * 20 + 9, seed=3)
    bv = BitVector(bits)
    fetched = _spy_fetches(monkeypatch)
    ones, zeros = np.flatnonzero(bits), np.flatnonzero(bits == 0)
    # rank and access fetch one block; select reads its word directly
    for query, want, fetches in ((lambda: bv.rank1(7000), int(bits[:7000].sum()), [1]),
                                 (lambda: bv.rank1(bits.size), int(bits.sum()), [1]),
                                 (lambda: bv.access(5000), int(bits[4999]), [1]),
                                 (lambda: bv.select1(900), int(ones[899]) + 1, []),
                                 (lambda: bv.select0(900), int(zeros[899]) + 1, [])):
        fetched.clear()
        assert query() == want
        assert fetched == fetches


def test_out_of_range_code_is_rejected():
    # a word count that disagrees with the length names no bitvector
    for n, count in ((64, 0), (64, 2), (65, 1), (0, 1), (1000, 15)):
        with pytest.raises(ValueError, match="ceil"):
            BitVector.from_parts(n, np.zeros(count, np.uint64))
    ok = BitVector.from_parts(65, np.array([1 << 63, 1], np.uint64))
    assert ok.rank1(65) == 2 and ok.select1(2) == 65


def test_out_of_range_code_in_a_partial_block_is_rejected():
    # the bits of a last word past the end are dropped: no query sees them,
    # and the stored word keeps only the bits inside the vector
    for tail in range(1, 64):
        bv = BitVector.from_parts(128 + tail, np.full(3, ~np.uint64(0)))
        n = 128 + tail
        assert bv.ones == n and bv.rank1(n) == n and bv.select1(n) == n
        assert int(bv.to_parts()["words"][-1]) == (1 << tail) - 1
        with pytest.raises(OutOfRangeError):
            bv.select0(1)
        with pytest.raises(OutOfRangeError):
            bv.access(n + 1)
