import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ingest_reference import (exact_probability_steps, float_bits_steps, generate_steps,
                              sample_targets)
from upag.entropy import degree_entropy
from upag.graph_model import Dag, ModelError, adjacency_string, in_degrees
from upag.pa_gen import generate, log_prob


def test_exact_probability_worked_example(dag4):
    res = log_prob(dag4, mode="exact")
    assert res.probability == Fraction(5, 864)
    assert res.bits == pytest.approx(7.4329594073, abs=1e-9)
    assert res.mode == "exact"


def test_step_factors_compose(dag4):
    # the three non-forced steps contribute 3/8, 5/36 and 1/9
    assert Fraction(3, 8) * Fraction(5, 36) * Fraction(1, 9) == Fraction(5, 864)


def test_float_mode_matches_exact(dag4):
    res = log_prob(dag4, mode="float")
    assert res.probability is None
    assert res.bits == pytest.approx(7.4329594073, abs=1e-9)


def test_trivial_instances():
    assert log_prob(Dag(3, [[0, 0, 0]])).probability == 1
    assert log_prob(Dag(2, np.zeros((0, 2), np.int64))).bits == 0.0


def all_instances(m, n):
    """Every instance with blocks kept as sorted multisets."""
    block_choices = [
        list(itertools.combinations_with_replacement(range(t), m))
        for t in range(2, n + 1)
    ]
    for tail in itertools.product(*block_choices):
        yield Dag(m, [[0] * m, *map(list, tail)])


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 2)])
def test_probabilities_sum_to_one(m, n):
    total = sum(log_prob(d, mode="exact").probability for d in all_instances(m, n))
    assert total == 1


def test_isomorphic_histories_equal_probability():
    # the 4-vertex star admits two attachment histories (hub at the seed or
    # at vertex 1); both must be equally likely
    hub_at_1 = Dag(1, [[0], [1], [1]])
    hub_at_0 = Dag(1, [[0], [0], [0]])
    chain = Dag(1, [[0], [1], [2]])
    assert log_prob(hub_at_1).probability == Fraction(1, 4)
    assert log_prob(hub_at_0).probability == Fraction(1, 4)
    assert log_prob(chain).probability == Fraction(1, 8)


def test_generate_shape_and_validity():
    d = generate(3, 200, seed=42)
    assert d.n == 200 and d.m == 3
    assert in_degrees(d).sum() == 600
    limits = np.arange(1, 201)[:, None]
    assert np.all(d.targets < limits)


def test_generate_deterministic_by_seed():
    a, b = generate(2, 500, seed=7), generate(2, 500, seed=7)
    c = generate(2, 500, seed=8)
    assert a == b
    assert a != c


@pytest.mark.parametrize("m,n", [(3, 10 ** 12), (1, 2 ** 32), (2, 2 ** 31), (5, 2 ** 40)])
def test_generate_rejects_a_string_beyond_the_bitvector_limit(m, n):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ModelError, match="bitvector limit"):
            generate(m, n, rng=rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rng.bit_generator.state == state     # no draw made


def test_generate_rng_stream_continuation():
    rng = np.random.default_rng(5)
    first = generate(2, 50, rng=rng)
    second = generate(2, 50, rng=rng)
    assert first != second  # stream advanced


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_generate_matches_step_reference(m):
    # the one-call draw and the pointer resolution reproduce the per-step
    # sampler exactly, and leave the stream where the per-step loop leaves it
    for seed in (0, 7, 12345):
        for n in (0, 1, 2, 3, 1000):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            d = generate(m, n, rng=fast)
            assert d.targets.shape == (n, m)
            assert np.array_equal(d.targets, generate_steps(m, n, slow)), (seed, n)
            assert fast.bit_generator.state == slow.bit_generator.state, (seed, n)
            assert np.array_equal(fast.integers(0, 1 << 40, 4), slow.integers(0, 1 << 40, 4))


@pytest.mark.parametrize("m", [1, 2, 3, 6])
def test_float_log_prob_matches_step_reference(m):
    for seed in (1, 2):
        d = generate(m, 5000, seed=seed)
        want = float_bits_steps(d)
        assert log_prob(d, mode="float").bits == pytest.approx(want, rel=1e-12)
    # hand-made blocks with repeated targets inside a block
    d = Dag(3, [[0, 0, 0], [1, 1, 0], [0, 0, 0], [2, 2, 2], [4, 1, 4], [1, 1, 1]])
    assert log_prob(d, mode="float").bits == pytest.approx(float_bits_steps(d), rel=1e-12)
    assert log_prob(d, mode="float").bits == pytest.approx(log_prob(d, mode="exact").bits,
                                                           rel=1e-12)
    # m! beyond the float range
    d = generate(200, 30, seed=1)
    assert log_prob(d, mode="float").bits == pytest.approx(log_prob(d, mode="exact").bits,
                                                           rel=1e-12)


# hand-made instances whose blocks repeat a target, some more than twice
REPEATS = [
    Dag(3, [[0, 0, 0], [1, 1, 0], [0, 0, 0], [2, 2, 2], [4, 1, 4], [1, 1, 1]]),
    Dag(3, [[0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 3]]),
    Dag(4, [[0, 0, 0, 0], [1, 1, 1, 1], [2, 0, 2, 2], [3, 3, 1, 3], [0, 4, 0, 4]]),
    Dag(5, [[0] * 5, [0] * 5, [2, 2, 2, 2, 1], [3, 0, 3, 0, 3]]),
    Dag(1, [[0], [1], [1], [1]]),
]


def _check_against_replay(d):
    want = exact_probability_steps(d)
    exact = log_prob(d, mode="exact")
    assert exact.probability == want
    bits = math.log2(want.denominator) - math.log2(want.numerator)
    assert exact.bits == pytest.approx(bits, rel=1e-12)
    assert log_prob(d, mode="float").bits == pytest.approx(bits, rel=1e-12)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 33, 64])
def test_exact_log_prob_matches_step_replay(m, n):
    # P from the (target, step) runs equals the per-step rational replay,
    # and both evaluations of the runs give its lg(1/P)
    for seed in (1, 2, 3):
        _check_against_replay(generate(m, n, seed=seed))


@pytest.mark.parametrize("d", REPEATS, ids=range(len(REPEATS)))
def test_repeated_targets_match_step_replay(d):
    _check_against_replay(d)


@pytest.mark.parametrize("m,n", [(20000, 70), (20000, 10)])
def test_many_target_pricing_within_budget(m, n):
    # lg k! once took a big-integer factorial for every k <= m (53.7 s at
    # m = 20,000, n = 70), and n <= 64 alone picked the exact ratio (17.4 s
    # at n = 10); both calls now take a few milliseconds
    d = generate(m, n, seed=1)
    start = time.perf_counter()
    res = log_prob(d)
    assert time.perf_counter() - start < 5.0
    assert res.mode == "float" and res.bits > 0


@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 4), n=st.integers(2, 24))
@settings(max_examples=60, deadline=None)
def test_float_agrees_with_exact(seed, m, n):
    d = generate(m, n, seed=seed)
    exact = log_prob(d, mode="exact")
    fl = log_prob(d, mode="float")
    assert fl.bits == pytest.approx(exact.bits, abs=1e-9)
    assert 0 < exact.probability <= 1


def test_auto_mode_switches_at_cutoff():
    small = generate(2, 64, seed=1)
    large = generate(2, 65, seed=1)
    assert log_prob(small).mode == "exact"
    assert log_prob(large).mode == "float"


@pytest.mark.parametrize("m,n,mode", [(64, 64, "exact"), (65, 64, "float"), (4096, 1, "exact"),
                                      (2049, 2, "float"), (200, 20, "exact"), (200, 30, "float")])
def test_auto_mode_caps_the_draws_priced_exactly(m, n, mode):
    # exact while n <= 64 and n*m <= 4,096, so every instance with m <= 64
    # keeps the mode the step count alone gave it
    assert log_prob(generate(m, n, seed=1)).mode == mode


@pytest.mark.parametrize("t", [2, 10, 100])
def test_sampler_matches_degree_weights(t):
    """Chi-squared goodness of fit of the per-step reference draw at several
    stages; ``test_generate_matches_step_reference`` carries it over to
    ``generate``."""
    rng = np.random.default_rng(2026_08_19 + t)
    m = 3
    d = generate(m, t - 1, seed=99)
    deg = in_degrees(d).copy()
    deg[1:] += m                       # undirected degrees drive attachment
    pool = np.repeat(np.arange(t, dtype=np.int64), deg)
    assert len(pool) == 2 * (t - 1) * m
    draws = sample_targets(rng, pool, m, reps=100_000).ravel()
    observed = np.bincount(draws, minlength=t).astype(float)
    expected = deg / deg.sum() * draws.size
    keep = expected >= 5               # standard validity threshold
    if not np.all(keep):               # merge sparse bins into one
        observed = np.append(observed[keep], observed[~keep].sum())
        expected = np.append(expected[keep], expected[~keep].sum())
    chi2 = stats.chisquare(observed, expected)
    assert chi2.pvalue > 1e-3


def test_entropy_gap_fields(dag4):
    # the gap between the surprisal and the degree entropy of the worked
    # example, with exact and with float probabilities
    h = degree_entropy(dag4)
    assert h == pytest.approx(15.3680655, abs=1e-6)
    for mode in ("exact", "float"):
        bits = log_prob(dag4, mode=mode).bits
        assert bits == pytest.approx(7.4329594, abs=1e-6)
        assert (bits - h) / dag4.n == pytest.approx((7.4329594 - 15.3680655) / 4, abs=1e-6)
