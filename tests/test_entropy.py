import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from upag import entropy
from upag.graph_model import Dag


def test_h0_known_string():
    # 12 symbols: a*6 b*2 r*2 c d
    bits = entropy.h0_bits("abracadabraa")
    assert bits == pytest.approx(23.5098, abs=5e-5)
    assert entropy.h0_per_symbol("abracadabraa") == pytest.approx(1.95915, abs=5e-6)


def test_h0_reduced_string():
    bits = entropy.h0_bits("araadaraa")
    assert bits == pytest.approx(11.0196, abs=5e-5)
    assert entropy.h0_per_symbol("araadaraa") == pytest.approx(1.22439, abs=5e-6)


def test_h0_accepts_counts_and_arrays():
    s = "araadaraa"
    assert entropy.h0_bits(Counter(s)) == pytest.approx(entropy.h0_bits(s))
    arr = np.array([0, 1, 0, 0, 2, 0, 1, 0, 0])
    assert entropy.h0_bits(arr) == pytest.approx(entropy.h0_bits(s))


def test_h0_edge_cases():
    assert entropy.h0_bits("") == 0.0
    assert entropy.h0_bits("aaaa") == 0.0  # single-symbol strings carry no surprise
    assert entropy.h0_bits("ab") == pytest.approx(2.0)


def test_hp_mode_agrees_with_float():
    # the float formula against every term from integer ratios with
    # correctly rounded lg
    s = "abracadabraa" * 37
    counts = entropy.counts_of(s)
    n = sum(counts.values())
    exact = sum(c * entropy.log2_fraction(n, c) for c in counts.values())
    assert entropy.h0_bits(s) == pytest.approx(exact, abs=1e-9)


def test_degree_entropy(dag4, dag5):
    assert entropy.degree_entropy(dag4) == pytest.approx(15.3680655, abs=5e-7)
    assert entropy.degree_entropy(dag5) == pytest.approx(32.3387, abs=5e-5)


def test_log2_fraction_handles_huge_values():
    big = 10 ** 400            # far past float overflow
    assert entropy.log2_fraction(big, 1) == pytest.approx(400 * math.log2(10))
    assert entropy.log2_fraction(Fraction(3, 4)) == pytest.approx(math.log2(0.75))
    with pytest.raises(ValueError):
        entropy.log2_fraction(0, 5)


def test_label_permutation_bits():
    assert entropy.label_permutation_bits(4) == pytest.approx(math.log2(24))
    assert entropy.label_permutation_bits(1) == 0.0


def test_worstcase_budget():
    assert entropy.worstcase_budget_bits(5, 3) == pytest.approx(10 * math.log2(5) + 10)
    assert entropy.worstcase_budget_bits(0, 3) == 0.0


def test_bounds_report_fields(dag4):
    rep = entropy.bounds_report(dag4)
    assert rep["n"] == 4 and rep["m"] == 3
    assert rep["degree_entropy_bits"] == pytest.approx(15.3680655, abs=5e-7)
    assert rep["surprisal_bits"] == pytest.approx(7.4329594073, abs=1e-9)
    assert rep["label_bits"] == pytest.approx(math.log2(24))
    # surprisal minus label-order information: ~2.848 bits for this instance
    assert rep["unlabelled_lower_bound_bits"] == pytest.approx(2.848, abs=1e-3)
    assert rep["entropy_budget_bits"] == pytest.approx(
        rep["degree_entropy_bits"] * (2.0 / 3.0) + 8.0
    )


def test_bounds_report_m1_budget():
    # single-target instances: the entropy-scaled budget degenerates to 2n
    d = Dag(1, np.array([[0], [0], [1]], dtype=np.int64))
    rep = entropy.bounds_report(d)
    assert rep["entropy_budget_bits"] == pytest.approx(2.0 * 3)


def test_multinomial():
    assert entropy.multinomial(3, [2, 1]) == 3
    assert entropy.multinomial(3, [1, 1, 1]) == 6
    assert entropy.multinomial(5, [5]) == 1
    with pytest.raises(ValueError):
        entropy.multinomial(4, [2, 1])


@given(st.lists(st.integers(0, 7), min_size=1, max_size=400))
def test_h0_bounds(values):
    # 0 <= H0 <= n lg sigma, equality at uniform
    bits = entropy.h0_bits(values)
    sigma = len(set(values))
    assert -1e-9 <= bits <= len(values) * math.log2(max(sigma, 1)) + 1e-9


@given(st.lists(st.integers(1, 50), min_size=1, max_size=10))
def test_h0_grouping_invariance(counts):
    # H0 depends only on the multiset of counts, not on symbol identity
    c1 = {i: c for i, c in enumerate(counts)}
    c2 = {i * 13 + 5: c for i, c in enumerate(counts)}
    assert entropy.h0_bits(c1) == pytest.approx(entropy.h0_bits(c2))


@given(st.integers(1, 10 ** 30), st.integers(1, 10 ** 30))
def test_log2_fraction_matches_floats(num, den):
    assert entropy.log2_fraction(num, den) == pytest.approx(
        math.log2(num) - math.log2(den), abs=1e-9
    )


def test_binary_entropy():
    # over two symbols, h0 per symbol is h(p) = -p lg p - (1 - p) lg (1 - p)
    assert entropy.h0_per_symbol({"a": 1, "b": 1}) == 1.0
    assert entropy.h0_per_symbol({"a": 0, "b": 9}) == 0.0
    assert entropy.h0_per_symbol({"a": 9, "b": 0}) == 0.0
    assert entropy.h0_per_symbol({"a": 11, "b": 89}) == pytest.approx(0.4999, abs=5e-4)
