"""Zeroth-order entropy measures and carefully-rounded log2 helpers.

All figures are in bits.  ``h0_bits`` is the total code length ``sum_c
n_c * lg(n / n_c)`` of a string under its empirical symbol distribution;
``degree_entropy`` applies it to the target string of an attachment DAG,
where symbol frequencies are exactly the in-degrees.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable

import numpy as np

from .graph_model import Dag, adjacency_string


def counts_of(seq) -> Counter:
    """Symbol -> multiplicity for a string or iterable of hashable symbols."""
    if isinstance(seq, np.ndarray):
        vals, cnt = np.unique(seq, return_counts=True)
        return Counter({v.item(): int(c) for v, c in zip(vals, cnt)})
    return Counter(seq)


def _count_values(seq_or_counts) -> np.ndarray:
    if isinstance(seq_or_counts, Counter) or isinstance(seq_or_counts, dict):
        vals = np.fromiter(seq_or_counts.values(), dtype=np.int64)
    elif isinstance(seq_or_counts, np.ndarray) and seq_or_counts.dtype.kind in "iu":
        # treat as a string of symbols, not as counts
        vals = np.bincount(seq_or_counts)
    else:
        vals = np.fromiter(counts_of(seq_or_counts).values(), dtype=np.int64)
    vals = vals[vals > 0]
    if vals.size and vals.min() <= 0:
        raise ValueError("counts must be positive")
    return vals


def h0_bits(seq_or_counts, hp: bool = False) -> float:
    """Total zeroth-order code length of a string, in bits.

    Accepts a string / iterable of symbols, an integer numpy array (read as
    the string itself), or a ``Counter``/dict of symbol multiplicities.  With
    ``hp=True`` every term is computed from integer ratios with
    correctly-rounded ``lg`` instead of float division.
    """
    vals = _count_values(seq_or_counts)
    if vals.size == 0:
        return 0.0
    n = int(vals.sum())
    if hp:
        return float(sum(c * log2_fraction(n, c) for c in vals.tolist()))
    v = vals.astype(np.float64)
    return float(np.sum(v * (np.log2(n) - np.log2(v))))


def h0_per_symbol(seq_or_counts, hp: bool = False) -> float:
    """Zeroth-order entropy per symbol (bits)."""
    vals = _count_values(seq_or_counts)
    n = int(vals.sum())
    if n == 0:
        return 0.0
    return h0_bits(seq_or_counts, hp=hp) / n


def log2_int(x: int) -> float:
    """Correctly-rounded lg of a positive integer of any size."""
    if x <= 0:
        raise ValueError("log2_int needs a positive integer")
    return math.log2(x)


def log2_fraction(num, den=None) -> float:
    """lg(num/den) for arbitrarily large integers, accurate to ~1 ulp per term.

    Computed as lg(num) - lg(den) with integer-aware lg, so it never
    overflows the float range the way ``num/den`` might.
    """
    if den is None:
        if isinstance(num, Fraction):
            num, den = num.numerator, num.denominator
        else:
            den = 1
    if den <= 0 or num <= 0:
        raise ValueError("log2_fraction needs positive numerator and denominator")
    return log2_int(num) - log2_int(den)


def binary_entropy(p: float) -> float:
    """h(p) = -p lg p - (1-p) lg (1-p), with h(0) = h(1) = 0."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def degree_entropy(d: Dag, hp: bool = False) -> float:
    """Total bits of the degree-sequence entropy of an instance.

    This is the zeroth-order code length of the instance's target string,
    whose symbol frequencies are the in-degrees.
    """
    return h0_bits(adjacency_string(d), hp=hp)


def label_permutation_bits(n: int) -> float:
    """lg(n!) — the label-ordering information in a labelled instance."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return log2_int(math.factorial(n)) if n > 1 else 0.0


def bounds_report(d: Dag, hp: bool = False, prob_mode: str = "auto") -> dict:
    """Entropy-related figures for one instance, all in bits.

    ``label_bits`` is lg(n!) over the n added vertices (the seed's position
    is fixed); subtracting it from the surprisal gives a lower-bound figure
    for any order-oblivious encoding, which may go negative on tiny
    instances and is reported raw.
    """
    from .pa_gen import log_prob  # deferred: pa_gen imports this module

    n, m = d.n, d.m
    h_deg = degree_entropy(d, hp=hp)
    lg_inv_p = log_prob(d, mode=prob_mode).bits
    lg_fact = label_permutation_bits(n)
    return {
        "n": n,
        "m": m,
        "string_length": n * m,
        "degree_entropy_bits": h_deg,
        "surprisal_bits": lg_inv_p,
        "label_bits": lg_fact,
        "unlabelled_lower_bound_bits": lg_inv_p - lg_fact,
        "entropy_budget_bits": h_deg * (1.0 - 1.0 / m) + 2.0 * n,
        "worstcase_budget_bits": worstcase_budget_bits(n, m),
    }


def worstcase_budget_bits(n: int, m: int) -> float:
    """Space budget bits for the navigable form: (m-1) n lg n + 2 n."""
    if n <= 0:
        return 0.0
    return (m - 1) * n * math.log2(n) + 2.0 * n


def multinomial(total: int, counts: Iterable[int]) -> int:
    """Exact multinomial coefficient total! / prod(c_i!)."""
    out = 1
    rest = total
    for c in counts:
        out *= math.comb(rest, c)
        rest -= c
    if rest != 0:
        raise ValueError("counts do not sum to total")
    return out
