"""Zeroth-order entropy measures and the bounds report of an instance.

All figures are in bits.  ``h0_bits`` is the total code length ``sum_c
n_c * lg(n / n_c)`` of a string under its empirical symbol distribution;
``degree_entropy`` applies it to the target string of an attachment DAG,
where symbol frequencies are exactly the in-degrees.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .graph_model import Dag, adjacency_string
from .pa_gen import log_prob


def _count_values(seq_or_counts) -> np.ndarray:
    """The positive symbol multiplicities of a string, or of a symbol -> count map."""
    if isinstance(seq_or_counts, dict):                 # a Counter too
        vals = np.array(list(seq_or_counts.values()))
    elif isinstance(seq_or_counts, np.ndarray) and seq_or_counts.dtype.kind in "iu":
        vals = np.bincount(seq_or_counts)               # a string of integer symbols
    elif isinstance(seq_or_counts, np.ndarray):
        vals = np.unique(seq_or_counts, return_counts=True)[1]
    else:
        vals = np.array(list(Counter(seq_or_counts).values()))
    if vals.size and (vals.dtype.kind not in "iu" or vals.min() < 0):
        raise ValueError("counts must be non-negative integers")
    return vals[vals > 0].astype(np.int64)


def h0_bits(seq_or_counts) -> float:
    """Total zeroth-order code length of a string, in bits.

    Accepts a string / iterable of symbols, an integer numpy array (read as
    the string itself), or a ``Counter``/dict of symbol multiplicities.
    """
    vals = _count_values(seq_or_counts)
    if vals.size == 0:
        return 0.0
    n = int(vals.sum())
    v = vals.astype(np.float64)
    return float(np.sum(v * (np.log2(n) - np.log2(v))))


def h0_per_symbol(seq_or_counts) -> float:
    """Zeroth-order entropy per symbol (bits)."""
    vals = _count_values(seq_or_counts)
    n = int(vals.sum())
    if n == 0:
        return 0.0
    return h0_bits(seq_or_counts) / n


def degree_entropy(d: Dag) -> float:
    """Total bits of the degree-sequence entropy of an instance.

    This is the zeroth-order code length of the instance's target string,
    whose symbol frequencies are the in-degrees.
    """
    return h0_bits(adjacency_string(d))


def label_permutation_bits(n: int) -> float:
    """lg(n!) — the label-ordering information in a labelled instance.

    Taken from lgamma, not from n! itself, which would cost a big-integer
    factorial (over a second at n = 2^18).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.lgamma(n + 1) / math.log(2) if n > 1 else 0.0


def bounds_report(d: Dag) -> dict:
    """Entropy-related figures for one instance, in bits, and
    ``prob_mode``, how lg(1/P) was computed ("exact" or "float").

    ``label_bits`` is lg(n!) over the n added vertices (the seed's position
    is fixed); subtracting it from the surprisal gives a lower-bound figure
    for any order-oblivious encoding, which may go negative on tiny
    instances and is reported raw.
    """
    n, m = d.n, d.m
    h_deg = degree_entropy(d)
    lp = log_prob(d)
    lg_inv_p = lp.bits
    lg_fact = label_permutation_bits(n)
    return {
        "n": n,
        "m": m,
        "string_length": n * m,
        "degree_entropy_bits": h_deg,
        "surprisal_bits": lg_inv_p,
        "prob_mode": lp.mode,
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
