"""Preferential-attachment instance generation and exact instance probability.

The process grows a multigraph one vertex at a time.  Vertex 1 attaches to
the seed with ``m`` parallel edges; vertex ``t`` then draws ``m`` targets
independently, each older vertex weighted by its current degree.  Sampling
uses the classic endpoint-repeat trick: every edge contributes its two
endpoints to a pool, and a uniform pick from the pool is a degree-weighted
pick of a vertex.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .entropy import log2_fraction, multinomial
from .errors import ModelError
from .graph_model import Dag

EXACT_CUTOFF = 64  # largest n for which probabilities default to exact rationals


def generate(m: int, n: int, seed=None, rng: np.random.Generator | None = None) -> Dag:
    """Sample an n-step instance with out-degree ``m`` per non-seed vertex.

    ``seed`` feeds ``numpy.random.default_rng`` (PCG64); pass ``rng`` instead
    to continue an existing stream.  Same seed, same instance.

    The endpoint pool after step t is t blocks of 2m slots: the m targets of
    the step, then m copies of its vertex.  Every draw is made up front
    (Batagelj & Brandes, Phys. Rev. E 71, 2005), in one call that consumes
    the stream exactly as one draw of m per step would; a draw that lands
    on a target slot points at an earlier draw, and those pointers are
    resolved by pointer jumping.

    An instance whose target string would reach 2^32 symbols raises
    ``ModelError`` before anything is allocated: no bitvector of the
    structure can hold it.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1 and n >= 0")
    if n * m >= 1 << 32:
        raise ModelError(f"n*m = {n * m} targets: a string of 2^32 or more is beyond the "
                         "bitvector limit")
    if rng is None:
        rng = np.random.default_rng(seed)
    val = np.zeros(n * m, dtype=np.int64)    # draw k of vertex t at (t-1)*m + k
    if n >= 2:
        idx = rng.integers(0, np.repeat(2 * m * np.arange(1, n, dtype=np.int64), m))
        blk, slot = np.divmod(idx, 2 * m)
        ptr = np.full(n * m, -1, dtype=np.int64)   # -1: resolved
        own = slot >= m
        val[m:] = np.where(own, blk + 1, 0)
        ptr[m:] = np.where(own, -1, blk * m + slot)
        todo = np.flatnonzero(ptr >= 0)
        while todo.size:
            to = ptr[todo]
            nxt = ptr[to]
            done = nxt < 0
            val[todo[done]] = val[to[done]]
            ptr[todo[done]] = -1
            todo = todo[~done]
            ptr[todo] = nxt[~done]
    return Dag(m, val.reshape(n, m))


@dataclass
class LogProbResult:
    """Probability of one instance under the attachment process."""

    bits: float                      # lg(1/P), bits of surprisal
    probability: Fraction | None     # exact P when computed exactly
    mode: str                        # "exact" or "float"


def log_prob(d: Dag, mode: str = "auto") -> LogProbResult:
    """Surprisal of an instance.

    Each step contributes a multinomial factor over its block's target
    multiset times the product of degree ratios at draw time.  ``mode`` is
    ``"exact"`` (arbitrary-precision rational, replaying the degrees step
    by step), ``"float"`` (all draws at once), or ``"auto"`` (exact up to
    ``EXACT_CUTOFF`` steps).
    """
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "auto":
        mode = "exact" if d.n <= EXACT_CUTOFF else "float"
    if mode == "float":
        return LogProbResult(bits=_float_bits(d), probability=None, mode="float")
    n, m = d.n, d.m
    deg = [0] * (n + 1)
    if n >= 1:
        deg[0] = m
        deg[1] = m
    pnum, pden = 1, 1
    for t in range(2, n + 1):
        counts = Counter(d.targets[t - 1].tolist())
        step_num = multinomial(m, counts.values())
        for v, c in counts.items():
            step_num *= deg[v] ** c
            deg[v] += c
        pnum *= step_num
        pden *= (2 * (t - 1) * m) ** m
        deg[t] = m
    prob = Fraction(pnum, pden)
    bits = log2_fraction(prob.denominator, prob.numerator) if n >= 2 else 0.0
    return LogProbResult(bits=bits, probability=prob, mode="exact")


def _float_bits(d: Dag) -> float:
    """lg(1/P) in floating point, over all draws at once.

    A target's degree when step t draws it is m plus its occurrences at
    steps 2..t-1.  Sorting the draws by (target, step) puts those earlier
    occurrences right before each run of equal draws, and a run's length
    is that target's multiplicity inside its block.
    """
    n, m = d.n, d.m
    if n < 2:
        return 0.0
    key = np.sort((d.targets[1:] * n + np.arange(n - 1)[:, None]).ravel())
    run = np.flatnonzero(np.diff(key, prepend=-1))          # (target, step) run starts
    c = np.diff(run, append=key.size)                       # multiplicity in its block
    tgt = key[run] // n
    first = np.flatnonzero(np.diff(tgt, prepend=-1))        # first run of each target
    earlier = run - np.repeat(run[first], np.diff(first, append=run.size))
    lg_fact = np.array([math.log2(math.factorial(k)) for k in range(m + 1)])
    pools = m * np.log2(2.0 * m * np.arange(1, n)).sum()
    draws = (c * np.log2(m + earlier)).sum()
    mult = (n - 1) * lg_fact[m] - lg_fact[c].sum()
    return float(pools - draws - mult)
