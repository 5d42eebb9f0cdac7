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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ModelError
from .graph_model import Dag

EXACT_CUTOFF = 64  # largest n for which probabilities default to exact rationals
_EXACT_DRAWS = 4096  # and largest n*m


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
    """Surprisal of an instance, from one decomposition of its draws.

    Step t (t >= 2) draws m targets from a pool of 2(t-1)m endpoints, a
    target weighing its degree before the step.  Grouping the draws into
    (target, step) runs, a run of c equal draws at degree g contributes
    g^c / c!, and each step m! / (2(t-1)m)^m:

        P = m!^(n-1) * prod g^c / (prod c! * prod_{t=1}^{n-1} (2tm)^m).

    ``mode`` is ``"exact"`` (that ratio as a ``Fraction``, and lg(1/P) from
    its reduced terms), ``"float"`` (the same terms as a sum of logs), or
    ``"auto"`` (exact up to ``EXACT_CUTOFF`` steps and 4,096 draws).
    """
    if mode not in ("auto", "exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    n, m = d.n, d.m
    if mode == "auto":
        mode = "exact" if n <= EXACT_CUTOFF and n * m <= _EXACT_DRAWS else "float"
    steps = max(n - 1, 0)
    # sorting the draws by (target, step) puts each run right after that
    # target's earlier draws, which with its own m edges make up its degree
    key = np.sort((d.targets[1:] * n + np.arange(n - 1)[:, None]).ravel())
    run = np.flatnonzero(np.diff(key, prepend=-1))
    c = np.diff(run, append=key.size)                       # multiplicity in its block
    first = np.flatnonzero(np.diff(key[run] // n, prepend=-1))
    deg = m + run - np.repeat(run[first], np.diff(first, append=run.size))
    runs_of = np.bincount(c)                                # runs per multiplicity
    mults = np.flatnonzero(runs_of)
    if mode == "float":
        bits = (m * (steps * math.log2(2 * m) + _lg_factorial(steps)) - steps * _lg_factorial(m)
                + sum(int(runs_of[k]) * _lg_factorial(k) for k in mults.tolist())
                - float((c * np.log2(deg)).sum()))
        return LogProbResult(bits=bits, probability=None, mode="float")
    # m!^(n-1) / prod c! is the product of the blocks' multinomials, an integer
    mult = math.factorial(m) ** steps // math.prod(
        math.factorial(k) ** int(runs_of[k]) for k in mults.tolist())
    num = mult * math.prod(map(pow, deg.tolist(), c.tolist()))
    den = (2 * m) ** (m * steps) * math.factorial(steps) ** m
    prob = Fraction(num, den)
    bits = math.log2(prob.denominator) - math.log2(prob.numerator)
    return LogProbResult(bits=bits, probability=prob, mode="exact")


def _lg_factorial(k: int) -> float:
    """lg k!, from lgamma rather than a big-integer factorial."""
    return math.lgamma(k + 1) / math.log(2)
