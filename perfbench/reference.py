"""Expected answers for the benchmark, computed from an instance's target blocks.

The reference is plain numpy over the generated ``Dag`` targets; no upag
code path produces an expected answer.  It encodes the query conventions
of the two graph forms:

compressed form
    Out-edge 1 of a vertex is its scaffold parent: the target with the
    fewest in-edges, ties to the lower label, first occurrence in the block.
    The other out-edges follow in draw order.  In-edges list the scaffold
    children first, then the string occurrences, each group ordered by the
    stored (relabelled) source label.

labelled form
    Out-edges in draw order; in-edges by ascending source label.

Vertex arguments and answers of the compressed form live in the stored
labelling.  ``Checker.to_stored`` maps a reference vertex into it and
``Checker.to_orig`` maps an answer back before it is compared.
"""

from __future__ import annotations

import math

import numpy as np


def ranks_within(sorted_keys: np.ndarray) -> np.ndarray:
    """Position of each element inside its run of equal keys (keys sorted)."""
    if not sorted_keys.size:
        return np.zeros(0, dtype=np.int64)
    idx = np.arange(sorted_keys.size)
    run_start = np.concatenate([[0], np.flatnonzero(np.diff(sorted_keys)) + 1])
    lengths = np.diff(np.concatenate([run_start, [sorted_keys.size]]))
    return idx - np.repeat(run_start, lengths)


class Reference:
    """Degrees, out-rows, in-lists and edge multiplicities of one instance."""

    def __init__(self, targets: np.ndarray):
        t = np.asarray(targets, dtype=np.int64)
        self.targets = t
        self.n, self.m = t.shape
        n, m = self.n, self.m
        nv = n + 1
        self.indeg = np.bincount(t.ravel(), minlength=nv)
        self.in_start = np.concatenate([[0], np.cumsum(self.indeg)[:-1]])
        src = np.repeat(np.arange(1, nv), m)
        dst = t.ravel()
        self.src, self.dst = src, dst
        codes = np.minimum(src, dst) * nv + np.maximum(src, dst)
        self.edge_codes, self.edge_mult = np.unique(codes, return_counts=True)
        # scaffold parent: rarest target, ties to the lower label, first occurrence
        drop = np.argmin(self.indeg[t] * nv + t, axis=1)
        rows = np.arange(n)
        self.parent = np.full(nv, -1, dtype=np.int64)
        self.parent[1:] = t[rows, drop]
        keep = np.ones((n, m), dtype=bool)
        keep[rows, drop] = False
        self.rest = t[keep].reshape(n, m - 1)
        self.out_rows = np.column_stack([self.parent[1:], self.rest])
        order = np.lexsort((src, dst))
        self.lab_in = src[order]
        self.cmp_in = None

    # -- set-up for the compressed form --------------------------------------

    def set_relabel(self, relabel: np.ndarray) -> None:
        """Order the compressed in-lists by the stored labels of their sources."""
        n, m = self.n, self.m
        nv = n + 1
        kid_src = np.arange(1, nv)
        str_src = np.repeat(np.arange(1, nv), m - 1)
        s = np.concatenate([kid_src, str_src])
        d = np.concatenate([self.parent[1:], self.rest.ravel()])
        group = np.concatenate([np.zeros(n, np.int64), np.ones(str_src.size, np.int64)])
        self.cmp_in = s[np.lexsort((relabel[s], group, d))]

    # -- answers ---------------------------------------------------------------

    def multiplicity(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        nv = self.n + 1
        codes = np.minimum(us, vs) * nv + np.maximum(us, vs)
        at = np.searchsorted(self.edge_codes, codes)
        at = np.minimum(at, self.edge_codes.size - 1)
        hit = self.edge_codes[at] == codes
        return np.where(hit & (us != vs), self.edge_mult[at], 0)

    def out_row(self, form: str, v: int) -> np.ndarray:
        if v == 0:
            return np.zeros(0, dtype=np.int64)
        return (self.out_rows if form == "compressed" else self.targets)[v - 1]

    def in_list(self, form: str, v: int) -> np.ndarray:
        flat = self.cmp_in if form == "compressed" else self.lab_in
        s = self.in_start[v]
        return flat[s:s + self.indeg[v]]

    def out_batch(self, vs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Compressed-form out-neighbours of ``vs`` (>= 1) at 1-based ``idx``."""
        return self.out_rows[vs - 1, idx - 1]

    def in_batch(self, vs: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """Compressed-form in-neighbours of ``vs`` at 1-based ``idx``."""
        return self.cmp_in[self.in_start[vs] + idx - 1]

    # -- pricing ---------------------------------------------------------------

    def surprisal_bits(self) -> float:
        """lg(1/P) of the instance, replaying degrees with array passes.

        Step t (t >= 2) draws m targets from a pool of 2(t-1)m endpoints; a
        target v weighs its degree before the step, m plus its earlier
        draws.  The multinomial factor of a block is m! / prod(c!).
        """
        n, m = self.n, self.m
        if n < 2:
            return 0.0
        blocks = self.targets[1:]
        steps = np.arange(2, n + 1, dtype=np.float64)
        # earlier copies of the same target inside the block
        dup = np.zeros(blocks.shape, dtype=np.int64)
        for j in range(1, m):
            dup[:, j] = (blocks[:, :j] == blocks[:, j:j + 1]).sum(axis=1)
        flat = blocks.ravel()
        order = np.argsort(flat, kind="stable")
        seen = np.empty(flat.size, dtype=np.int64)
        seen[order] = ranks_within(flat[order])
        prior = seen - dup.ravel()
        lg_pool = np.log2(2.0 * (steps - 1.0) * m)
        draw_bits = m * lg_pool.sum() - np.log2(m + prior.astype(np.float64)).sum()
        lg_fact = np.log2(np.arange(1, m + 1, dtype=np.float64))
        mult_bits = (n - 1) * math.log2(math.factorial(m)) - lg_fact[dup].sum()
        return float(draw_bits - mult_bits)

    def degree_entropy_bits(self) -> float:
        c = self.indeg[self.indeg > 0].astype(np.float64)
        return float(np.sum(c * (np.log2(c.sum()) - np.log2(c))))


class Checker:
    """Counts attempted and failed checks; keeps the first mismatch."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None
        self.to_stored: np.ndarray | None = None
        self.to_orig: np.ndarray | None = None

    def set_relabel(self, relabel) -> bool:
        """Accept ``build``'s relabelling if it is a permutation fixing 0."""
        r = np.asarray(relabel, dtype=np.int64)
        ok = self.check(
            r.ndim == 1 and r.size >= 1 and r[0] == 0
            and np.array_equal(np.sort(r), np.arange(r.size)),
            "relabelling is not a permutation of the vertices fixing the seed",
        )
        if ok:
            self.to_stored = r
            self.to_orig = np.empty_like(r)
            self.to_orig[r] = np.arange(r.size)
        return ok

    def fail(self, count: int, what: str) -> None:
        self.failed += count
        if self.first_failure is None:
            self.first_failure = what
            print(f"first mismatch: {what}", flush=True)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(1, what)
        return bool(ok)

    def check_lanes(self, got, want, what: str) -> None:
        """Compare two arrays lane by lane; every differing lane fails."""
        want = np.asarray(want)
        self.attempted += want.size
        got = np.asarray(got)
        if got.shape != want.shape:
            self.fail(want.size, f"{what}: shape {got.shape} != {want.shape}")
            return
        bad = np.flatnonzero(got != want)
        if bad.size:
            k = int(bad[0])
            self.fail(int(bad.size), f"{what}: lane {k} gave {got[k]!r}, want {want[k]!r}")

    def raised(self, count: int, what: str, exc: BaseException) -> None:
        self.attempted += count
        self.fail(count, f"{what}: raised {type(exc).__name__}: {exc}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
