"""Acceptance suite: one test per shipping criterion.

Each criterion runs as a single test at its stated tolerance and (where one
is stated) its runtime budget, so ``pytest -v`` prints one pass/fail line
per criterion.  A test that is a report rather than a hard gate (the space
curve of criterion 9) prints its measurements and fails only if the
computation itself breaks.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from graph_reference import admissible_orders, has_parallel_beyond_seed, random_mout_dag
from ingest_reference import dag_edges, multigraph, peel_relabel_counter, same_multigraph
from upag.construct import build, peel_edges, reduce_string
from upag.entropy import bounds_report, degree_entropy, h0_bits, h0_per_symbol
from upag.errors import OutOfRangeError
from upag.graph_model import (
    Dag,
    adjacency_string,
    in_degrees,
)
from upag.oracle import NaiveGraph, selfcheck
from upag.pa_gen import generate, log_prob
from upag.serialize import load, save
from upag.ugraph import CompressedGraph, LabelledGraph


# ---------------------------------------------------------------------------
# 1. four-vertex probability golden
# ---------------------------------------------------------------------------

def test_criterion_01_exact_probability_golden(dag4):
    assert adjacency_string(dag4).tolist() == [0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 1, 3]

    def compute():
        return log_prob(dag4, mode="exact"), degree_entropy(dag4)

    compute()  # warm import-time caches before timing
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        lp, h_deg = compute()
        best = min(best, time.perf_counter() - t0)

    assert lp.probability == Fraction(5, 864)
    assert abs(lp.bits - math.log2(864 / 5)) < 1e-6
    assert round(lp.bits, 4) == 7.4330
    assert abs(h_deg - 15.368) < 1e-3
    assert best < 1e-3, f"golden computation took {best * 1e3:.3f} ms"
    print(f"criterion 1: PASS  P=5/864 lg(1/P)={lp.bits:.6f} "
          f"H_deg={h_deg:.6f} runtime={best * 1e6:.0f}us")


# ---------------------------------------------------------------------------
# 2. worked string-reduction golden
# ---------------------------------------------------------------------------

def test_criterion_02_string_reduction_golden():
    res = reduce_string("abracadabraa", 4, want_trace=True)
    assert res.reduced == "araadaraa"
    h_before = h0_per_symbol("abracadabraa")
    h_after = h0_per_symbol(res.reduced)
    assert abs(h_before - 1.95915) < 1e-4
    assert abs(h_after - 1.22439) < 1e-4
    assert res.flag_order == [2, 1, 3]
    steps = [
        (t["symbol"], t["s_index"], t["block"],
         "".join(x for x in t["after"] if x is not None))
        for t in res.trace
    ]
    assert steps == [("c", 1, 2, "ada"), ("b", 3, 1, "ara"), ("b", 4, 3, "raa")]
    print(f"criterion 2: PASS  reduced={res.reduced} "
          f"H0pc {h_before:.5f}->{h_after:.5f} flags={res.flag_order}")


# ---------------------------------------------------------------------------
# 3. five-vertex structure golden
# ---------------------------------------------------------------------------

def test_criterion_03_scaffold_and_query_golden(dag5):
    indeg = in_degrees(dag5)
    for tie in ("index", "first-target"):
        b = build(dag5, tie=tie)
        for v in range(1, 6):
            block = dag5.targets[v - 1]
            assert b.parents[v] in block
            assert indeg[b.parents[v]] == indeg[block].min(), (
                f"tie={tie} v={v}: parent misses the minimal in-degree")

    built = build(dag5, tie="first-target")
    assert {v: int(built.parents[v]) for v in range(1, 6)} == {
        1: 0, 2: 1, 3: 1, 4: 3, 5: 3}
    assert np.array_equal(built.relabel, np.arange(6))  # preorder = identity
    assert built.nontree_orig.tolist() == [0, 0, 1, 1, 1, 1, 2, 2, 4, 4]
    assert built.nontree.tolist() == [0, 0, 1, 1, 1, 1, 2, 2, 4, 4]

    g = CompressedGraph.from_build(built)
    assert g.out_neighbour(4, 1) == 3
    assert g.out_neighbour(4, 2) == 2
    assert g.in_neighbour(1, 1) == 2
    assert g.in_neighbour(1, 3) == 2
    assert g.degree_in(1) == 6
    assert g.degree_in(5) == 0
    assert g.degree_in(0) == 3
    with pytest.raises(OutOfRangeError):
        g.in_neighbour(5, 1)
    print("criterion 3: PASS  parents={1:0,2:1,3:1,4:3,5:3} "
          "leftover=[0,0,1,1,1,1,2,2,4,4] queries ok")


# ---------------------------------------------------------------------------
# 4. reduction never raises per-character entropy
# ---------------------------------------------------------------------------

def test_criterion_04_reduction_property_suite():
    rng = np.random.default_rng(0xACC4)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        m = int(rng.integers(2, 9))
        blocks = int(rng.integers(1, 201))
        sigma = int(rng.integers(2, 51))
        s = rng.integers(0, sigma, size=m * blocks).tolist()
        res = reduce_string(s, m)
        assert h0_per_symbol(res.reduced) <= h0_per_symbol(s) + 1e-12
        checked += 1
    for _ in range(500):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 201))
        d = random_mout_dag(n, m, rng)
        b = build(d)
        res = reduce_string(list(adjacency_string(d)), m)
        assert h0_per_symbol(res.reduced) <= h0_per_symbol(adjacency_string(d)) + 1e-12
        assert Counter(b.nontree_orig.tolist()) == Counter(res.reduced), (
            "graph-level and string-level deletions disagree on frequencies")
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"property suite took {elapsed:.1f}s"
    print(f"criterion 4: PASS  {checked} cases, 0 violations, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. oracle equivalence sweep
# ---------------------------------------------------------------------------

def _check_exhaustive(g, ref):
    nv, m = ref.n + 1, ref.m
    vs = np.arange(nv)
    assert np.array_equal(g.degree_in_batch(vs), ref.indeg)
    assert [g.degree_out(int(v)) for v in vs] == [0] + [m] * (nv - 1)
    ov, oi, o_want = ref.out_edges(vs)
    assert np.array_equal(g.out_neighbour_batch(ov, oi), o_want)
    iv, ii, i_want = ref.in_edges(vs)
    assert np.array_equal(g.in_neighbour_batch(iv, ii), i_want)
    us, ws = (a.ravel() for a in np.meshgrid(vs, vs, indexing="ij"))
    assert np.array_equal(g.adjacent_batch(us, ws), ref.multiplicity_batch(us, ws) > 0)
    return nv + (nv - 1) * m + i_want.size + nv * nv + (nv - 1) * m


def _check_sampled(g, ref, rng, per_family):
    nv = ref.n + 1
    vs = rng.integers(0, nv, per_family)
    assert np.array_equal(g.degree_in_batch(vs), ref.indeg[vs])
    qv = rng.integers(1, nv, per_family)
    qi = rng.integers(1, ref.m + 1, per_family)
    assert np.array_equal(g.out_neighbour_batch(qv, qi), ref.rows[qv - 1, qi - 1])
    pool = np.flatnonzero(ref.indeg > 0)
    iv = pool[rng.integers(0, pool.size, per_family)]
    ij = 1 + (rng.integers(0, 1 << 30, per_family) % ref.indeg[iv])
    assert np.array_equal(g.in_neighbour_batch(iv, ij), ref.in_src[ref.in_start[iv] + ij - 1])
    us = rng.integers(0, nv, per_family)
    ws = rng.integers(0, nv, per_family)
    assert np.array_equal(g.adjacent_batch(us, ws), ref.multiplicity_batch(us, ws) > 0)
    return 4 * per_family


def test_criterion_05_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    queries = 0
    instances = 0
    for m in (1, 2, 3, 5, 10):
        for n in (10, 200, 5000):
            for k in range(50):
                seed = 100_000 * m + 10 * n + k
                d = generate(m, n, seed=seed)
                built = build(d)
                g = CompressedGraph.from_build(built)
                ref = NaiveGraph(m, n, built.tree_parents, built.nontree)
                if n <= 200:
                    queries += _check_exhaustive(g, ref)
                else:
                    rng = np.random.default_rng(seed)
                    # 400 per family x 250 instances = 1e5 sampled queries
                    # per query family across the n=5000 tier
                    queries += _check_sampled(g, ref, rng, per_family=400)
                instances += 1
    elapsed = time.perf_counter() - t0
    assert instances == 750
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    print(f"criterion 5: PASS  {instances} instances, {queries} queries, "
          f"0 mismatches, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. all admissible orders carry equal probability
# ---------------------------------------------------------------------------

def _reordered(d: Dag, tau) -> Dag:
    place = {v: k for k, v in enumerate(tau)}
    rows = [[place[int(t)] for t in d.targets[tau[k] - 1]]
            for k in range(1, d.n + 1)]
    return Dag(d.m, rows)


def test_criterion_06_order_invariant_probability():
    rng = np.random.default_rng(0xACC6)
    t0 = time.perf_counter()
    done = 0
    orders_seen = 0
    while done < 50:
        m = 1 + done % 2
        n = int(rng.integers(2, 8))
        d = generate(m, n, seed=int(rng.integers(0, 1 << 30)))
        if has_parallel_beyond_seed(d):
            continue
        probs = []
        for tau in admissible_orders(d):
            lp = log_prob(_reordered(d, tau), mode="exact")
            probs.append((lp.probability, lp.bits))
        assert probs, "no admissible order found"
        p0, b0 = probs[0]
        assert all(p == p0 for p, _ in probs), "exact rationals differ"
        assert all(abs(b - b0) < 1e-9 for _, b in probs)
        orders_seen += len(probs)
        done += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"order sweep took {elapsed:.1f}s"
    print(f"criterion 6: PASS  50 instances, {orders_seen} orders, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. peeling round trip
# ---------------------------------------------------------------------------

def test_criterion_07_peel_round_trip():
    rng = np.random.default_rng(0xACC7)
    simple = 0
    for m in (1, 2, 3, 5):
        for i in range(25):
            n = 2000 if i == 0 else int(rng.integers(1, 2001))
            d = generate(m, n, seed=int(rng.integers(0, 1 << 30)))
            edges = dag_edges(d)
            rec, order = peel_edges(n + 1, edges[:, 0], edges[:, 1], m)
            want, want_order = peel_relabel_counter(multigraph(n + 1, edges), m)
            assert rec == want and np.array_equal(order, want_order), f"m={m} n={n}"
            assert same_multigraph(n + 1, order[dag_edges(rec)], edges), f"m={m} n={n}"
            if not has_parallel_beyond_seed(d):
                simple += 1
                a, b = log_prob(rec), log_prob(d)
                if a.mode == "exact":
                    assert a.probability == b.probability, f"m={m} n={n}"
                else:
                    assert a.bits == pytest.approx(b.bits, rel=1e-9), f"m={m} n={n}"
    print(f"criterion 7: PASS  100 instances peeled as the reference does, mapped back "
          f"edge for edge; {simple} simple-beyond-seed histories equally likely")


# ---------------------------------------------------------------------------
# 8. space accounting
# ---------------------------------------------------------------------------

def _space_bounds_hold(d: Dag) -> dict:
    built = build(d)
    g = CompressedGraph.from_build(built)
    sp = g.space_report()
    n, m = d.n, d.m
    assert sp["tree_payload_bits"] == 2 * (n + 1)
    distinct = int(np.unique(built.nontree).size) if built.nontree.size else 0
    assert sp["sigma_eff"] == distinct
    assert sp["wt_payload_bits"] <= h0_bits(built.nontree) + 2 * distinct + 1e-9
    budget = (m - 1) * n * math.ceil(math.log2(n)) + 2 * (n + 1) if n else 2.0
    assert sp["payload_bits"] <= budget
    return sp


def test_criterion_08_space_accounting(dag4, dag5):
    _space_bounds_hold(dag4)
    _space_bounds_hold(dag5)
    fractions = []
    for k in range(10, 17):
        d = generate(3, 1 << k, seed=k)
        sp = _space_bounds_hold(d)
        fractions.append(sp["directory_bits"] / sp["payload_bits"])
    trend = " ".join(f"2^{k}:{f:.4f}" for k, f in zip(range(10, 17), fractions))
    assert all(b < a for a, b in zip(fractions, fractions[1:])), (
        f"overhead fraction not decreasing: {trend}")
    assert fractions[-1] <= 0.30, f"overhead at n=2^16 is {fractions[-1]:.4f}"
    print(f"criterion 8: PASS  overhead fractions {trend}")


# ---------------------------------------------------------------------------
# 9. space against the bound as n grows (report-only)
# ---------------------------------------------------------------------------

def test_criterion_09_entropy_trend_report():
    # the paper's space claim as a curve: payload and total resident bits of
    # the compressed graph over the bound lg(1/P) - lg n!; no band is picked
    rows = ["criterion 9: REPORT  space / (lg(1/P) - lg n!), m = 3, one seed each",
            "     n  payload/bound  total/bound"]
    for k in range(10, 19, 2):
        d = generate(3, 1 << k, seed=k)
        bound = bounds_report(d)["unlabelled_lower_bound_bits"]
        sp = CompressedGraph.from_build(build(d)).space_report()
        payload, total = sp["payload_bits"] / bound, sp["total_bits"] / bound
        assert all(math.isfinite(x) and x > 0 for x in (bound, payload, total))
        rows.append(f"  2^{k}  {payload:13.3f}  {total:11.3f}")
    print("\n".join(rows))


# ---------------------------------------------------------------------------
# 10. serialization round trip and determinism
# ---------------------------------------------------------------------------

def test_criterion_10_serialization_round_trip(tmp_path):
    d = generate(3, 300, seed=77)
    g = CompressedGraph.from_dag(d)
    p1, p2 = tmp_path / "a.upag", tmp_path / "b.upag"
    save(p1, g)
    checked, bad = selfcheck(load(p1), d, "index")
    assert bad is None, bad
    assert checked > 0

    pl = tmp_path / "l.upag"
    save(pl, LabelledGraph.from_dag(d))
    checked_l, bad_l = selfcheck(load(pl), d, "index")
    assert bad_l is None, bad_l
    assert checked_l > 0

    d_again = generate(3, 300, seed=77)
    save(p2, CompressedGraph.from_dag(d_again))
    assert p1.read_bytes() == p2.read_bytes()
    print(f"criterion 10: PASS  selfcheck {checked}+{checked_l} queries, "
          f"byte-identical rebuild ({p1.stat().st_size} bytes)")
