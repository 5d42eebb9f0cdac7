"""Tests for the plain-list reference implementations.

The oracle is what every compressed structure is judged against, so its own
behaviour gets pinned here on hand-enumerable instances.
"""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest

from graph_reference import admissible_orders, random_mout_dag
from upag.construct import build
from upag.graph_model import Dag
from upag.oracle import NaiveGraph, selfcheck
from upag.pa_gen import generate
from upag.ugraph import CompressedGraph, LabelledGraph


# ---------------------------------------------------------------------------
# admissible arrival orders
# ---------------------------------------------------------------------------

def test_chain_has_exactly_one_order():
    chain = Dag(1, [[0], [1], [2]])
    assert list(admissible_orders(chain)) == [(0, 1, 2, 3)]


def test_star_centred_on_first_vertex_has_two_orders():
    star = Dag(1, [[0], [1], [1]])
    assert list(admissible_orders(star)) == [(0, 1, 2, 3), (0, 1, 3, 2)]


def test_all_seed_targets_allow_every_tail_order():
    flat = Dag(1, [[0], [0], [0]])
    got = list(admissible_orders(flat))
    assert len(got) == 6
    assert set(got) == {(0,) + p for p in permutations((1, 2, 3))}


def test_four_vertex_instance_orders(dag4):
    got = list(admissible_orders(dag4))
    assert (0, 1, 2, 3, 4) in got
    assert len(got) == 3
    for tau in got:
        assert tau[0] == 0 and tau[1] == 1  # everything targets vertex 1


def test_identity_is_always_admissible_and_count_is_bounded(rng):
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = random_mout_dag(n, 2, rng)
        orders = list(admissible_orders(d))
        identity = tuple(range(n + 1))
        assert identity in orders
        assert 1 <= len(orders) <= math.factorial(n)
        assert all(tau[0] == 0 for tau in orders)


# ---------------------------------------------------------------------------
# naive adjacency structures
# ---------------------------------------------------------------------------

def test_naive_from_dag_matches_hand_counts(dag5):
    # no tree parents: the whole target string, vertex names kept
    ref = NaiveGraph(dag5.m, dag5.n, None, dag5.targets)
    assert [ref.degree_in(v) for v in range(6)] == [3, 6, 2, 2, 2, 0]
    assert [ref.degree_out(v) for v in range(6)] == [0, 3, 3, 3, 3, 3]
    assert ref.out_lists == [[], [0, 0, 0], [1, 1, 1], [1, 1, 1], [3, 2, 2], [3, 4, 4]]
    assert ref.in_lists[1] == [2, 2, 2, 3, 3, 3]
    assert ref.in_lists[3] == [4, 5]
    assert ref.adjacent(4, 2) and ref.adjacent(2, 4)
    assert not ref.adjacent(2, 5) and not ref.adjacent(0, 0)
    assert ref.mult[5, 4] == 2 and ref.mult[4, 5] == 2


def test_naive_structures_are_symmetric(rng):
    d = random_mout_dag(40, 3, rng)
    ref = NaiveGraph(d.m, d.n, None, d.targets)
    assert np.array_equal(ref.mult, ref.mult.T)
    assert ref.mult.diagonal().sum() == 0
    assert sum(map(len, ref.in_lists)) == 3 * 40
    assert sum(map(len, ref.out_lists)) == 3 * 40
    assert np.array_equal(ref.matrix, ref.mult > 0)


def _per_edge_lists(m, n, tree_parents, string):
    """Out- and in-lists from one plain loop over the edges: the tree edges
    in source order, then the string in position order."""
    outs, ins = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]
    if tree_parents is not None:
        for v in range(1, n + 1):
            outs[v].append(int(tree_parents[v]))
            ins[int(tree_parents[v])].append(v)
    width = m if tree_parents is None else m - 1
    for pos, t in enumerate(np.ravel(string).tolist()):
        outs[1 + pos // width].append(t)
        ins[t].append(1 + pos // width)
    return outs, ins


def _per_edge_cases():
    for m in (1, 2, 3, 5):
        for n in (0, 1, 2, 3, 10, 57):
            for seed in range(4):
                yield generate(m, n, seed=seed)
    # blocks that repeat a target, under both tie-breaks
    yield Dag(3, [[0, 0, 0], [1, 1, 0], [2, 1, 2], [3, 3, 3], [1, 4, 1]])
    yield Dag(2, [[0, 0], [1, 1], [1, 1], [3, 2], [4, 4], [5, 3]])


def test_naive_arrays_match_a_per_edge_loop():
    # the one derivation every check reads, pinned against the plainest one;
    # m = 1 with a scaffold leaves an empty string
    for d in _per_edge_cases():
        forms = [(None, d.targets)] + [(b.tree_parents, b.nontree)
                                       for b in (build(d), build(d, tie="first-target"))]
        for parents, string in forms:
            ref = NaiveGraph(d.m, d.n, parents, string)
            outs, ins = _per_edge_lists(d.m, d.n, parents, string)
            assert ref.rows.tolist() == outs[1:]
            assert ref.indeg.tolist() == [len(x) for x in ins]
            assert ref.in_start.tolist() == np.cumsum([0] + [len(x) for x in ins[:-1]]).tolist()
            assert ref.in_src.tolist() == [s for x in ins for s in x]
            assert ref.out_lists == outs and ref.in_lists == ins
            assert [ref.degree_in(v) for v in range(d.n + 1)] == [len(x) for x in ins]
            assert [ref.degree_out(v) for v in range(d.n + 1)] == [len(x) for x in outs]


def test_scaffold_naive_agrees_with_dag_naive(dag5):
    # the scaffold split (tree parents + leftover string) must describe the
    # same multigraph as the raw blocks once the BFS relabelling is
    # applied; for this instance under the first-target tie-break the
    # relabelling is the identity, so the two references must coincide
    built = build(dag5, tie="first-target")
    scaffold = NaiveGraph(built.m, built.n, built.tree_parents, built.nontree)
    direct = NaiveGraph(dag5.m, dag5.n, None, dag5.targets)
    assert np.array_equal(scaffold.mult, direct.mult)
    assert [sorted(a) == sorted(b) for a, b in zip(scaffold.out_lists, direct.out_lists)]
    assert [len(a) for a in scaffold.in_lists] == [len(b) for b in direct.in_lists]


def test_scaffold_in_lists_put_tree_children_first(dag5):
    built = build(dag5, tie="first-target")
    ref = NaiveGraph(built.m, built.n, built.tree_parents, built.nontree)
    # vertex 1's tree children are 2 and 3; its remaining in-edges come from
    # leftover-string occurrences in position order
    assert ref.in_lists[1][:2] == [2, 3]
    assert sorted(ref.in_lists[1]) == [2, 2, 2, 3, 3, 3]


def test_multiplicity_batch_matches_the_matrix(rng):
    d = random_mout_dag(30, 3, rng)
    for ref in (NaiveGraph(d.m, d.n, None, d.targets),
                NaiveGraph(d.m, d.n, build(d).tree_parents, build(d).nontree)):
        us, vs = (a.ravel() for a in np.meshgrid(np.arange(31), np.arange(31)))
        want = np.where(us == vs, 0, ref.mult[us, vs])
        assert np.array_equal(ref.multiplicity_batch(us, vs), want)


# ---------------------------------------------------------------------------
# batch selfcheck, both forms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("form", [CompressedGraph.from_dag, LabelledGraph.from_dag],
                         ids=["compressed", "labelled"])
def test_selfcheck_counts_every_answer(form):
    d = generate(2, 40, seed=3)
    checked, bad = selfcheck(form(d), d, "index")
    # every in-degree, out-edge, in-edge and ordered pair
    assert bad is None and checked == 41 + 2 * 80 + 41 * 41


@pytest.mark.parametrize("form", [CompressedGraph.from_dag, LabelledGraph.from_dag],
                         ids=["compressed", "labelled"])
def test_selfcheck_samples_a_large_graph(form, monkeypatch):
    # linear memory: neither the oracle's (n+1)^2 multiplicity matrix nor
    # its per-vertex lists are ever built
    monkeypatch.setattr(NaiveGraph, "mult", property(lambda self: pytest.fail("matrix built")))
    for name in ("out_lists", "in_lists"):
        monkeypatch.setattr(NaiveGraph, name, property(lambda self: pytest.fail("lists built")))
    d = generate(2, 2500, seed=3)
    checked, bad = selfcheck(form(d), d, "index")
    assert bad is None and checked > 2000 + 10000


@pytest.mark.parametrize("form", [CompressedGraph.from_dag, LabelledGraph.from_dag],
                         ids=["compressed", "labelled"])
def test_selfcheck_reports_the_first_mismatch(form):
    d = generate(2, 40, seed=3)
    g = form(d)
    _, bad = selfcheck(g, generate(2, 40, seed=4), "index")
    assert bad.startswith("MISMATCH ")
    assert selfcheck(g, generate(2, 41, seed=3))[1].startswith("MISMATCH shape")
    # one wrong in-edge answer is named by vertex and index
    honest = g.in_neighbour_batch
    g.in_neighbour_batch = lambda vs, ii: honest(vs, ii) + (np.arange(len(vs)) == 7)
    checked, bad = selfcheck(g, d, "index")
    assert checked == 41 + 80 + 7
    assert bad.startswith("MISMATCH in_neighbour v=") and " i=" in bad


# ---------------------------------------------------------------------------
# uniform m-out control generator
# ---------------------------------------------------------------------------

def test_random_mout_dag_is_valid(rng):
    for m in (1, 2, 4):
        d = random_mout_dag(60, m, rng)
        assert d.targets.shape == (60, m)
        assert np.array_equal(d.targets[0], np.zeros(m))
        for t in range(1, 61):
            assert d.targets[t - 1].max() < t


def test_random_mout_dag_is_seed_deterministic():
    a = random_mout_dag(30, 2, np.random.default_rng(7))
    b = random_mout_dag(30, 2, np.random.default_rng(7))
    assert np.array_equal(a.targets, b.targets)
