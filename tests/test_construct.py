import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingest_reference import (
    bfs_deque,
    dag_edges,
    multigraph,
    peel_relabel_counter,
    preorder_stack,
    same_multigraph,
)
from upag.bptree import BPTree
from upag.construct import (
    BuildResult,
    _bfs,
    build,
    freq_rank,
    peel_edges,
    reduce_string,
)
from upag.entropy import h0_per_symbol
from upag.graph_model import Dag, ModelError, adjacency_string
from upag.pa_gen import generate


# ---------------------------------------------------------------------------
# string reduction: the fully worked 12-character example
# ---------------------------------------------------------------------------

def test_reduce_worked_example():
    res = reduce_string("abracadabraa", 4, want_trace=True)
    assert res.sigma == {"c": 0, "d": 1, "b": 2, "r": 3, "a": 4}
    assert res.flag_order == [2, 1, 3]
    assert res.deleted == ["b", "c", "b"]  # per block, not per step
    assert res.reduced == "araadaraa"
    assert res.selected_indices == [1, 3, 4]
    assert res.trace[0]["symbol"] == "c"
    assert res.trace[0]["after"] == (None, "a", "d", "a")
    assert res.trace[1]["after"] == ("a", None, "r", "a")
    assert res.trace[2]["after"] == (None, "r", "a", "a")


def test_reduce_worked_example_entropy():
    before = h0_per_symbol("abracadabraa")
    after = h0_per_symbol("araadaraa")
    assert before == pytest.approx(1.95915, abs=1e-4)
    assert after == pytest.approx(1.22439, abs=1e-4)
    assert after <= before


def test_reduce_single_char_blocks_vanish():
    res = reduce_string("abab", 1)
    assert res.reduced == ""
    assert res.deleted == list("abab")


def test_reduce_whole_string_one_block():
    res = reduce_string("zzya", 4)
    # rarest symbol is 'a' (count 1, smallest letter wins ties)
    assert res.reduced == "zzy"
    assert res.flag_order == [1]


def test_reduce_rejects_ragged_input():
    with pytest.raises(ValueError):
        reduce_string("abcde", 2)
    with pytest.raises(ValueError):
        reduce_string("abc", 0)


def test_reduce_empty():
    res = reduce_string("", 3)
    assert res.reduced == ""
    assert res.flag_order == []


def test_reduce_no_stuck_state_on_duplicate_blocks():
    # both blocks are [0, 1]; the first step must cross out an occurrence
    # of every letter of the flagged block, or step two would stall
    res = reduce_string([0, 0, 1, 1], 2)
    assert res.reduced == [0, 1]
    assert res.flag_order == [1, 2]


def reference_reduction(seq, m):
    """Independent oracle: delete each block's first copy of its rarest letter."""
    from collections import Counter

    counts = Counter(seq)
    rank = {s: r for r, s in enumerate(sorted(counts, key=lambda x: (counts[x], x)))}
    out = []
    for j in range(0, len(seq), m):
        blk = list(seq[j : j + m])
        blk.pop(blk.index(min(blk, key=lambda x: rank[x])))
        out.extend(blk)
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_reduce_matches_per_block_oracle(data):
    m = data.draw(st.integers(min_value=1, max_value=5))
    nblk = data.draw(st.integers(min_value=0, max_value=12))
    seq = data.draw(
        st.lists(st.integers(min_value=0, max_value=6), min_size=m * nblk, max_size=m * nblk)
    )
    res = reduce_string(seq, m)
    assert res.reduced == reference_reduction(seq, m)
    assert len(res.reduced) == len(seq) - nblk
    if res.reduced:
        assert h0_per_symbol(res.reduced) <= h0_per_symbol(seq) + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_reduce_selected_index_bound_on_instances(m, n, seed):
    # on attachment strings the i-th step always finds its letter within
    # the first (i-1)*m + 1 surviving slots of S
    d = generate(m, n, seed=seed)
    res = reduce_string(list(adjacency_string(d)), m)
    for i, k in enumerate(res.selected_indices, start=1):
        assert k <= (i - 1) * m + 1


# ---------------------------------------------------------------------------
# vertex ranking
# ---------------------------------------------------------------------------

def test_freq_rank_index_tie(dag5):
    sigma = freq_rank(dag5)
    # in-degrees [3, 6, 2, 2, 2, 0]: vertex 5 rarest, then 2,3,4 by index
    assert sigma.tolist() == [4, 5, 1, 2, 3, 0]


def test_freq_rank_first_target_tie(dag5):
    sigma = freq_rank(dag5, tie="first-target")
    # 3 first targeted at position 9, 2 at 10, 4 at 13
    assert sigma.tolist() == [4, 5, 2, 1, 3, 0]


def test_freq_rank_explicit_order(dag5):
    with pytest.raises(ValueError):
        freq_rank(dag5, tie="alphabetical")


# ---------------------------------------------------------------------------
# scaffold construction: frozen five-vertex goldens under both tie-breaks
# ---------------------------------------------------------------------------

def test_build_default_tie(dag5):
    b = build(dag5)
    assert b.parents.tolist() == [-1, 0, 1, 1, 2, 3]
    # BFS order is the identity here (preorder would swap 3 and 4)
    assert b.relabel.tolist() == [0, 1, 2, 3, 4, 5]
    assert b.inverse.tolist() == [0, 1, 2, 3, 4, 5]
    assert b.tree_parents.tolist() == [-1, 0, 1, 1, 2, 3]
    assert b.nontree.tolist() == [0, 0, 1, 1, 1, 1, 3, 2, 4, 4]
    assert b.nontree_orig.tolist() == [0, 0, 1, 1, 1, 1, 3, 2, 4, 4]


def test_build_first_target_tie(dag5):
    b = build(dag5, tie="first-target")
    assert b.parents.tolist() == [-1, 0, 1, 1, 3, 3]
    assert b.relabel.tolist() == [0, 1, 2, 3, 4, 5]
    assert b.tree_parents.tolist() == [-1, 0, 1, 1, 3, 3]
    assert b.nontree.tolist() == [0, 0, 1, 1, 1, 1, 2, 2, 4, 4]


def test_build_four_vertex(dag4):
    b = build(dag4)
    assert b.tree_parents.tolist() == [-1, 0, 1, 1, 3]
    assert b.relabel.tolist() == [0, 1, 2, 3, 4]
    assert b.nontree.tolist() == [0, 0, 0, 0, 0, 1, 0, 1]


def test_build_single_vertex():
    d = Dag(2, np.zeros((0, 2), dtype=np.int64))
    b = build(d)
    assert b.tree_parents.tolist() == [-1]
    assert b.nontree.size == 0


def test_build_m1_nontree_empty():
    d = generate(1, 30, seed=5)
    b = build(d)
    assert b.nontree.size == 0
    assert np.all(b.tree_parents[1:] < np.arange(1, 31))


def test_build_matches_string_reduction():
    # deleting each block's rarest target must agree with the step-by-step
    # reduction run on the flat target string
    for seed in range(6):
        d = generate(3, 50, seed=seed)
        b = build(d)
        res = reduce_string(list(adjacency_string(d)), 3)
        assert b.nontree_orig.tolist() == res.reduced


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=2, max_value=4),
    n=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_build_invariants(m, n, seed):
    d = generate(m, n, seed=seed)
    b = build(d)
    nv = n + 1
    # relabel is a permutation with fixed point 0, tree is in BFS order
    assert np.array_equal(np.sort(b.relabel), np.arange(nv))
    assert b.relabel[0] == 0
    assert np.array_equal(b.relabel[b.inverse], np.arange(nv))
    assert np.all(b.tree_parents[1:] < np.arange(1, nv))
    assert np.all(np.diff(b.tree_parents[1:]) >= 0)
    assert b.nontree.shape == (n * (m - 1),)
    # multiset of edges is preserved: parent edge + leftover block
    for j in range(1, nv):
        orig = b.inverse[j]
        blk = sorted(d.targets[orig - 1].tolist())
        kept = sorted(
            b.inverse[b.nontree[(j - 1) * (m - 1) : j * (m - 1)]].tolist()
            + [b.inverse[b.tree_parents[j]]]
        )
        assert kept == blk
    # leftover string never compresses worse than the full target string
    if b.nontree_orig.size:
        assert h0_per_symbol(b.nontree_orig) <= h0_per_symbol(adjacency_string(d)) + 1e-12


def _random_tree(nv, rng, spread):
    """Parents with parent[v] < v; small ``spread`` makes deep trees."""
    v = np.arange(1, nv)
    back = rng.integers(0, 1 << 30, nv - 1) % np.minimum(v, spread)
    return np.concatenate([[-1], v - 1 - back])


def _tree_depths(parents):
    depth = np.zeros(parents.size, dtype=np.int64)
    for v in range(1, parents.size):           # parent[v] < v
        depth[v] = depth[parents[v]] + 1
    return depth


def test_preorder_matches_stack_reference():
    rng = np.random.default_rng(31)
    trees = [np.array([-1]), np.array([-1, 0]), np.arange(-1, 3000),  # a path
             np.concatenate([[-1], np.zeros(2999, np.int64)]),          # a star
             np.concatenate([[-1], np.arange(1000), np.zeros(5, np.int64),
                             np.arange(1, 999)])]                         # mixed
    trees += [_random_tree(nv, rng, spread) for nv in (3, 17, 500, 4097)
              for spread in (1, 2, 5, 1 << 30)]
    trees += [build(generate(m, 3000, seed=m)).parents for m in (1, 2, 3, 5)]
    for parents in trees:
        # BFS lists the depths in turn, the vertices of each in preorder
        by_depth_then_preorder = np.lexsort((preorder_stack(parents), _tree_depths(parents)))
        assert np.array_equal(np.argsort(_bfs(parents)), by_depth_then_preorder), parents[:20]


def test_bfs_matches_deque_reference():
    rng = np.random.default_rng(37)
    trees = [np.array([-1]), np.array([-1, 0]), np.arange(-1, 3000),
             np.concatenate([[-1], np.zeros(2999, np.int64)]),
             np.concatenate([[-1], np.arange(1000), np.zeros(5, np.int64),
                             np.arange(1, 999)]),
             np.concatenate([np.arange(-1, 2000), np.full(2000, 2000)])]  # a broom
    trees += [_random_tree(nv, rng, spread) for nv in (3, 17, 500, 4097)
              for spread in (1, 2, 5, 1 << 30)]
    trees += [build(generate(m, 3000, seed=s)).parents for m in (1, 2, 3, 5) for s in (m, 77)]
    for parents in trees:
        assert np.array_equal(_bfs(parents), bfs_deque(parents)), parents[:20]


def test_bfs_of_a_deep_path_builds_fast():
    # a path-shaped scaffold of depth 2^17: the relabelling must take
    # O(log n) numpy rounds, not one per level
    n = 2 ** 17
    d = Dag(1, np.arange(n).reshape(n, 1))
    t0 = time.perf_counter()
    b = build(d)
    tree = BPTree(b.tree_parents)
    elapsed = time.perf_counter() - t0
    assert np.array_equal(b.relabel, np.arange(n + 1))
    assert tree.parent(n) == n - 1 and tree.children(n - 1) == [n]
    assert elapsed < 1.0, elapsed


# ---------------------------------------------------------------------------
# peeling a multigraph back into its history
# ---------------------------------------------------------------------------

def _peel_checked(nv: int, pairs, m: int) -> tuple[Dag, np.ndarray]:
    """``peel_edges`` on edge rows, checked against the reference peeler and
    mapped back through the arrival order onto the input multigraph."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    got, order = peel_edges(nv, pairs[:, 0], pairs[:, 1], m)
    want, want_order = peel_relabel_counter(multigraph(nv, pairs), m)
    assert got == want and np.array_equal(order, want_order)
    assert same_multigraph(nv, order[dag_edges(got)], pairs)
    return got, order


def test_peel_recovers_dag5(dag5):
    got, order = _peel_checked(6, dag_edges(dag5), 3)
    assert got.targets.tolist() == [[0, 0, 0], [0, 0, 0], [1, 2, 2], [1, 3, 3], [0, 0, 0]]
    assert order.tolist() == [1, 3, 2, 4, 5, 0]


def test_peel_recovers_dag4(dag4):
    got, order = _peel_checked(5, dag_edges(dag4), 3)
    assert got.targets.tolist() == [[0, 0, 0], [0, 1, 1], [0, 1, 2], [0, 0, 1]]
    assert order.tolist() == [0, 1, 3, 4, 2]


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_peel_round_trip(m):
    rng_seed = 7700 + m
    for i in range(25):
        n = [1, 2, 3, 17, 64, 200, 1000, 2000][i % 8]
        d = generate(m, n, seed=rng_seed * 31 + i)
        _peel_checked(n + 1, dag_edges(d), m)


def test_peel_rejects_non_instance():
    # a 4-cycle: every vertex has degree 2, but peeling vertex 1 leaves a
    # triangle-ish remainder that stalls
    cycle = np.array([(0, 1), (1, 2), (2, 3), (3, 0)])
    for peeler in (lambda: peel_edges(4, cycle[:, 0], cycle[:, 1], 2),
                   lambda: peel_relabel_counter(multigraph(4, cycle), 2)):
        with pytest.raises(ModelError):
            peeler()


def test_peel_rejects_wrong_m(dag5):
    e = dag_edges(dag5)
    for m in (2, 0):
        with pytest.raises(ModelError):
            peel_edges(6, e[:, 0], e[:, 1], m)
    with pytest.raises(ModelError):
        peel_relabel_counter(multigraph(6, e), 2)


def test_peel_empty_graph():
    d, order = peel_edges(1, [], [], 3)
    assert d.n == 0 and order.tolist() == [0]
    assert peel_relabel_counter(multigraph(1, []), 3)[0] == d
    with pytest.raises(ModelError):
        peel_edges(0, [], [], 3)


def test_peel_relabel_recovers_shuffled_labels():
    # permute vertex labels, then recover some arrival history: the edge
    # multiset must match through the recovered order map
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        d = generate(m, 25, seed=int(rng.integers(1 << 30)))
        perm = np.concatenate(([0], 1 + rng.permutation(d.n)))
        _peel_checked(d.n + 1, perm[dag_edges(d)], m)


def test_peel_relabel_probability_invariant():
    # any recovered history of a simple-beyond-seed instance is equally likely
    from upag.graph_model import has_parallel_beyond_seed
    from upag.pa_gen import log_prob

    checked = 0
    for seed in range(60):
        d = generate(2, 6, seed=seed)
        if has_parallel_beyond_seed(d):
            continue
        checked += 1
        e = dag_edges(d)
        rec, _ = peel_edges(7, e[:, 0], e[:, 1], 2)
        assert log_prob(rec).probability == log_prob(d).probability
    assert checked >= 3


def _histories(nv: int, us, vs, m: int) -> set[bytes]:
    """Block matrices of every attachment history of a multigraph, by brute
    force over arrival orders: each vertex after the first has exactly m
    edges to vertices before it, and its block is their arrival ranks."""
    us, vs = np.asarray(us), np.asarray(vs)
    seen = set()
    for tau in itertools.permutations(range(nv)):
        place = np.empty(nv, dtype=np.int64)
        place[list(tau)] = np.arange(nv)
        a, b = place[us], place[vs]
        late, early = np.maximum(a, b), np.minimum(a, b)
        if np.any(late == early) or np.any(np.bincount(late, minlength=nv)[1:] != m):
            continue
        order = np.lexsort((early, late))
        seen.add(early[order].reshape(nv - 1, m).tobytes())
    return seen


def test_peel_ambiguity_goldens():
    from upag.pa_gen import log_prob

    # a path of three vertices can be rooted at either end or at its centre:
    # two distinct block matrices, equally likely, and peeling finds one
    variants = _histories(3, [1, 2], [0, 1], 1)
    assert len(variants) == 2
    rec, _ = peel_edges(3, [1, 2], [0, 1], 1)
    assert np.sort(rec.targets, axis=1).tobytes() in variants
    probs = {log_prob(Dag(1, np.frombuffer(v, dtype=np.int64).reshape(2, 1))).probability
             for v in variants}
    assert len(probs) == 1

    # two incomparable vertices with different shapes: several variants
    variants = _histories(5, [1, 2, 3, 4], [0, 1, 1, 2], 1)
    assert len(variants) >= 2
    rec, _ = peel_edges(5, [1, 2, 3, 4], [0, 1, 1, 2], 1)
    assert np.sort(rec.targets, axis=1).tobytes() in variants


def test_peel_relabel_seed_pair_only():
    rec, order = peel_edges(2, [0, 0, 0], [1, 1, 1], 3)
    assert rec.n == 1 and order.tolist() == [0, 1]
    with pytest.raises(ModelError):
        peel_edges(2, [0, 0, 0], [1, 1, 1], 2)


def _shuffled_pairs(d, rng):
    """The instance's edges with labels permuted, rows shuffled and each
    edge's two ends in random order, as a shuffled edge-list file holds them."""
    n, m = d.n, d.m
    perm = np.concatenate(([0], 1 + rng.permutation(n))) if rng.integers(2) else \
        rng.permutation(n + 1)
    src = perm[np.repeat(np.arange(1, n + 1), m)]
    dst = perm[d.targets.ravel()]
    flip = rng.integers(0, 2, src.size).astype(bool)
    pairs = np.stack([np.where(flip, dst, src), np.where(flip, src, dst)], axis=1)
    return pairs[rng.permutation(len(pairs))]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_peel_edges_matches_counter_reference(m):
    rng = np.random.default_rng(400 + m)
    for n in (1, 2, 3, 40, 2000):
        d = generate(m, n, seed=int(rng.integers(1 << 30)))
        pairs = _shuffled_pairs(d, rng)
        want_d, want_order = peel_relabel_counter(multigraph(n + 1, pairs), m)
        got_d, got_order = peel_edges(n + 1, pairs[:, 0], pairs[:, 1], m)
        assert got_d == want_d
        assert np.array_equal(got_order, want_order)
        assert same_multigraph(n + 1, got_order[dag_edges(got_d)], pairs)


@pytest.mark.parametrize(
    "nv,edges,m",
    [
        (4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2),           # 4-cycle: stalls
        (5, [(0, 1), (0, 1), (2, 3), (2, 3), (4, 0), (4, 1)], 2),  # two components
        (3, [(0, 1), (0, 1), (1, 2)], 1),                    # last pair joined twice
        (3, [(0, 1), (0, 1), (0, 1), (1, 2), (0, 2)], 2),    # last pair joined 3 times
        (2, [(0, 1)], 2),                                    # seed pair too thin
        (3, [(0, 1), (1, 2)], 2),                            # nothing has degree m
        (3, [(1, 1), (0, 2)], 1),                            # self-loop
    ],
)
def test_peel_edges_rejects_non_instances(nv, edges, m):
    e = np.array(edges, dtype=np.int64)
    with pytest.raises(ModelError):
        peel_edges(nv, e[:, 0], e[:, 1], m)
    with pytest.raises(ModelError):
        peel_relabel_counter(multigraph(nv, edges), m)
