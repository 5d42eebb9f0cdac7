"""The LOUDS scaffold tree against a deque BFS reference.

Trees are drawn under any labelling with parent[v] < v, relabelled into
BFS order by ``ingest_reference.bfs_deque`` and stored; every node's
parent, degree and children must then match the reference's children
lists mapped through the same ranks.  A tree on N nodes is 2N bits, so the
sizes below put the end of the sequence on and around the edges of a
64-bit word (N = 32, 33), a 1024-bit superblock (N = 511..513), 16
superblocks (N = 8191..8193) and 256 of them (N = 131,073).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ingest_reference import bfs_deque
from upag.bitvector import BitVector
from upag.bptree import BPTree
from upag.errors import OutOfRangeError


def random_preorder_parents(rng, n):
    """Random tree whose parent of v is drawn from the rightmost path."""
    par = np.full(n, -1, dtype=np.int64)
    path = [0]
    for v in range(1, n):
        k = rng.integers(0, len(path))
        par[v] = path[k]
        del path[k + 1 :]
        path.append(v)
    return par


def random_recursive_parents(rng, n):
    """Random recursive tree: the parent of v is uniform among 0..v-1."""
    par = np.full(n, -1, dtype=np.int64)
    par[1:] = rng.integers(0, 1 << 40, n - 1) % np.arange(1, n)
    return par


def bfs_reference(par):
    """(parents, children lists) of the tree relabelled in BFS order by the
    deque reference; children lists come from the original tree."""
    par = np.asarray(par, dtype=np.int64)
    rank = bfs_deque(par)
    n = par.size
    kids_orig = [[] for _ in range(n)]
    for v in range(1, n):
        kids_orig[par[v]].append(v)
    bpar = np.full(n, -1, dtype=np.int64)
    bpar[rank[1:]] = rank[par[1:]]
    kids = [[] for _ in range(n)]
    for v in range(n):
        kids[rank[v]] = [int(rank[c]) for c in kids_orig[v]]
    return bpar, kids


def check_tree(par, sample=120, seed=0):
    """Every node's parent, degree and children through the batch calls, a
    sample of scalar calls against them, and the space and parts."""
    bpar, kids = bfs_reference(par)
    t = BPTree(bpar)
    n = bpar.size
    deg = np.array([len(k) for k in kids], dtype=np.int64)
    v = np.arange(n)
    assert t.n_nodes == n
    assert np.array_equal(t.parent_batch(v), bpar)
    assert np.array_equal(t.degree_batch(v), deg)
    assert np.array_equal(t.parents_array(), bpar)
    if n > 1:
        cv = np.repeat(v, deg)
        ci = np.arange(cv.size) - np.repeat(np.cumsum(deg) - deg, deg) + 1
        assert np.array_equal(t.child_batch(cv, ci), np.concatenate([k for k in kids if k]))
    rng = np.random.default_rng(seed)
    picks = np.unique(np.concatenate([[0, n - 1, int(np.argmax(deg))],
                                      rng.integers(0, n, sample)]))
    for x in picks.tolist():
        assert t.parent(x) == bpar[x]
        assert t.tree_degree(x) == deg[x]
        assert t.children(x) == kids[x]
        for i in ({1, int(deg[x])} if deg[x] else ()):
            assert t.child(x, i) == kids[x][i - 1]
        with pytest.raises(OutOfRangeError):
            t.child(x, int(deg[x]) + 1)
    assert t.space_report()["payload_bits"] == 2 * n == t._bv.n
    return t


def test_single_node():
    t = check_tree([-1])
    assert t._bv.to_array().tolist() == [1, 0]
    assert t.children(0) == []


def test_path_tree():
    # 0 - 1 - 2 - ... - 9, maximally deep
    check_tree([-1] + list(range(9)))


def test_star_tree():
    # everything hangs off the root, maximally wide
    check_tree([-1] + [0] * 40)


def test_known_small_tree():
    #        0              BFS labels:      0
    #       / \                             / \
    #      1   4                           1   2
    #     / \    \                        / \   \
    #    2   3    5                      3   4   5
    t = check_tree([-1, 0, 1, 1, 0, 4])
    # a leading 1, then 1^deg 0 per node: 1 | 110 110 10 0 0 0
    assert t._bv.to_array().tolist() == [1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0]
    assert t.parents_array().tolist() == [-1, 0, 0, 1, 1, 2]
    assert t.children(1) == [3, 4] and t.child(2, 1) == 5


@pytest.mark.parametrize("n", [2, 3, 17, 64, 65, 129, 500])
@pytest.mark.parametrize("seed", [1, 2])
def test_random_trees(n, seed):
    rng = np.random.default_rng(seed * 1000 + n)
    check_tree(random_preorder_parents(rng, n))
    check_tree(random_recursive_parents(rng, n))


def test_deep_then_wide():
    # a long spine whose tip carries many leaves: the leaves' ones sit in
    # one run at the far end of the sequence
    spine = 150
    leaves = 90
    t = check_tree([-1] + list(range(spine - 1)) + [spine - 1] * leaves)
    assert t.tree_degree(spine - 1) == leaves


def test_block_boundary_parent():
    # a deep first subtree and one more root child: in BFS order the root's
    # two children are 1 and 2, and the path below 1 runs across many words
    deep = 99
    t = check_tree([-1] + list(range(deep)) + [0])
    assert t.children(0) == [1, 2]
    assert t.parent(deep + 1) == deep


def test_rejects_bad_parent_arrays():
    with pytest.raises(ValueError):
        BPTree([0])          # root must be -1
    with pytest.raises(ValueError):
        BPTree([-1, 2, 1])   # parent must precede child
    with pytest.raises(ValueError):
        BPTree([-1, -1])     # one root only
    with pytest.raises(ValueError):
        BPTree(np.zeros((0,), dtype=np.int64))


def test_rejects_parent_arrays_out_of_bfs_order():
    with pytest.raises(ValueError, match="BFS"):
        BPTree([-1, 0, 1, 0])        # 3 is the root's child but 2 came between
    with pytest.raises(ValueError, match="BFS"):
        BPTree([-1, 0, 0, 2, 1])     # 4's parent 1 comes before 3's parent 2
    assert BPTree([-1, 0, 0, 1, 2]).parents_array().tolist() == [-1, 0, 0, 1, 2]


def test_out_of_range_queries():
    t = BPTree([-1, 0, 0])
    with pytest.raises(OutOfRangeError):
        t.parent(3)
    with pytest.raises(OutOfRangeError):
        t.parent_batch([0, -1])
    with pytest.raises(OutOfRangeError):
        t.degree_batch([3])
    with pytest.raises(OutOfRangeError):
        t.children(-1)
    with pytest.raises(OutOfRangeError):
        t.child(0, 3)
    with pytest.raises(OutOfRangeError):
        t.child(0, 0)
    with pytest.raises(OutOfRangeError):
        t.child(1, 1)
    with pytest.raises(OutOfRangeError):
        t.child_batch([0, 0, 2], [1, 2, 1])
    assert t.child_batch([0, 0], [2, 1]).tolist() == [2, 1]
    for batch in (t.parent_batch, t.degree_batch):
        assert batch(np.zeros(0, np.int64)).size == 0


def test_parts_roundtrip():
    t = check_tree(random_preorder_parents(np.random.default_rng(7), 300))
    t2 = BPTree.from_parts(t.to_parts())
    assert t2.n_nodes == t.n_nodes
    assert np.array_equal(t2.parents_array(), t.parents_array())
    assert t2.space_report() == t.space_report()


def test_space_payload_is_two_bits_per_node():
    for n in (1, 33, 257):
        par = np.full(n, -1, dtype=np.int64)
        par[1:] = 0
        rep = BPTree(par).space_report()
        assert rep["payload_bits"] == 2 * n
        assert rep["directory_bits"] < max(2 * n, 256)


def test_batch_helpers():
    # repeated and unsorted lanes
    rng = np.random.default_rng(11)
    bpar, kids = bfs_reference(random_recursive_parents(rng, 120))
    t = BPTree(bpar)
    vs = rng.integers(0, 120, size=50)
    assert np.array_equal(t.parent_batch(vs), bpar[vs])
    assert np.array_equal(t.degree_batch(vs), [len(kids[v]) for v in vs])
    assert np.array_equal(t.degree_batch(vs.reshape(5, 10)).ravel(), t.degree_batch(vs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_navigation_matches_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=80))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    gen = data.draw(st.sampled_from([random_preorder_parents, random_recursive_parents]))
    check_tree(gen(rng, n), sample=10)


# ---- shapes whose sequences cross words and superblocks --------------------
# A superblock of the bitvector spans 1024 bits, 512 nodes.

def spread_root(n, span):
    """Root children every ``span`` labels, each heading a path."""
    par = np.arange(-1, n - 1)
    par[1::span] = 0
    return par


def caterpillar(spine, legs, legs_last):
    """A path of ``spine`` nodes with ``legs`` leaves on each; the leaves come
    before the next spine node, or (``legs_last``) after the whole spine."""
    if not legs_last:
        par = []
        for k in range(spine):
            s = k * (legs + 1)
            par += [s - legs - 1 if k else -1] + [s] * legs
        return np.array(par, dtype=np.int64)
    par = [-1] + list(range(spine - 1))
    for s in range(spine - 1, -1, -1):
        par += [s] * legs
    return np.array(par, dtype=np.int64)


@pytest.mark.parametrize("n, span", [(6000, 37), (20000, 700)])
def test_root_children_spread_over_many_leaves(n, span):
    # the root's children come first in BFS order, then one long level of
    # one node per path for each depth
    t = check_tree(spread_root(n, span))
    assert t.tree_degree(0) == len(range(1, n, span))


def test_path_deeper_than_a_leaf():
    # depth 1500 > 512 nodes per superblock, then one more root child
    check_tree(np.array([-1] + list(range(1499)) + [0], dtype=np.int64))


def test_star_wider_than_a_leaf():
    t = check_tree(np.array([-1] + [0] * 2999, dtype=np.int64))
    assert t.child(0, 2999) == 2999


@pytest.mark.parametrize("legs_last", [False, True])
def test_caterpillar(legs_last):
    check_tree(caterpillar(700, 3, legs_last))


@pytest.mark.parametrize("n", [32, 33, 511, 512, 513, 8191, 8192, 8193])
def test_random_trees_straddling_directory_sizes(n):
    rng = np.random.default_rng(n)
    check_tree(random_preorder_parents(rng, n), sample=40)
    check_tree(random_recursive_parents(rng, n), sample=40)


def test_random_tree_with_two_inner_levels():
    # 2^18 + 2 bits: 257 superblocks, the last holding two bits
    check_tree(random_recursive_parents(np.random.default_rng(3), 131073), sample=20)


def test_rejects_ill_formed_sequences():
    def louds(bits):
        return BPTree(_bv=BitVector(np.array(bits), mode="plain"))

    for bits in ([0, 1],                  # final one
                 [1, 0, 1, 0],            # node 1's one after node 0's zero
                 [1, 1, 1, 0, 0],         # odd length
                 [1, 1, 1, 0, 1, 0],      # four ones
                 [1, 1, 1, 1, 0, 0],      # four ones, each before its zero
                 [1, 1, 0, 0, 0, 0],      # two ones
                 [1, 1, 0, 0, 1, 0],      # node 2's one after node 1's zero
                 []):
        with pytest.raises(ValueError, match="LOUDS"):
            louds(bits)
    assert louds([1, 1, 0, 1, 0, 0]).parents_array().tolist() == [-1, 0, 1]
    with pytest.raises(ValueError):
        BPTree(_bv=BitVector(np.array([1, 0]), mode="rrr"))
    assert louds([1, 1, 1, 0, 0, 0]).children(0) == [1, 2]
