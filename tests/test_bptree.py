import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upag.bptree import BPTree
from upag.errors import OutOfRangeError


def random_preorder_parents(rng, n):
    """Random preorder-labelled tree: parent of v is drawn from the rightmost
    path so that labels stay in preorder."""
    par = np.full(n, -1, dtype=np.int64)
    path = [0]
    for v in range(1, n):
        k = rng.integers(0, len(path))
        par[v] = path[k]
        del path[k + 1 :]
        path.append(v)
    return par


def reference_children(par):
    n = len(par)
    kids = [[] for _ in range(n)]
    for v in range(1, n):
        kids[par[v]].append(v)
    return kids


def check_tree(par):
    par = np.asarray(par, dtype=np.int64)
    t = BPTree(par)
    kids = reference_children(par)
    assert t.n_nodes == par.size
    subtree = np.ones(par.size, dtype=np.int64)
    for v in range(par.size - 1, 0, -1):
        subtree[par[v]] += subtree[v]
    for v in range(par.size):
        assert t.parent(v) == par[v]
        assert t.children(v) == kids[v]
        assert t.tree_degree(v) == len(kids[v])
        assert t.is_leaf(v) == (len(kids[v]) == 0)
        assert t.subtree_size(v) == subtree[v]
        for i, c in enumerate(kids[v], start=1):
            assert t.child(v, i) == c
    assert np.array_equal(t.parents_array(), par)
    return t


def test_single_node():
    t = check_tree([-1])
    assert t.open_pos(0) == 1
    assert t.close_pos(0) == 2


def test_path_tree():
    # 0 - 1 - 2 - ... - 9, maximally deep
    check_tree([-1] + list(range(9)))


def test_star_tree():
    # everything hangs off the root, maximally wide
    check_tree([-1] + [0] * 40)


def test_known_small_tree():
    #        0
    #       / \
    #      1   4
    #     / \    \
    #    2   3    5
    par = [-1, 0, 1, 1, 0, 4]
    t = check_tree(par)
    # parens: ( ( ( ) ( ) ) ( ( ) ) )
    expect = [1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0]
    got = [t._bit(i) for i in range(12)]
    assert got == expect
    assert t.open_pos(4) == 8
    assert t.close_pos(4) == 11
    assert t.subtree_size(1) == 3


@pytest.mark.parametrize("n", [2, 3, 17, 64, 65, 129, 500])
@pytest.mark.parametrize("seed", [1, 2])
def test_random_trees(n, seed):
    rng = np.random.default_rng(seed * 1000 + n)
    check_tree(random_preorder_parents(rng, n))


def test_deep_then_wide():
    # a long spine whose tip carries many leaves: exercises both scan
    # directions across multiple 64-bit blocks
    spine = 150
    leaves = 90
    par = [-1] + list(range(spine - 1)) + [spine - 1] * leaves
    t = check_tree(par)
    assert t.tree_degree(spine - 1) == leaves


def test_block_boundary_parent():
    # a deep first subtree pushes the second root child hundreds of bits
    # past the root's open, so parent() must cross many blocks backwards
    deep = 99
    par = [-1] + list(range(deep)) + [0]
    t = BPTree(np.array(par, dtype=np.int64))
    assert t.parent(deep + 1) == 0
    assert t.children(0) == [1, deep + 1]


def test_rejects_bad_parent_arrays():
    with pytest.raises(ValueError):
        BPTree([0])          # root must be -1
    with pytest.raises(ValueError):
        BPTree([-1, 2, 1])   # parent must precede child
    with pytest.raises(ValueError):
        BPTree(np.zeros((0,), dtype=np.int64))


def test_out_of_range_queries():
    t = BPTree([-1, 0, 0])
    with pytest.raises(OutOfRangeError):
        t.parent(3)
    with pytest.raises(OutOfRangeError):
        t.children(-1)
    with pytest.raises(OutOfRangeError):
        t.child(0, 3)
    with pytest.raises(OutOfRangeError):
        t.child(1, 1)


def test_parts_roundtrip():
    rng = np.random.default_rng(7)
    par = random_preorder_parents(rng, 300)
    t = BPTree(par)
    t2 = BPTree.from_parts(t.to_parts())
    assert t2.n_nodes == t.n_nodes
    assert np.array_equal(t2.parents_array(), par)
    assert t2.space_report() == t.space_report()


def test_space_payload_is_two_bits_per_node():
    for n in (1, 33, 257):
        par = np.full(n, -1, dtype=np.int64)
        par[1:] = 0
        rep = BPTree(par).space_report()
        assert rep["payload_bits"] == 2 * n
        assert rep["directory_bits"] < max(2 * n, 256)


def test_batch_helpers():
    rng = np.random.default_rng(11)
    par = random_preorder_parents(rng, 120)
    t = BPTree(par)
    vs = rng.integers(0, 120, size=50)
    assert np.array_equal(t.parent_batch(vs), par[vs])
    degs = np.array([len(reference_children(par)[int(v)]) for v in vs])
    assert np.array_equal(t.degree_batch(vs), degs)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_navigation_matches_reference(data):
    n = data.draw(st.integers(min_value=1, max_value=80))
    seed = data.draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    check_tree(random_preorder_parents(rng, n))


# ---- range min-max directory: shapes aimed at its levels ------------------
# A leaf of the directory spans 1024 bits (512 nodes), a level-4 node 16
# leaves; bytes, words and leaves are all crossed by the shapes below.

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


def check_batches(par, sample=120, seed=0):
    """Every node's parent, degree and children through the batch calls, and
    a sample of scalar calls (and close positions) against batches of one."""
    par = np.asarray(par, dtype=np.int64)
    t = BPTree(par)
    n = par.size
    kids = reference_children(par)
    deg = np.array([len(k) for k in kids], dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    for v in range(n - 1, 0, -1):
        size[par[v]] += size[v]
    v = np.arange(n)
    assert np.array_equal(t.parents_array(), par)
    assert np.array_equal(t.parent_batch(v), par)
    assert np.array_equal(t.degree_batch(v), deg)
    if n > 1:
        cv = np.repeat(v, deg)
        ci = np.arange(cv.size) - np.repeat(np.cumsum(deg) - deg, deg) + 1
        assert np.array_equal(t.child_batch(cv, ci), np.concatenate([k for k in kids if k]))
    with pytest.raises(OutOfRangeError):
        t.child_batch(v, deg + 1)
    opens = np.flatnonzero(t._bv.to_array())
    rng = np.random.default_rng(seed)
    picks = np.unique(np.concatenate([[0, n - 1, int(np.argmax(deg))],
                                      rng.integers(0, n, sample)]))
    for x in picks.tolist():
        assert t.close_pos(x) == opens[x] + 2 * size[x]
        assert t.subtree_size(x) == size[x]
        assert t.parent(x) == t.parent_batch([x])[0] == par[x]
        assert t.tree_degree(x) == t.degree_batch([x])[0] == deg[x]
        assert t.children(x) == kids[x]
        for i in ({1, int(deg[x])} if deg[x] else ()):
            assert t.child(x, i) == t.child_batch([x], [i])[0] == kids[x][i - 1]
    return t


@pytest.mark.parametrize("n, span", [(6000, 37), (20000, 700)])
def test_root_children_spread_over_many_leaves(n, span):
    # the root's last child opens a dozen (or 39) leaves after the root; with
    # span 700 some leaves hold no close of a root child, so a level-4 node
    # may count only its leaves that reach its minimum
    t = check_batches(spread_root(n, span))
    assert t.tree_degree(0) == len(range(1, n, span))


def test_path_deeper_than_a_leaf():
    # depth 1500 > 512 nodes per leaf, then one more root child at the end
    check_batches(np.array([-1] + list(range(1499)) + [0], dtype=np.int64))


def test_star_wider_than_a_leaf():
    t = check_batches(np.array([-1] + [0] * 2999, dtype=np.int64))
    assert t.child(0, 2999) == 2999


@pytest.mark.parametrize("legs_last", [False, True])
def test_caterpillar(legs_last):
    check_batches(caterpillar(700, 3, legs_last))


@pytest.mark.parametrize("n", [32, 33, 511, 512, 513, 8191, 8192, 8193])
def test_random_trees_straddling_directory_sizes(n):
    check_batches(random_preorder_parents(np.random.default_rng(n), n), sample=40)


def test_random_tree_with_two_inner_levels():
    # 2^18 + 2 bits: 257 leaves under 17 level-4 nodes under 2 level-5 nodes
    check_batches(random_preorder_parents(np.random.default_rng(3), 131073), sample=20)


def test_rejects_parent_arrays_out_of_preorder():
    with pytest.raises(ValueError):
        BPTree([-1, 0, 0, 1])        # 3 is 1's child but 2 came between
    with pytest.raises(ValueError):
        BPTree([-1, 0, 1, 0, 2])     # 4 is 2's child but 3 closed 2's subtree


def test_rejects_ill_formed_sequences():
    from upag.bitvector import BitVector

    for bits in ([1, 0, 0, 1, 1, 0], [1, 0, 1, 0], [0, 1], [1, 1, 0, 1]):
        with pytest.raises(ValueError):
            BPTree(_bv=BitVector(np.array(bits), mode="plain"))
    assert BPTree(_bv=BitVector(np.array([1, 1, 0, 1, 0, 0]), mode="plain")).children(0) == [1, 2]
