import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_wavelet import FORMS, reassembled

from upag.construct import build
from upag.errors import OutOfRangeError
from upag.graph_model import adjacency_string, in_degrees, undirected_degrees
from upag.oracle import NaiveGraph
from upag.pa_gen import generate
from upag.ugraph import CompressedGraph, LabelledGraph


@pytest.fixture
def g5(dag5):
    return CompressedGraph.from_dag(dag5, tie="first-target")


# ---------------------------------------------------------------------------
# worked five-vertex goldens (the BFS relabelling is the identity here)
# ---------------------------------------------------------------------------

def test_degrees_golden(g5):
    assert [g5.degree_in(v) for v in range(6)] == [3, 6, 2, 2, 2, 0]
    assert [g5.degree_out(v) for v in range(6)] == [0, 3, 3, 3, 3, 3]


def test_in_neighbour_golden(g5):
    # the third in-edge of vertex 1 comes from the leftover string: its
    # first occurrence sits in vertex 2's block
    assert g5.in_neighbour(1, 1) == 2
    assert g5.in_neighbour(1, 2) == 3
    assert g5.in_neighbour(1, 3) == 2
    assert g5.neighbours_in(1) == [2, 3, 2, 2, 3, 3]


def test_out_neighbours_golden(g5):
    assert g5.neighbours_out(5) == [3, 4, 4]
    assert g5.neighbours_out(1) == [0, 0, 0]
    assert g5.neighbours_out(0) == []
    assert g5.out_neighbour(4, 1) == 3
    assert g5.out_neighbour(4, 2) == 2


def test_adjacent_golden(g5):
    assert g5.adjacent(4, 3)
    assert g5.adjacent(3, 4)
    assert not g5.adjacent(5, 2)
    assert not g5.adjacent(2, 2)
    assert g5.adjacent(1, 0)
    assert g5.multiplicity(2, 1) == 3
    assert g5.multiplicity(5, 4) == 2
    assert g5.multiplicity(5, 2) == 0


def test_space_report_shape(g5):
    rep = g5.space_report()
    assert rep["tree_payload_bits"] == 2 * 6
    assert rep["payload_bits"] == rep["tree_payload_bits"] + rep["wt_payload_bits"]
    assert rep["total_bits"] == (
        rep["payload_bits"] + rep["directory_bits"] + rep["metadata_bits"]
    )
    assert g5.target_entropy_bits() + 2 * rep["sigma_eff"] > 0


def test_target_entropy_matches_direct(g5, dag5):
    b = build(dag5, tie="first-target")
    from upag.entropy import h0_bits

    assert g5.target_entropy_bits() == pytest.approx(h0_bits(b.nontree), abs=1e-9)


# ---------------------------------------------------------------------------
# full query cross-check against the naive oracle
# ---------------------------------------------------------------------------

def check_batches(g, ref):
    """The batch queries over every vertex, every out-edge and every in-edge."""
    verts = np.arange(g.n + 1)
    assert g.degree_in_batch(verts).tolist() == [ref.degree_in(v) for v in verts]
    for lists, batch in ((ref.out_lists, g.out_neighbour_batch),
                         (ref.in_lists, g.in_neighbour_batch)):
        qv = np.repeat(verts, [len(x) for x in lists])
        qi = np.concatenate([np.arange(1, len(x) + 1) for x in lists])
        assert batch(qv, qi).tolist() == [t for x in lists for t in x]


def exhaustive_check(g, ref):
    nv = g.n + 1
    for v in range(nv):
        assert g.degree_in(v) == ref.degree_in(v)
        assert g.degree_out(v) == ref.degree_out(v)
        assert g.neighbours_out(v) == ref.out_lists[v]
        assert g.neighbours_in(v) == ref.in_lists[v]
        for i, t in enumerate(ref.out_lists[v], start=1):
            assert g.out_neighbour(v, i) == t
        for i, s in enumerate(ref.in_lists[v], start=1):
            assert g.in_neighbour(v, i) == s
    check_batches(g, ref)
    # adjacency and multiplicity over every ordered pair
    us, vs = np.meshgrid(np.arange(nv), np.arange(nv))
    us, vs = us.ravel(), vs.ravel()
    want_adj = np.array([ref.adjacent(u, v) for u, v in zip(us, vs)])
    want_mult = np.where(us == vs, 0, ref.mult[us, vs])
    assert np.array_equal(g.multiplicity_batch(us, vs), want_mult)
    assert np.array_equal(g.adjacent_batch(us, vs), want_adj)
    # the scalar path on a modest random subsample
    rng = np.random.default_rng(nv)
    for k in rng.integers(0, us.size, size=min(60, us.size)):
        u, v = int(us[k]), int(vs[k])
        assert g.adjacent(u, v) == ref.adjacent(u, v)
        assert g.multiplicity(u, v) == want_mult[k]


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("m,n,seed", [(1, 20, 0), (2, 40, 1), (3, 33, 2), (5, 12, 3), (3, 1, 4)])
def test_compressed_matches_oracle(form, m, n, seed):
    d = generate(m, n, seed=seed)
    b = build(d)
    g = CompressedGraph.from_build(b)
    if form == "reassembled":
        g.targets = reassembled(g.targets)
    ref = NaiveGraph(m, n, b.tree_parents, b.nontree)
    exhaustive_check(g, ref)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("m,n,seed", [(1, 25, 5), (3, 30, 6), (4, 15, 7)])
def test_labelled_matches_oracle(form, m, n, seed):
    d = generate(m, n, seed=seed)
    g = LabelledGraph.from_dag(d)
    if form == "reassembled":
        g.targets = reassembled(g.targets)
    assert g.tree is None
    ref = NaiveGraph(m, n, None, d.targets)
    exhaustive_check(g, ref)


def test_labelled_in_degrees_match_model():
    d = generate(3, 60, seed=11)
    g = LabelledGraph.from_dag(d)
    want = in_degrees(d)
    got = np.array([g.degree_in(v) for v in range(61)])
    assert np.array_equal(got, want)


def test_edge_multiset_preserved_by_relabelling():
    # the compressed graph is a renaming of the original multigraph: degree
    # multisets must survive the trip
    d = generate(3, 120, seed=13)
    b = build(d)
    g = CompressedGraph.from_build(b)
    undirected_orig = sorted(undirected_degrees(d).tolist())
    undirected_new = sorted(
        g.degree_in(v) + g.degree_out(v) for v in range(121)
    )
    assert undirected_orig == undirected_new


def test_out_neighbour_batch_matches_scalar():
    d = generate(3, 80, seed=17)
    g = CompressedGraph.from_dag(d)
    rng = np.random.default_rng(99)
    vs = rng.integers(1, 81, size=200)
    ii = rng.integers(1, 4, size=200)
    got = g.out_neighbour_batch(vs, ii)
    want = np.array([g.out_neighbour(int(v), int(i)) for v, i in zip(vs, ii)])
    assert np.array_equal(got, want)


def test_degree_in_batch_matches_scalar():
    d = generate(2, 70, seed=19)
    g = CompressedGraph.from_dag(d)
    vs = np.arange(71)
    assert np.array_equal(
        g.degree_in_batch(vs), np.array([g.degree_in(int(v)) for v in vs])
    )


def test_degree_total_golden(g5):
    assert [g5.degree_total(v) for v in range(6)] == [3, 9, 5, 5, 5, 3]


def test_in_neighbour_batch_matches_scalar():
    d = generate(3, 60, seed=23)
    g = CompressedGraph.from_dag(d)
    vs, idx = [], []
    for v in range(61):
        for i in range(1, g.degree_in(v) + 1):
            vs.append(v)
            idx.append(i)
    got = g.in_neighbour_batch(vs, idx)
    want = np.array([g.in_neighbour(v, i) for v, i in zip(vs, idx)])
    assert np.array_equal(got, want)
    with pytest.raises(OutOfRangeError):
        g.in_neighbour_batch([0], [g.degree_in(0) + 1])


def test_batches_match_scalar_per_vertex_regime():
    # few distinct vertices on a large tree, among them the seed, the hub
    # and tree leaves, each asked for several times
    g = CompressedGraph.from_dag(generate(3, 2000, seed=29))
    rng = np.random.default_rng(31)
    deg = g.degree_in_batch(np.arange(g.n_vertices))
    kids = np.bincount(g.tree.parents_array()[1:], minlength=g.n_vertices)
    hub = int(np.argmax(deg))
    leaves = rng.choice(np.flatnonzero(kids == 0), 20, replace=False)
    picks = np.unique(np.concatenate([[0, hub], leaves,
                                      rng.integers(1, g.n_vertices, 80)]))
    assert 90 <= picks.size <= max(g.tree.n_nodes // 8, 32)
    vs = rng.permutation(np.repeat(picks, 3))
    assert np.array_equal(g.degree_in_batch(vs), np.array([g.degree_in(int(v)) for v in vs]))
    assert np.array_equal(g.tree.degree_batch(vs),
                          np.array([g.tree.tree_degree(int(v)) for v in vs]))
    # every in-edge of the seed and the hub, plus random ones of the rest
    # (leaves that do have in-edges get them from the leftover string alone)
    rest = vs[deg[vs] > 0]
    assert np.isin(leaves, rest).any()
    iv = np.concatenate([np.repeat([0, hub], [deg[0], deg[hub]]), rest])
    ii = np.concatenate([np.arange(1, deg[0] + 1), np.arange(1, deg[hub] + 1),
                         1 + rng.integers(0, 1 << 30, rest.size) % deg[rest]])
    want = np.array([g.in_neighbour(int(v), int(i)) for v, i in zip(iv, ii)])
    assert np.array_equal(g.in_neighbour_batch(iv, ii), want)


def test_query_errors(g5):
    with pytest.raises(OutOfRangeError):
        g5.out_neighbour(0, 1)
    with pytest.raises(OutOfRangeError):
        g5.out_neighbour(1, 4)
    with pytest.raises(OutOfRangeError):
        g5.in_neighbour(5, 1)
    with pytest.raises(OutOfRangeError):
        g5.degree_in(6)
    with pytest.raises(OutOfRangeError):
        g5.adjacent(0, 7)
    with pytest.raises(OutOfRangeError):
        g5.out_neighbour_batch([1, 2], [1, 4])


BEYOND_INT64 = [2 ** 63, 10 ** 23, -(2 ** 63) - 1, -(10 ** 23)]


@pytest.mark.parametrize("big", BEYOND_INT64)
def test_degree_in_beyond_int64_is_out_of_range(g5, big):
    with pytest.raises(OutOfRangeError):
        g5.degree_in(big)
    with pytest.raises(OutOfRangeError):
        g5.degree_in_batch([big])


@pytest.mark.parametrize("big", BEYOND_INT64)
def test_out_neighbour_beyond_int64_is_out_of_range(g5, big):
    for args in ((big, 1), (1, big)):
        with pytest.raises(OutOfRangeError):
            g5.out_neighbour(*args)
        with pytest.raises(OutOfRangeError):
            g5.out_neighbour_batch(*([a] for a in args))


@pytest.mark.parametrize("big", BEYOND_INT64)
def test_in_neighbour_beyond_int64_is_out_of_range(g5, big):
    for args in ((big, 1), (1, big)):
        with pytest.raises(OutOfRangeError):
            g5.in_neighbour(*args)
        with pytest.raises(OutOfRangeError):
            g5.in_neighbour_batch(*([a] for a in args))


@pytest.mark.parametrize("big", BEYOND_INT64)
def test_multiplicity_beyond_int64_is_out_of_range(g5, big):
    for args in ((big, 1), (1, big)):
        with pytest.raises(OutOfRangeError):
            g5.multiplicity(*args)
        with pytest.raises(OutOfRangeError):
            g5.adjacent(*args)
        for batch in (g5.multiplicity_batch, g5.adjacent_batch):
            with pytest.raises(OutOfRangeError):
                batch(*([a] for a in args))


# Every public batch query by owner and name, with three lanes per
# argument on ``g5`` (or on the labelled form of ``dag5``): every lane of
# one argument is valid with every lane of the other.
GRAPH_BATCH = {
    "degree_in_batch": ([0, 1, 5],),
    "out_neighbour_batch": ([1, 3, 5], [1, 2, 3]),
    "in_neighbour_batch": ([0, 1, 4], [1, 2, 1]),
    "multiplicity_batch": ([0, 1, 3], [1, 3, 5]),
    "adjacent_batch": ([0, 1, 3], [1, 3, 5]),
}
BATCH = {
    "bv.access_batch": ([1, 5, 12],),
    "bv.rank1_batch": ([0, 5, 12],),
    "bv.rank0_batch": ([0, 5, 12],),
    "bv.select1_batch": ([1, 4, 6],),
    "bv.select0_batch": ([1, 4, 6],),
    "tree.parent_batch": ([0, 3, 5],),
    "tree.degree_batch": ([0, 3, 5],),
    "tree.child_batch": ([1, 3, 1], [1, 2, 2]),
    "wt.access_batch": ([1, 4, 10],),
    "wt.rank_batch": ([0, 4, 5], [0, 3, 10]),
    "wt.select_batch": ([0, 1, 4], [1, 2, 2]),
    **{f"{form}.{q}": args for form in ("compressed", "labelled") for q, args in GRAPH_BATCH.items()},
}


def _batch_query(g5, dag5, name):
    owner, query = name.split(".")
    if owner == "labelled":
        return getattr(LabelledGraph.from_dag(dag5), query)
    return getattr({"bv": g5.tree._bv, "tree": g5.tree, "wt": g5.targets, "compressed": g5}[owner],
                   query)


def _queries(g5, dag5):
    """The scalar and the batch query methods of the bitvector, the tree
    and the string index under ``g5``, and of both graph forms."""
    bv, tree, wt = g5.tree._bv, g5.tree, g5.targets
    scalar = [bv.access, bv.rank1, bv.rank0, bv.select1, bv.select0, tree.parent,
              tree.tree_degree, tree.child, tree.children, wt.access, wt.rank, wt.select,
              wt.positions]
    for g in (g5, LabelledGraph.from_dag(dag5)):
        scalar += [g.degree_in, g.degree_out, g.out_neighbour, g.in_neighbour, g.adjacent,
                   g.multiplicity, g.neighbours_out, g.neighbours_in]
    return scalar, [_batch_query(g5, dag5, name) for name in BATCH]


@pytest.mark.parametrize("name", BATCH)
def test_batch_argument_shapes(g5, dag5, name):
    query = _batch_query(g5, dag5, name)
    args = [np.array(a) for a in BATCH[name]]
    full = query(*args)
    assert full.shape == (3,)
    # a scalar is a batch of one, in every form
    for form in (int, np.int64, np.array, lambda x: [x], lambda x: np.array([x])):
        got = query(*[form(int(a[0])) for a in args])
        assert got.shape == (1,) and got[0] == full[0]
    # two dimensions raise ValueError, in any argument
    for j in range(len(args)):
        with pytest.raises(ValueError, match="one-dimensional"):
            query(*[a.reshape(1, 3) if k == j else a for k, a in enumerate(args)])
    if len(args) == 2:
        # a scalar pairs with every lane of the other argument
        a, b = args
        assert np.array_equal(query(int(a[0]), b), query(np.full(3, a[0]), b))
        assert np.array_equal(query(a, int(b[0])), query(a, np.full(3, b[0])))
        for short in ((a[:2], b), (a, b[:2])):
            with pytest.raises(ValueError):
                query(*short)


NOT_INTEGER = [1.5, float("nan"), float("inf"), "3", None]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", NOT_INTEGER)
def test_non_integer_index_is_a_type_error(g5, dag5, bad):
    # in every argument of every query, with 1 (in range everywhere) in the others
    scalar, batch = _queries(g5, dag5)
    for query, lane in [(q, lambda a: a) for q in scalar] + [(q, lambda a: [a]) for q in batch]:
        arity = len(inspect.signature(query).parameters)
        for j in range(arity):
            args = [lane(bad if k == j else 1) for k in range(arity)]
            with pytest.raises(TypeError):
                query(*args)


def test_empty_batches_give_empty_results(g5, dag5):
    for query in _queries(g5, dag5)[1]:
        arity = len(inspect.signature(query).parameters)
        assert query(*[[]] * arity).size == 0


def test_m1_graphs_are_pure_trees():
    d = generate(1, 50, seed=23)
    b = build(d)
    g = CompressedGraph.from_build(b)
    ref = NaiveGraph(1, 50, b.tree_parents, b.nontree)
    exhaustive_check(g, ref)
    assert g.targets.length == 0


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_compressed_queries_property(m, n, seed):
    d = generate(m, n, seed=seed)
    b = build(d)
    g = CompressedGraph.from_build(b)
    ref = NaiveGraph(m, n, b.tree_parents, b.nontree)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        v = int(rng.integers(0, n + 1))
        assert g.degree_in(v) == ref.degree_in(v)
        u = int(rng.integers(0, n + 1))
        assert g.adjacent(u, v) == ref.adjacent(u, v)
        if v and ref.out_lists[v]:
            i = int(rng.integers(1, m + 1))
            assert g.out_neighbour(v, i) == ref.out_lists[v][i - 1]
        if ref.degree_in(v):
            i = int(rng.integers(1, ref.degree_in(v) + 1))
            assert g.in_neighbour(v, i) == ref.in_lists[v][i - 1]
