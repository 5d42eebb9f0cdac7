import numpy as np
import pytest

from upag.graph_model import (
    Dag,
    ModelError,
    adjacency_string,
    has_parallel_beyond_seed,
    in_degrees,
    undirected_degrees,
)
from upag.oracle import NaiveGraph


def test_adjacency_string_is_block_concatenation(dag5):
    a = adjacency_string(dag5)
    assert a.tolist() == [0, 0, 0, 1, 1, 1, 1, 1, 1, 3, 2, 2, 3, 4, 4]


def test_in_degrees(dag5):
    assert in_degrees(dag5).tolist() == [3, 6, 2, 2, 2, 0]


def test_undirected_degrees_add_out_edges(dag5):
    assert undirected_degrees(dag5).tolist() == [3, 9, 5, 5, 5, 3]
    assert undirected_degrees(dag5).sum() == 2 * dag5.n * dag5.m


def test_undirect_preserves_multiplicities(dag5):
    # the undirected view of the instance, as the oracle's multiplicity
    # matrix holds it: orientation and block order go, multiplicities stay
    mult = NaiveGraph(dag5.m, dag5.n, None, dag5.targets).mult
    assert mult.sum(axis=1).tolist() == undirected_degrees(dag5).tolist() == [3, 9, 5, 5, 5, 3]
    assert mult[1, 2] == mult[2, 1] == 3      # vertex 2 drew vertex 1 three times
    assert mult[4, 5] == 2
    assert mult.sum() == 2 * dag5.n * dag5.m


def test_block_validation():
    with pytest.raises(ModelError):
        Dag(2, [[0, 0], [2, 0]])     # target not older than its source
    with pytest.raises(ModelError):
        Dag(2, [[0, 1]])             # first block must hit the seed
    with pytest.raises(ModelError):
        Dag(2, [[0, 0], [-1, 0]])
    with pytest.raises(ModelError):
        Dag(0, [[]])


def test_parallel_detection():
    assert has_parallel_beyond_seed(Dag(2, [[0, 0], [1, 1]]))
    assert not has_parallel_beyond_seed(Dag(2, [[0, 0], [0, 1]]))
    assert not has_parallel_beyond_seed(Dag(3, [[0, 0, 0]]))  # seed block exempt


def test_empty_and_single_block():
    d = Dag(4, np.zeros((0, 4), dtype=np.int64))
    assert d.n == 0 and adjacency_string(d).size == 0
    d1 = Dag(4, [[0, 0, 0, 0]])
    assert in_degrees(d1).tolist() == [4, 0]


def test_dag_equality_is_exact_block_equality(dag5):
    same = Dag(3, [row[:] for row in (b for b in dag5.targets.tolist())])
    assert same == dag5
    flipped = dag5.targets.copy()
    flipped[3] = [2, 2, 3]           # same multiset, different order
    assert Dag(3, flipped) != dag5
