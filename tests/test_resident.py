"""Resident bits equal reported bits.

Every ``space_report()`` is the sum of the ``nbytes`` of the arrays a
structure keeps.  These tests walk each structure's attributes, collect
every numpy array it holds (through bitvectors, matrices, the tree and the
graph), and compare 8 x their bytes with the reported total.  The select
tables of ``upag.bitvector`` (``_BYTE_POP``, ``_BYTE_SELECT``, ``_BEFORE``
and ``_COLS``, about 17 KiB) are module constants shared by every
bitvector; they are checked on their own line and belong to no structure.
"""

import numpy as np
import pytest

from upag import bitvector, serialize
from upag.bitvector import BitVector
from upag.bptree import BPTree
from upag.pa_gen import generate
from upag.ugraph import CompressedGraph, LabelledGraph
from upag.wavelet import WaveletTree

OWNERS = (BitVector, BPTree, WaveletTree, CompressedGraph)


def kept_arrays(obj, seen=None) -> list[np.ndarray]:
    """Every array reachable from ``obj``'s attributes, once each."""
    seen = {} if seen is None else seen
    items = obj if isinstance(obj, list) else vars(obj).values()
    for value in items:
        if isinstance(value, np.ndarray):
            seen[id(value)] = value
        elif isinstance(value, list) or isinstance(value, OWNERS):
            kept_arrays(value, seen)
    return list(seen.values())


def resident_bits(obj) -> int:
    arrays = kept_arrays(obj)
    # no array is a view into another kept one, so no byte counts twice
    bases = {id(a.base) for a in arrays if a.base is not None}
    assert not bases & {id(a) for a in arrays}
    return 8 * sum(a.nbytes for a in arrays)


def graph_total(rep: dict) -> int:
    assert rep["total_bits"] == rep["payload_bits"] + rep["directory_bits"] + rep["metadata_bits"]
    return rep["total_bits"]


def test_shared_select_tables_on_their_own_line():
    shared = (bitvector._BYTE_POP, bitvector._BYTE_SELECT, bitvector._BEFORE, bitvector._COLS)
    assert 8 * sum(t.nbytes for t in shared) < 8 * 18 * 1024
    bv = BitVector([1, 0, 1])
    assert not {id(a) for a in kept_arrays(bv)} & {id(t) for t in shared}


@pytest.mark.parametrize("n", [0, 1, 63, 64, 1025, 70_000])
def test_bitvector(n, rng):
    bv = BitVector((rng.random(n) < 0.3).astype(np.uint8))
    assert bv.space_report()["total_bits"] == resident_bits(bv)
    back = BitVector.from_parts(**bv.to_parts())
    assert back.space_report()["total_bits"] == resident_bits(back) == resident_bits(bv)


@pytest.mark.parametrize("n", [1, 2, 40, 5000])
def test_louds_tree(n, rng):
    parents = np.concatenate([[-1], np.sort(rng.integers(0, np.arange(1, n)))]) if n > 1 else [-1]
    t = BPTree(parents)
    rep = t.space_report()
    assert rep["payload_bits"] == 2 * n
    assert rep["payload_bits"] + rep["directory_bits"] == resident_bits(t)


@pytest.mark.parametrize("sigma,length", [(1, 0), (3, 1), (10, 40), (1000, 20_000)])
def test_both_matrices(sigma, length, rng):
    wt = WaveletTree(rng.integers(0, sigma, length), sigma)
    rep, key_map = wt.space_report(), wt._map.space_report()
    # the string's own levels and K, then its map with the map's key table
    in_map = {id(a) for a in kept_arrays(wt._map)}
    own = [a for a in kept_arrays(wt) if id(a) not in in_map]
    assert rep["payload_bits"] + rep["directory_bits"] == 8 * sum(a.nbytes for a in own)
    assert rep["presence_bits"] == key_map["total_bits"] == resident_bits(wt._map)
    assert key_map["presence_bits"] == 8 * wt._map._table.nbytes
    assert rep["total_bits"] == resident_bits(wt)


@pytest.mark.parametrize("form", [CompressedGraph, LabelledGraph])
@pytest.mark.parametrize("n", [0, 1, 300, 20_000])
def test_loaded_graph(form, n):
    g = serialize.loads(serialize.dumps(form.from_dag(generate(3, n, seed=n))))
    assert graph_total(g.space_report()) == resident_bits(g)
