"""Entropy-compressed preferential-attachment graphs with rank/select navigation."""

from .bitvector import BitVector
from .bptree import BPTree
from .construct import (
    build,
    freq_rank,
    peel_edges,
    reduce_string,
)
from .entropy import bounds_report, degree_entropy, h0_bits, h0_per_symbol
from .errors import FormatError, ModelError, OutOfRangeError
from .graph_model import (
    Dag,
    adjacency_string,
    in_degrees,
    undirected_degrees,
)
from .pa_gen import generate, log_prob
from .serialize import dumps, load, loads, save
from .ugraph import CompressedGraph, LabelledGraph
from .wavelet import WaveletTree

__all__ = [
    "BPTree",
    "BitVector",
    "CompressedGraph",
    "Dag",
    "FormatError",
    "LabelledGraph",
    "ModelError",
    "OutOfRangeError",
    "WaveletTree",
    "adjacency_string",
    "bounds_report",
    "build",
    "degree_entropy",
    "dumps",
    "freq_rank",
    "generate",
    "h0_bits",
    "h0_per_symbol",
    "in_degrees",
    "load",
    "loads",
    "log_prob",
    "peel_edges",
    "reduce_string",
    "save",
    "undirected_degrees",
]
