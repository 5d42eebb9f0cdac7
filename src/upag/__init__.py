"""Entropy-compressed preferential-attachment graphs with rank/select navigation."""

from .bitvector import BitVector
from .bptree import BPTree
from .construct import (
    build,
    freq_rank,
    peel_ambiguity,
    peel_edges,
    reduce_string,
)
from .entropy import bounds_report, degree_entropy, h0_bits, h0_per_symbol
from .errors import FormatError, OutOfRangeError
from .graph_model import (
    Dag,
    ModelError,
    adjacency_string,
    in_degrees,
    undirected_degrees,
)
from .pa_gen import generate, log_prob, entropy_gap
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
    "peel_ambiguity",
    "peel_edges",
    "reduce_string",
    "save",
    "entropy_gap",
    "undirected_degrees",
]
