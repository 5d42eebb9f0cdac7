"""The package surface that the benchmark in ``perfbench/`` calls, in one
test: deleting or renaming any of it fails here, not only in the benchmark.

perfbench imports upag from ``src/`` and uses ``generate``, ``build``,
``bounds_report``, ``CompressedGraph.from_build``, ``LabelledGraph.from_dag``,
``save``, ``load``, ``dumps``, ``loads``, ``cli.read_edge_list`` and
``cli.write_edge_list``, then the query methods of the loaded graphs.
"""

from __future__ import annotations

import inspect

import numpy as np

import upag
import upag.cli

# modules perfbench's tracer wraps, each reached as an attribute of upag
TRACED_LAYERS = ("pa_gen", "entropy", "graph_model", "construct", "cli", "bits",
                 "bitvector", "bptree", "wavelet", "ugraph", "serialize")
SCALAR = ("degree_in", "out_neighbour", "in_neighbour", "adjacent", "multiplicity",
          "neighbours_out", "neighbours_in")
BATCH = ("degree_in_batch", "out_neighbour_batch", "in_neighbour_batch",
         "multiplicity_batch", "adjacent_batch")


def test_benchmark_surface(tmp_path):
    assert all(inspect.ismodule(getattr(upag, layer)) for layer in TRACED_LAYERS)
    d = upag.generate(3, 64, seed=1)
    assert upag.bounds_report(d)["surprisal_bits"] > 0
    built = upag.build(d)
    el = tmp_path / "g.el"
    upag.cli.write_edge_list(el, d)
    again, inferred, order = upag.cli.read_edge_list(el)
    assert again == d and not inferred and order is None
    forms = {"graph.upag": upag.CompressedGraph.from_build(built),
             "labelled.upag": upag.LabelledGraph.from_dag(d)}
    for name, g in forms.items():
        blob = upag.dumps(g)
        assert upag.save(tmp_path / name, g) == len(blob)
        back = upag.load(tmp_path / name)
        assert upag.dumps(upag.loads(blob)) == upag.dumps(back) == blob
        assert all(callable(getattr(back, op)) for op in SCALAR + BATCH)
        vs = np.arange(back.n + 1)
        assert back.degree_in_batch(vs).sum() == d.n * d.m
        assert back.targets.space_report()["payload_bits"] > 0
    assert forms["graph.upag"].tree.space_report()["payload_bits"] == 2 * (d.n + 1)
    assert forms["labelled.upag"].tree is None
