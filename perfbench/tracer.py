"""Span tracer installed around the public callables of upag's layers.

``Tracer.install`` wraps, from outside the package:

* every public function defined in a layer module, and every name in any
  upag module that re-binds it (``upag.cli.build``,
  ``upag.bitvector.read_fields`` and so on);
* the public methods and constructor of every class defined in a layer
  module.

Each call records a span: callable, start, end, parent span, lanes passed
in, and the id of the workload op or batch that caused it.  Spans stay in
flat arrays and are written out by ``save``.  ``summary`` turns them into
per-layer metrics:

* ``<layer>.<callable>.calls`` and ``.lanes`` count only calls entered from
  another layer (or from the benchmark); a layer calling itself opens a
  child span but is not counted again;
* ``.self_s`` is span time minus the time covered by child spans.

Scalar and batch forms of one operation share a callable name (``rank1``,
``rank0_batch`` and friends are ``bitvector.rank``) so a scalar that is a
batch of one is not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("pa_gen", "entropy", "graph_model", "construct", "cli", "bits",
          "bitvector", "bptree", "wavelet", "ugraph", "serialize")

# callable-name overrides, by class; unlisted public methods keep their name
GROUPS = {
    "BitVector": {
        "__init__": "init",
        "rank1": "rank", "rank0": "rank", "rank1_batch": "rank", "rank0_batch": "rank",
        "select1": "select", "select0": "select",
        "select1_batch": "select", "select0_batch": "select",
        "access": "access", "access_batch": "access",
    },
    "BPTree": {
        "__init__": "init",
        "parent_batch": "parent",
        "tree_degree": "children", "child": "children",
    },
    "WaveletTree": {
        "__init__": "init",
        "access_batch": "access",
        "rank_batch": "rank", "occ": "rank",
        "select_batch": "select",
    },
    "CompressedGraph": {"__init__": "init"},
    "LabelledGraph": {"__init__": "init"},
    "Dag": {"__init__": "Dag"},
    "UndirectedMultigraph": {"__init__": "UndirectedMultigraph"},
}

# positional argument (after self) whose length is the call's lane count
LANE_ARG = {"bits.read_fields": 1}


def _lanes(arg) -> int:
    if isinstance(arg, np.ndarray):
        return int(arg.size)
    if isinstance(arg, (list, tuple)):
        return len(arg)
    return 1


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.lanes = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.current_op = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, name: str, method: bool):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        nid = self._name_id[name]
        at = LANE_ARG.get(name, 0) + (1 if method else 0)
        clock = time.perf_counter
        rec_name, rec_parent, rec_op = self.name, self.parent, self.op
        rec_lanes, rec_t0, rec_t1, stack = self.lanes, self.t0, self.t1, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec_t0)
            rec_name.append(nid)
            rec_parent.append(stack[-1])
            rec_op.append(self.current_op)
            rec_lanes.append(_lanes(args[at]) if len(args) > at else 1)
            rec_t1.append(0.0)
            stack.append(idx)
            rec_t0.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                rec_t1[idx] = clock()
                stack.pop()

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, upag) -> None:
        modules = [m for m in vars(upag).values() if inspect.ismodule(m)
                   and m.__name__.startswith(upag.__name__ + ".")]
        owners = modules + [upag]
        for layer in LAYERS:
            mod = getattr(upag, layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(obj, f"{layer}.{attr}", method=False)
                    for owner in owners:
                        for k, v in list(vars(owner).items()):
                            if v is obj:
                                self._set(owner, k, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls) -> None:
        groups = GROUPS.get(cls.__name__, {})
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{groups.get(attr, attr)}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(raw.__func__, name, method=True)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name, method=True))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            "lanes": np.frombuffer(self.lanes, dtype=np.int64).copy(),
            "t0": np.frombuffer(self.t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self.t1, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per callable: calls, lanes and self seconds; plus lanes by parent.

        Returns ``{name: {"calls", "lanes", "self_s"}}`` and, under the key
        ``"_by_parent"``, ``{(parent name, child name): lanes}`` of the
        counted calls, which the ratio metrics need.
        """
        a = self.arrays()
        if not a["t0"].size:
            return {"_by_parent": {}}
        names = np.array(self.names)
        layer_of = np.array([s.split(".")[0] for s in self.names])
        dur = a["t1"] - a["t0"]
        par = a["parent"]
        has_par = par >= 0
        covered = np.bincount(par[has_par], weights=dur[has_par], minlength=dur.size)
        self_s = dur - covered
        par_name = np.where(has_par, a["name"][np.maximum(par, 0)], -1)
        counted = ~has_par | (layer_of[np.maximum(par_name, 0)] != layer_of[a["name"]])
        out: dict = {}
        k = len(self.names)
        calls = np.bincount(a["name"][counted], minlength=k)
        lanes = np.bincount(a["name"][counted], weights=a["lanes"][counted], minlength=k)
        selfs = np.bincount(a["name"], weights=self_s, minlength=k)
        for i, nm in enumerate(names):
            out[str(nm)] = {"calls": int(calls[i]), "lanes": int(lanes[i]),
                            "self_s": float(selfs[i])}
        sel = counted & has_par
        pair = par_name[sel] * k + a["name"][sel]
        tot = np.bincount(pair, weights=a["lanes"][sel], minlength=k * k)
        out["_by_parent"] = {(self.names[i // k], self.names[i % k]): int(tot[i])
                             for i in np.flatnonzero(tot)}
        return out
