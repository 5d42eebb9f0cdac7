"""Benchmark processes that import upag: ``prepare``, ``probe`` and ``run``.

``run.py`` starts each of them as a fresh interpreter from the checkout
root, so upag comes from ``src/`` of that checkout and nowhere else.

prepare  writes a query workload's inputs: ``graph.upag`` (compressed),
         ``labelled.upag`` (interactive only), and the instance's target
         blocks and relabelling as ``.npy`` for the reference.
probe    one set-up: import upag, load the workload's files and issue the
         first query, then print ``ready`` and the epoch time.
run      the timed workload; writes its figures as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
M = 3


def import_upag():
    """Import upag from the checkout's ``src/``; refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import upag
    import upag.cli  # noqa: F401 - the edge-list layer is not re-exported

    if Path(upag.__file__).resolve().parent != (src / "upag").resolve():
        raise SystemExit(f"upag imported from {upag.__file__}, not from {src}")
    return upag


def cmd_prepare(a) -> None:
    import numpy as np

    up = import_upag()
    d = up.generate(M, a.n, seed=a.seed)
    built = up.build(d)
    up.save(a.dir / "graph.upag", up.CompressedGraph.from_build(built))
    if a.workload == "interactive":
        up.save(a.dir / "labelled.upag", up.LabelledGraph.from_dag(d))
    np.save(a.dir / "targets.npy", d.targets)
    np.save(a.dir / "relabel.npy", built.relabel)


def cmd_probe(a) -> None:
    up = import_upag()
    if a.workload == "ingest":
        print("ready", repr(time.time()), flush=True)
        return
    import numpy as np

    rng = np.random.default_rng([a.seed, 4])
    g = up.load(a.dir / "graph.upag")
    if a.workload == "walk":
        g.degree_in_batch(rng.integers(0, g.n + 1, a.walkers))
    else:
        v = int(rng.integers(0, g.n + 1))
        g.degree_in(v)
        up.load(a.dir / "labelled.upag").degree_in(v)
    print("ready", repr(time.time()), flush=True)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec: list[tuple[str, str, str]] = []

    def timed(*names):
        spec.extend((f"{nm}.self_s", "s", "lower") for nm in names)

    def counted(*names):
        for nm in names:
            spec.extend([(f"{nm}.calls", "count", "lower"),
                         (f"{nm}.lanes", "count", "lower"),
                         (f"{nm}.self_s", "s", "lower")])

    timed("pa_gen.generate", "pa_gen.log_prob", "entropy.bounds_report",
          "cli.write_edge_list", "cli.read_edge_list", "graph_model.Dag")
    spec.append(("graph_model.add_edge.calls", "count", "lower"))
    timed("graph_model.add_edge", "construct.build", "construct.peel_relabel")
    counted("bits.read_fields")
    timed("bits.pack_fields")
    counted("bitvector.rank", "bitvector.select", "bitvector.access")
    timed("bitvector.init", "bitvector.from_parts")
    spec.append(("bitvector.lanes_per_call", "lanes/call", "higher"))
    counted("bptree.parent", "bptree.children", "bptree.child_layout", "bptree.degree_batch")
    timed("bptree.init")
    spec += [("bptree.payload_bits", "bits", "lower"), ("bptree.directory_bits", "bits", "lower")]
    counted("wavelet.access", "wavelet.rank", "wavelet.select")
    spec += [(f"wavelet.{op}.bv_lanes_per_lane", "lanes/lane", "lower")
             for op in ("access", "rank", "select")]
    timed("wavelet.init")
    spec += [(f"wavelet.{k}_bits", "bits", "lower") for k in ("payload", "directory", "presence")]
    families = ("degree_in", "out_neighbour", "in_neighbour", "adjacent", "multiplicity",
                "neighbours_out", "neighbours_in")
    batches = ("degree_in_batch", "out_neighbour_batch", "in_neighbour_batch",
               "multiplicity_batch", "adjacent_batch")
    counted(*(f"ugraph.{f}" for f in families + batches))
    timed("ugraph.from_build", "serialize.dumps", "serialize.loads")
    spec += [("serialize.file_bytes", "bytes", "lower"), ("trace.overhead_frac", "ratio", "lower")]
    return spec


def layer_values(summary: dict, g, file_bytes: int, overhead: float) -> dict:
    def field(name: str, key: str):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    by_parent = summary["_by_parent"]
    tree = g.tree.space_report()
    wt = g.targets.space_report()
    bv_ops = [f"bitvector.{op}" for op in ("rank", "select", "access")]
    vals = {
        "bitvector.lanes_per_call": ratio(sum(field(b, "lanes") for b in bv_ops),
                                          sum(field(b, "calls") for b in bv_ops)),
        "bptree.payload_bits": tree["payload_bits"],
        "bptree.directory_bits": tree["directory_bits"],
        "wavelet.payload_bits": wt["payload_bits"],
        "wavelet.directory_bits": wt["directory_bits"],
        "wavelet.presence_bits": wt["presence_bits"],
        "serialize.file_bytes": file_bytes,
        "trace.overhead_frac": overhead,
    }
    for op in ("access", "rank", "select"):
        w = f"wavelet.{op}"
        issued = sum(by_parent.get((w, b), 0) for b in bv_ops)
        vals[f"{w}.bv_lanes_per_lane"] = ratio(issued, field(w, "lanes"))
    out = {}
    for name, unit, _ in per_layer_spec():
        if name not in vals:
            base, key = name.rsplit(".", 1)
            vals[name] = field(base, key)
        out[name] = {"value": vals[name], "unit": unit}
    return out


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def inject_fault(up) -> None:
    """Test-only: make every graph query family answer wrongly."""
    import numpy as np

    def spoil(fn):
        def wrong(*args, **kwargs):
            got = fn(*args, **kwargs)
            if isinstance(got, np.ndarray):
                got = got.copy()
                if got.size:
                    got[0] = got[0] + 1 if got.dtype != bool else not got[0]
                return got
            if isinstance(got, list):
                return got + [0]
            if isinstance(got, bool):
                return not got
            return got + 1
        return wrong

    for cls in (up.CompressedGraph, up.LabelledGraph):
        for name in ("degree_in", "out_neighbour", "in_neighbour", "adjacent", "multiplicity",
                     "neighbours_out", "neighbours_in", "degree_in_batch",
                     "out_neighbour_batch", "in_neighbour_batch", "multiplicity_batch"):
            if name in vars(cls):
                setattr(cls, name, spoil(vars(cls)[name]))


def _workload(a, up, tracer=None):
    import numpy as np
    from reference import Reference
    from workloads import WORKLOADS, Env

    # a traced run compares plain and traced time of the same work: no scaling
    env = Env(up, a.dir, a.seed, a.n, M, a.walkers, calibrate=not a.trace, tracer=tracer)
    if a.workload != "ingest":
        env.reference = Reference(np.load(a.dir / "targets.npy"))
        env.checker.set_relabel(np.load(a.dir / "relabel.npy"))
        env.reference.set_relabel(env.checker.to_stored)
        env.file_bytes = (a.dir / "graph.upag").stat().st_size
    return env, WORKLOADS[a.workload]


def cmd_run(a) -> None:
    up = import_upag()
    if a.inject_fault:
        inject_fault(up)
    env, work = _workload(a, up)
    t0 = time.perf_counter()
    res = work(env, a.seconds, fixed=bool(a.trace))
    wall = time.perf_counter() - t0
    chk = env.checker
    out = {"attempted": chk.attempted, "failed": chk.failed,
           "first_failure": chk.first_failure, "failed_ops_frac": chk.failed_frac,
           "extra": res["extra"]}
    if a.workload == "ingest":
        out["sha256"] = env.sha256
    if not a.trace:
        rep = res["graph"].space_report()
        out["metrics"] = {
            "ops_per_s": res["ops_per_s"],
            "bits_per_edge": rep["total_bits"] / (env.n * M),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        from tracer import Tracer

        tracer = Tracer()
        env2, _ = _workload(a, up, tracer=tracer)
        tracer.install(up)
        try:
            t0 = time.perf_counter()
            res2 = work(env2, a.seconds, fixed=True)
            traced = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        out["attempted"] += env2.checker.attempted
        out["failed"] += env2.checker.failed
        summary = tracer.summary()
        out["per_layer"] = layer_values(summary, res2["graph"], env2.file_bytes,
                                        traced / wall - 1.0)
        tracer.save(a.spans)
    Path(a.out).write_text(json.dumps(out))


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("command", choices=["prepare", "probe", "run"])
    p.add_argument("--workload", required=True, choices=["ingest", "interactive", "walk"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--walkers", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--spans", type=Path)
    p.add_argument("--inject-fault", action="store_true")
    a = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    {"prepare": cmd_prepare, "probe": cmd_probe, "run": cmd_run}[a.command](a)


if __name__ == "__main__":
    main()
