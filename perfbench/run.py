"""upag benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {ingest,interactive,walk} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --selftest

Run it from the root of a checkout: upag is imported from ``src/`` there.
Every process that imports upag is a fresh interpreter started from here
(see ``worker.py``); this process only orchestrates.

--trace 0  times the workload for ``--seconds`` and reports the end-to-end
           metrics.  ``setup_s`` is the median of several fresh set-ups.
--trace 1  runs a fixed amount of the workload twice in one process, first
           plain and then with span tracing installed, and reports the
           per-layer metrics, including the tracing overhead.

The last line of standard output is the result object.  Working files go
to ``.bench_work/`` under the checkout; each run's figures and provenance
stay in ``.bench_work/results/`` and traced spans in ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKER = HERE / "worker.py"

N_QUERY = 1 << 18       # interactive and walk: the size whose batch thresholds they target
N_INGEST = 1 << 15      # ingest: small enough for several passes, and per-stage medians, a run
N_SMOKE = 1 << 10
WALKERS_FULL = 4096
WALKERS_SMOKE = 64
SETUPS = 5              # fresh set-ups per untraced run; setup_s is their median
DEADLINE_S = 175.0      # whole run, set-up included

END_TO_END = {          # name -> unit
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "bits_per_edge": "bits",
}


class RunFailed(Exception):
    """A benchmark step failed; the run prints no result."""


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(a) -> dict:
    return {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
        "n": a.n, "m": 3, "walkers": a.walkers,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


class Runner:
    """Starts the worker processes of one run, each bounded by the deadline."""

    def __init__(self, a, rundir: Path):
        self.a = a
        self.dir = rundir
        self.deadline = time.monotonic() + DEADLINE_S

    def _args(self, command: str) -> list[str]:
        a = self.a
        return [sys.executable, str(WORKER), command, "--workload", a.workload,
                "--seed", str(a.seed), "--n", str(a.n), "--walkers", str(a.walkers),
                "--seconds", str(a.seconds), "--trace", str(a.trace), "--dir", str(self.dir)]

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RunFailed("out of time")
        return left

    def call(self, command: str, *extra: str) -> str:
        try:
            p = subprocess.run(self._args(command) + list(extra), cwd=ROOT,
                               capture_output=True, text=True, timeout=self._left())
        except subprocess.TimeoutExpired:
            raise RunFailed(f"worker {command} ran out of time") from None
        if p.returncode != 0:
            sys.stderr.write(p.stderr)
            raise RunFailed(f"worker {command} exited with {p.returncode}")
        return p.stdout

    def setup_seconds(self) -> tuple[float, float]:
        """Fresh process to first answered query, timed from outside.

        Returns (scaled, wall) seconds.  The scaled figure uses the speed
        probe of ``workloads.py``, run here just before and after, like
        every other time the benchmark reports.
        """
        from workloads import CAL_REF_S, probe_speed

        cal = probe_speed()
        spawned = time.time()
        try:
            p = subprocess.run(self._args("probe"), cwd=ROOT, capture_output=True,
                               text=True, timeout=self._left())
        except subprocess.TimeoutExpired:
            raise RunFailed("set-up probe ran out of time") from None
        words = p.stdout.split()
        if p.returncode != 0 or len(words) != 2 or words[0] != "ready":
            sys.stderr.write(p.stderr)
            raise RunFailed("set-up probe failed")
        wall = float(words[1]) - spawned
        cal = 0.5 * (cal + probe_speed())
        return wall * CAL_REF_S / cal, wall


def check_ledger(key: str, sha: str) -> bool:
    """Same seed and size must give the same ``.upag`` bytes on every run."""
    path = WORK / "ingest_sha256.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    known = ledger.setdefault(key, sha)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return known == sha


def run_once(a) -> dict:
    if not (ROOT / "src" / "upag" / "__init__.py").is_file():
        raise RunFailed(f"no upag sources under {ROOT / 'src'}")
    tag = f"{a.workload}-s{a.seed}-t{a.trace}"
    rundir = WORK / "runs" / f"{tag}-p{os.getpid()}"
    for d in (rundir, WORK / "results", WORK / "traces"):
        d.mkdir(parents=True, exist_ok=True)
    try:
        r = Runner(a, rundir)
        if a.workload != "ingest":
            r.call("prepare")
        setups = [] if a.trace else [r.setup_seconds() for _ in range(SETUPS)]
        out_path = rundir / "result.json"
        extra = ["--out", str(out_path), "--spans", str(WORK / "traces" / f"{tag}.npz")]
        if a.inject_fault:
            extra.append("--inject-fault")
        sys.stdout.write(r.call("run", *extra))
        res = json.loads(out_path.read_text())
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    correct = res["failed"] == 0
    if a.workload == "ingest":
        same = check_ledger(f"n={a.n} seed={a.seed}", res["sha256"])
        if not same:
            print(f"ingest bytes differ from an earlier run with seed {a.seed}")
        correct = correct and same
    if a.trace:
        metrics = res["per_layer"]
    else:
        vals = dict(res["metrics"], setup_s=statistics.median(s for s, _ in setups))
        metrics = {k: {"value": vals[k], "unit": u} for k, u in END_TO_END.items()}
    record = {"provenance": provenance(a), "correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "failed_ops_frac": res["failed_ops_frac"],
              "first_failure": res["first_failure"], "setup_samples_s": setups,  # (scaled, wall)
              "workload_figures": res["extra"], "metrics": metrics}
    if a.workload == "ingest":
        record["sha256"] = res["sha256"]
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for k, v in record["provenance"].items():
        print(f"{k}={v}")
    print(f"failed_ops_frac={record['failed_ops_frac']} attempted={res['attempted']}")
    for k, v in res["extra"].items():
        print(f"{a.workload}.{k}={v}")
    return {"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
            "metrics": metrics}


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------

def _smoke(workload: str, trace: int, *extra: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S)
    if p.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stderr}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(what)


def selftest() -> None:
    """Small-n runs of every workload; fails loudly if the benchmark is vacuous."""
    from worker import per_layer_spec

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    _expect(want[0] == END_TO_END, "BENCHMARK.json end_to_end disagrees with run.py")
    _expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
            == per_layer_spec(), "BENCHMARK.json per_layer disagrees with worker.py")
    exact_units = ("count", "bits", "bytes", "lanes/call", "lanes/lane")
    for w in (x["name"] for x in spec["workloads"]):
        runs = {}
        for trace in (0, 1):
            res = runs[trace] = _smoke(w, trace)
            _expect(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{w}: {res}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            _expect(got == want[trace], f"{w} trace={trace}: metrics {got}")
            _expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{w}: {res}")
        again = _smoke(w, 1)["metrics"]
        for name, unit in want[1].items():
            if unit in exact_units:
                _expect(again[name] == runs[1]["metrics"][name], f"{w}: {name} did not repeat")
        bad = _smoke(w, 0, "--inject-fault")
        _expect(bad["failed"] > 0 and not bad["correct"], f"{w}: injected fault went unseen")
        print(f"selftest {w}: ok", flush=True)
    print("selftest: ok")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="upag benchmark")
    p.add_argument("--workload", choices=["ingest", "interactive", "walk"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"small instance (n={N_SMOKE}, {WALKERS_SMOKE} walkers)")
    p.add_argument("--inject-fault", action="store_true",
                   help="test only: spoil every graph answer so the checks must fail")
    p.add_argument("--selftest", action="store_true", help="run the smoke self-test")
    a = p.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if a.selftest:
        selftest()
        return 0
    if a.workload is None:
        p.error("--workload is required")
    a.n = N_SMOKE if a.smoke else N_INGEST if a.workload == "ingest" else N_QUERY
    a.walkers = WALKERS_SMOKE if a.smoke else WALKERS_FULL
    try:
        result = run_once(a)
    except RunFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
