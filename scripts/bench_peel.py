"""Time the peel of shuffled edge lists against a parent commit; write BENCH_peel.json.

For n = 2^12, 2^15 and 2^18 (m = 3, seed 1) the script writes one edge list
whose vertex labels are permuted, whose rows are shuffled and whose two ends
are swapped at random, so ``read_edge_list`` must peel it.  Each side then
runs, in a fresh interpreter per run:

* ``read_edge_list`` on the file, with ``peel_edges`` timed inside it;
* ``python -m upag build`` on the file, timed as wall time of the child.

Runs alternate between the parent and this checkout, which side goes first
swapping every pair, and each figure is the best of the runs.  The parent's
source is unpacked by ``git archive`` into a temporary directory.  Both
sides' ``.upag`` outputs must be byte-identical.

    python scripts/bench_peel.py --parent HEAD~1 [--runs 9] [--out BENCH_peel.json]
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from upag.pa_gen import generate  # noqa: E402

SIZES = (12, 15, 18)
M, SEED = 3, 1

# one read of the file; peel_edges is looked up in cli's namespace, so the
# wrapper times the peel inside the read
CHILD = r"""
import json, sys, time
from upag import cli
peel, spent = cli.peel_edges, []
def timed(*args):
    t = time.perf_counter()
    out = peel(*args)
    spent.append(time.perf_counter() - t)
    return out
cli.peel_edges = timed
t = time.perf_counter()
d, inferred, order = cli.read_edge_list(sys.argv[1])
total = time.perf_counter() - t
if not inferred or len(spent) != 1:
    raise SystemExit("the file was not peeled exactly once")
print(json.dumps({"read_edge_list": total, "peel_edges": spent[0]}))
"""


def write_shuffled(path: Path, n: int) -> None:
    d = generate(M, n, seed=SEED)
    rng = np.random.default_rng(SEED)
    perm = rng.permutation(n + 1)
    src = perm[np.repeat(np.arange(1, n + 1), M)]
    dst = perm[d.targets.ravel()]
    flip = rng.integers(0, 2, src.size).astype(bool)
    pairs = np.stack([np.where(flip, dst, src), np.where(flip, src, dst)], axis=1)
    pairs = pairs[rng.permutation(len(pairs))]
    body = ("%d %d\n" * len(pairs)) % tuple(pairs.ravel().tolist())
    path.write_text(f"# upag-el v1 M={M} n={n}\n{body}")


def run_side(src: Path, el: Path, out: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", CHILD, str(el)], env=env, check=True,
                         capture_output=True, text=True)
    times = json.loads(res.stdout)
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "upag", "build", "--in", str(el), "--out", str(out)],
                   env=env, check=True, capture_output=True)
    times["cli_build"] = time.perf_counter() - t
    return times


def unpack_src(rev: str, dest: Path) -> Path:
    """Unpack revision ``rev``'s ``src`` tree into ``dest`` by ``git archive``; return it."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--runs", type=int, default=9, help="runs per side and size")
    ap.add_argument("--out", default=str(ROOT / "BENCH_peel.json"))
    args = ap.parse_args()
    parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                            check=True, capture_output=True, text=True).stdout.strip()
    sizes = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"parent": unpack_src(parent, tmp / "parent"), "change": ROOT / "src"}
        for k in SIZES:
            el = tmp / f"shuffled_{k}.el"
            write_shuffled(el, 2 ** k)
            runs = {side: [] for side in sides}
            for i in range(args.runs):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    runs[side].append(run_side(sides[side], el, tmp / f"{side}.upag"))
                print(f"n=2^{k} run {i + 1}/{args.runs}", file=sys.stderr)
            digests = {hashlib.sha256((tmp / f"{side}.upag").read_bytes()).hexdigest()
                       for side in sides}
            if len(digests) != 1:
                raise SystemExit(f"n=2^{k}: the two sides wrote different .upag files")
            row = {}
            for what in ("peel_edges", "read_edge_list", "cli_build"):
                p = [round(r[what] * 1e3, 1) for r in runs["parent"]]
                c = [round(r[what] * 1e3, 1) for r in runs["change"]]
                row[what] = {"parent_ms": min(p), "change_ms": min(c),
                             "parent_over_change": round(min(p) / min(c), 2),
                             "parent_runs_ms": p, "change_runs_ms": c}
            sizes[f"n=2^{k}"] = row
    report = {
        "what": "wall time of peeling a shuffled edge list: peel_edges alone, read_edge_list "
                "(parse plus peel) and the CLI build (interpreter start, read, peel, build, "
                "write)",
        "instance": f"upag.pa_gen.generate(m={M}, n, seed={SEED}) at n = 2^12, 2^15, 2^18; "
                    "vertex labels permuted, rows shuffled and each row's ends swapped at "
                    f"random (numpy default_rng({SEED}))",
        "command": "python scripts/bench_peel.py --parent " + args.parent,
        "statistic": f"best of {args.runs} fresh-interpreter runs per side and size, "
                     "alternating which side runs first; runs are listed in order",
        "parent": parent,
        "machine": machine(),
        "sizes": sizes,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
