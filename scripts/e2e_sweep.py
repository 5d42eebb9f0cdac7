"""Time the CLI end to end from n = 2^10 to 2^20, per command and per layer; write BENCH_e2e.json.

For each size (m = 3, seed 1) every step below runs in a fresh child
interpreter, and the script records the child's wall time and its peak RSS
(``ru_maxrss`` from ``os.wait4``):

* ``generate`` the edge list ``g.el``;
* ``build`` it in both modes (``unlabelled`` and ``labelled``);
* ``stats`` on the edge list;
* ``selfcheck`` of both ``.upag`` files against the edge list;
* one ``query`` of each op on the compressed file;
* ``build`` of a shuffled copy of ``g.el`` (labels permuted, each edge's ends
  swapped at random, rows shuffled, from ``default_rng(1)``), which the
  reader must peel;
* one ``read_edge_list`` of the shuffled copy, timed inside the child, with
  the ``peel_edges`` call inside it timed on its own;
* ``bench --queries 1000 --seed 0 --json`` on the compressed file, whose
  ``ns_per_query`` rows are kept one by one.

Every row keeps its runs in order, the fastest time and the largest peak
RSS, over 3 runs up to 2^18 and a single run at 2^20.  With ``--parent
REV`` every step also runs on that revision's source, unpacked by ``git
archive``, alternating which side goes first.  Both sides must then write
byte-identical edge lists and ``.upag`` files and print the same selfcheck
and query lines.

    python scripts/e2e_sweep.py [--parent HEAD~1] [--out BENCH_e2e.json]
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import multiprocessing
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
SIZES = (10, 12, 14, 16, 18, 20)
M, SEED = 3, 1
SAME = ("g.el", "g.upag", "lab.upag", "shuffled.el", "shuffled.upag")  # must match across sides

# one read of the shuffled list; peel_edges is looked up in cli's namespace,
# so the wrapper times the peel inside the read
PEEL_CHILD = r"""
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


def commands(n: int, d: Path) -> dict[str, list[str]]:
    """The interpreter argument lists of one size, in run order, working in ``d``."""
    el, up, lab = str(d / "g.el"), str(d / "g.upag"), str(d / "lab.upag")
    shuf = str(d / "shuffled.el")
    q = ["-m", "upag", "query", "--in", up]
    return {
        "generate": ["-m", "upag", "generate", "--m", str(M), "--n", str(n),
                     "--seed", str(SEED), "--out", el],
        "build": ["-m", "upag", "build", "--in", el, "--out", up],
        "build_labelled": ["-m", "upag", "build", "--in", el, "--out", lab, "--mode", "labelled"],
        "stats": ["-m", "upag", "stats", "--in", el],
        "selfcheck": ["-m", "upag", "selfcheck", "--in", up, "--against", el],
        "selfcheck_labelled": ["-m", "upag", "selfcheck", "--in", lab, "--against", el],
        "query_deg": q + ["deg", "1"],
        "query_outn": q + ["outn", str(n), "2"],
        "query_inn": q + ["inn", "1", "1"],
        "query_adj": q + ["adj", "1", "2"],
        "query_nbrs": q + ["nbrs", str(n // 2)],
        "build_shuffled": ["-m", "upag", "build", "--in", shuf, "--out", str(d / "shuffled.upag")],
        "peel": ["-c", PEEL_CHILD, shuf],
        "bench": ["-m", "upag", "bench", "--in", up, "--queries", "1000", "--seed", "0", "--json"],
    }


def write_shuffled(el: Path, out: Path) -> None:
    """Write ``el``'s edges to ``out`` with the vertex labels permuted, each
    edge's two ends swapped at random and the rows shuffled, all drawn from
    ``default_rng(SEED)``; ``el``'s header is kept, so reading ``out`` peels."""
    head, _, body = el.read_text().partition("\n")
    pairs = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2, comments=None)
    rng = np.random.default_rng(SEED)
    perm = rng.permutation(int(head.rsplit("n=", 1)[1]) + 1)
    src, dst = perm[pairs[:, 0]], perm[pairs[:, 1]]
    flip = rng.integers(0, 2, src.size).astype(bool)
    pairs = np.stack([np.where(flip, dst, src), np.where(flip, src, dst)], axis=1)
    pairs = pairs[rng.permutation(len(pairs))]
    with out.open("w") as f:
        f.write(head + "\n")
        for part in np.split(pairs, np.arange(1 << 16, len(pairs), 1 << 16)):
            f.write(("%d %d\n" * len(part)) % tuple(part.ravel().tolist()))


def write_shuffled_apart(el: Path, out: Path) -> None:
    """``write_shuffled`` in a fresh interpreter.  A child's ``ru_maxrss``
    counts the peak RSS of the process that started it, so this process
    must never hold an edge list."""
    p = multiprocessing.get_context("spawn").Process(target=write_shuffled, args=(el, out))
    p.start()
    p.join()
    if p.exitcode != 0:
        raise SystemExit(f"writing the shuffled copy of {el} failed")


def run_child(src: Path, argv: list[str], out: Path) -> tuple[float, float]:
    """Run ``python argv`` on ``src`` with stdout to ``out``; wall seconds, peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=str(src))
    sink = [(os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(out) + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
             0o644)]
    t = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=sink)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{argv} failed:\n{Path(str(out) + '.err').read_text()}")
    return wall, usage.ru_maxrss / 1024


def run_side(src: Path, todo: dict[str, list[str]], d: Path) -> dict[str, dict]:
    """One run of every step of a size on ``src``: row name -> its figures."""
    rows = {}
    for name, argv in todo.items():
        wall, rss = run_child(src, argv, d / f"{name}.out")
        if name == "generate":
            write_shuffled_apart(d / "g.el", d / "shuffled.el")
        printed = (d / f"{name}.out").read_text()
        if name == "peel":
            spent = json.loads(printed)
            rows["read_edge_list"] = {"wall_s": spent["read_edge_list"], "peak_rss_mb": rss}
            rows["peel_edges"] = {"wall_s": spent["peel_edges"]}
            continue
        rows[name] = {"wall_s": wall, "peak_rss_mb": rss}
        if name == "bench":
            for row in json.loads(printed)["rows"]:
                rows["bench." + row["op"]] = {"ns_per_query": row["ns_per_query"]}
    return rows


def kept(runs: list[dict]) -> dict:
    """One side's row: each figure's runs in order, and the fastest time or
    the largest peak RSS of them."""
    row = {}
    for key in runs[0]:
        vals = [round(r[key], 1 if key == "peak_rss_mb" else 4) for r in runs]
        row[key] = max(vals) if key == "peak_rss_mb" else min(vals)
        row[key + "_runs"] = vals
    return row


def digest(path: Path) -> str:
    with path.open("rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


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
    ap.add_argument("--parent", default=None, help="git revision to compare against")
    ap.add_argument("--out", default=str(ROOT / "BENCH_e2e.json"))
    args = ap.parse_args()
    sizes, parent = {}, None
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        sides = {"change": ROOT / "src"}
        if args.parent:
            parent = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                                    check=True, capture_output=True, text=True).stdout.strip()
            sides["parent"] = unpack_src(parent, tmp / "parent")
        for k in SIZES:
            n, runs = 2 ** k, (3 if k <= 18 else 1)
            work = {side: tmp / f"{side}_{k}" for side in sides}
            results = {side: [] for side in sides}
            for d in work.values():
                d.mkdir()
            for i in range(runs):
                for side in sorted(sides, reverse=i % 2 == 1):
                    results[side].append(run_side(sides[side], commands(n, work[side]),
                                                  work[side]))
                print(f"n=2^{k} run {i + 1}/{runs}", file=sys.stderr)
            printed = {name: (work["change"] / f"{name}.out").read_text().strip()
                       for name in commands(n, work["change"])
                       if name.startswith(("selfcheck", "query"))}
            for side in sides.keys() - {"change"}:
                for f in SAME:
                    if digest(work[side] / f) != digest(work["change"] / f):
                        raise SystemExit(f"n=2^{k}: the two sides wrote different {f}")
                for name, text in printed.items():
                    if (work[side] / f"{name}.out").read_text().strip() != text:
                        raise SystemExit(f"n=2^{k}: the two sides printed different {name}")
            row = {name: {side: kept([r[name] for r in results[side]]) for side in sides}
                   for name in results["change"][0]}
            row["printed"] = {name: text for name, text in printed.items()
                              if name.startswith("selfcheck")}
            sizes[f"n=2^{k}"] = row
    report = {
        "what": "per fresh child interpreter, wall time and peak RSS of generate, build in both "
                "modes, stats, selfcheck of both forms, one query of each op, build of a "
                "shuffled copy of the edge list and upag bench; in-process seconds of "
                "read_edge_list on the shuffled copy and of the peel_edges call inside it; "
                "ns per query of every upag bench row",
        "instance": f"python -m upag generate --m {M} --n 2^k --seed {SEED}, "
                    f"k = {', '.join(map(str, SIZES))}; the shuffled copy permutes the vertex "
                    "labels, swaps each edge's ends at random and shuffles the rows "
                    f"(numpy default_rng({SEED})); bench: --queries 1000 --seed 0 on the "
                    "compressed file, each row the fastest of its 3 passes",
        "command": "python scripts/e2e_sweep.py"
                   + (f" --parent {args.parent}" if args.parent else ""),
        "statistic": "fastest time and largest ru_maxrss (os.wait4) of 3 runs per side up "
                     "to 2^18 and 1 run at 2^20; sides alternate which goes first; runs "
                     "are listed in order",
        "drift": "run-to-run wall times on the shared 2-core machine below drift by up to 2x "
                 "between runs minutes apart, so single-run figures at 2^20 are indicative only",
        "parent": parent,
        "machine": machine(),
        "sizes": sizes,
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
