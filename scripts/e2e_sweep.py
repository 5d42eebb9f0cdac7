"""Time the CLI end to end from n = 2^10 to 2^20; write BENCH_e2e.json.

For each size (m = 3, seed 1) every command below runs in a fresh child
interpreter, and the script records the child's wall time and its peak RSS
(``ru_maxrss`` from ``os.wait4``):

* ``generate`` the edge list;
* ``build`` it in both modes (``unlabelled`` and ``labelled``);
* ``stats`` on the edge list;
* ``selfcheck`` of both ``.upag`` files against the edge list;
* one ``query`` of each op on the compressed file.

Each figure is the best wall time and the largest peak RSS of 3 runs up to
2^18, and of a single run at 2^20.  With ``--parent REV`` the commands also
run on that revision's source, unpacked by ``git archive``, alternating which
side goes first.  Both sides must then write byte-identical edge lists and
``.upag`` files and print the same selfcheck and query lines.

    python scripts/e2e_sweep.py [--parent HEAD~1] [--out BENCH_e2e.json]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_peel import ROOT, machine, unpack_src

SIZES = (10, 12, 14, 16, 18, 20)
M, SEED = 3, 1


def commands(n: int, d: Path) -> dict[str, list[str]]:
    """The CLI argument lists of one size, in run order, writing into ``d``."""
    el, up, lab = str(d / "g.el"), str(d / "g.upag"), str(d / "lab.upag")
    q = ["query", "--in", up]
    return {
        "generate": ["generate", "--m", str(M), "--n", str(n), "--seed", str(SEED), "--out", el],
        "build": ["build", "--in", el, "--out", up],
        "build_labelled": ["build", "--in", el, "--out", lab, "--mode", "labelled"],
        "stats": ["stats", "--in", el],
        "selfcheck": ["selfcheck", "--in", up, "--against", el],
        "selfcheck_labelled": ["selfcheck", "--in", lab, "--against", el],
        "query_deg": q + ["deg", "1"],
        "query_outn": q + ["outn", str(n), "2"],
        "query_inn": q + ["inn", "1", "1"],
        "query_adj": q + ["adj", "1", "2"],
        "query_nbrs": q + ["nbrs", str(n // 2)],
    }


def run_child(src: Path, argv: list[str], out: Path) -> tuple[float, float]:
    """Run ``python -m upag argv`` with stdout to ``out``; wall seconds, peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=str(src))
    sink = [(os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(out) + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
             0o644)]
    t = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "upag", *argv], env,
                         file_actions=sink)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{argv} failed:\n{Path(str(out) + '.err').read_text()}")
    return wall, usage.ru_maxrss / 1024


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
            todo = {side: commands(n, work[side]) for side in sides}
            times = {side: {name: [] for name in todo[side]} for side in sides}
            for d in work.values():
                d.mkdir()
            for i in range(runs):
                order = sorted(sides, reverse=i % 2 == 1)
                for side in order:
                    for name, argv in todo[side].items():
                        times[side][name].append(run_child(sides[side], argv,
                                                           work[side] / f"{name}.out"))
                print(f"n=2^{k} run {i + 1}/{runs}", file=sys.stderr)
            printed = {name: (work["change"] / f"{name}.out").read_text().strip()
                       for name in todo["change"] if name.startswith(("selfcheck", "query"))}
            for side in sides.keys() - {"change"}:
                for f in ("g.el", "g.upag", "lab.upag"):
                    if digest(work[side] / f) != digest(work["change"] / f):
                        raise SystemExit(f"n=2^{k}: the two sides wrote different {f}")
                for name, text in printed.items():
                    if (work[side] / f"{name}.out").read_text().strip() != text:
                        raise SystemExit(f"n=2^{k}: the two sides printed different {name}")
            row = {}
            for name in todo["change"]:
                row[name] = {}
                for side in sides:
                    wall = [round(w, 3) for w, _ in times[side][name]]
                    rss = [round(r, 1) for _, r in times[side][name]]
                    row[name][side] = {"wall_s": min(wall), "peak_rss_mb": max(rss),
                                       "wall_runs_s": wall, "rss_runs_mb": rss}
            row["printed"] = {name: text for name, text in printed.items()
                              if name.startswith("selfcheck")}
            sizes[f"n=2^{k}"] = row
    report = {
        "what": "wall time and peak RSS of one CLI command per fresh child interpreter: "
                "generate, build in both modes, stats, selfcheck of both forms, one query "
                "of each op",
        "instance": f"python -m upag generate --m {M} --n 2^k --seed {SEED}, "
                    f"k = {', '.join(map(str, SIZES))}",
        "command": "python scripts/e2e_sweep.py"
                   + (f" --parent {args.parent}" if args.parent else ""),
        "statistic": "best wall time and largest ru_maxrss (os.wait4) of 3 runs per side up "
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
