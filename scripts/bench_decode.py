"""Parent-vs-change timings of the rrr block code, written to BENCH_decode.json.

    python scripts/bench_decode.py --parent PATH [--parent-label REV] [--out FILE]

PATH is a checkout of the parent commit (``git archive`` of it will do);
the checkout holding this script is the change.  Every row is the best of 3
runs per side, taken in the order parent, change, parent, change, parent,
change, each run in a fresh interpreter:

* ``decode_<N>``: one ``bitvector._decode_words`` call on N distinct
  64-bit blocks (ascending, as a block fetch passes them) of a 2^20-bit
  rrr bitvector whose blocks have densities drawn from U(0.02, 0.98);
  mean over repeats filling at least 0.2 s;
* ``rrr_encode_2^20``: ``BitVector(bits, mode="rrr")`` on those 2^20 bits,
  which the block encoder dominates;
* ``wavelet_init_2^20``: ``WaveletTree`` on the leftover string of the
  n = 2^20, m = 3, seed 1 instance;
* ``build_2^20``: wall time of ``upag build`` on that instance's edge list;
* ``bench_<op>``: every row of ``upag bench --json --queries 1000 --seed 0``
  on each side's own ``.upag`` of the n = 2^18, m = 3, seed 1 instance.  The
  parent side runs this checkout's ``cli.py`` over the parent's other
  modules when the parent's ``bench`` has no ``--json``.

The edge lists and the leftover string are made once with this checkout
(``generate`` and ``build`` give the same instance and string on both
sides); every timing uses the side's own code.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
CHANGE = HERE.parent
DECODE_SIZES = (1, 8, 64, 512, 4096, 16384)
RUNS = 3


def _level_bits(nbits: int = 1 << 20, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dens = rng.uniform(0.02, 0.98, nbits // 64).repeat(64)
    return (rng.random(nbits) < dens).astype(np.uint8)


def measure(work: Path) -> dict[str, int]:
    """In-process rows of one run of the side on ``sys.path``: ns per call."""
    from upag import bitvector as bv
    from upag.wavelet import WaveletTree

    out = {}
    bits = _level_bits()
    t0 = time.perf_counter_ns()
    vec = bv.BitVector(bits, mode="rrr")
    out["rrr_encode_2^20"] = time.perf_counter_ns() - t0
    meta = vec._meta[:vec._nblocks]
    low = np.uint64(0xFFFFFFFF)
    starts = np.cumsum(meta) - meta
    codes = bv.read_fields(vec._payload_words, starts >> np.uint64(32),
                           meta >> np.uint64(32) & np.uint64(0x3F))
    classes = meta & low
    full = "pads" not in inspect.signature(bv._decode_words).parameters
    rng = np.random.default_rng(2)
    for n in DECODE_SIZES:
        pick = np.sort(rng.choice(meta.size, n, replace=False))
        c, k = codes[pick], classes[pick]
        arg = 64 if full else np.zeros(n, dtype=np.uint64)
        bv._decode_words(c, k, arg)                  # tables built outside the timing
        reps, spent = 0, 0
        t0 = time.perf_counter_ns()
        while spent < 200_000_000:
            bv._decode_words(c, k, arg)
            reps += 1
            spent = time.perf_counter_ns() - t0
        out[f"decode_{n}"] = spent // reps
    string = np.load(work / "nontree_2^20.npy")
    t0 = time.perf_counter_ns()
    WaveletTree(string, sigma=(1 << 20) + 1)
    out["wavelet_init_2^20"] = time.perf_counter_ns() - t0
    return out


def _env(src: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(src))


def _run(src: Path, *argv: str) -> str:
    return subprocess.run([sys.executable, *argv], env=_env(src), check=True,
                          capture_output=True, text=True).stdout


def _side_src(root: Path, work: Path, name: str) -> Path:
    """The side's ``src``; a parent whose bench lacks ``--json`` gets this
    checkout's ``cli.py`` over its other modules."""
    src = root / "src"
    if "--json" in (src / "upag" / "cli.py").read_text():
        return src
    overlay = work / f"{name}_src"
    shutil.copytree(src, overlay)
    shutil.copy(CHANGE / "src" / "upag" / "cli.py", overlay / "upag" / "cli.py")
    return overlay


def one_run(side: str, src: Path, work: Path) -> dict[str, int]:
    rows = json.loads(_run(src, __file__, "--measure", str(work)).strip().splitlines()[-1])
    t0 = time.perf_counter_ns()
    _run(src, "-m", "upag.cli", "build", "--in", str(work / "g20.el"),
         "--out", str(work / f"{side}_20.upag"))
    rows["build_2^20"] = time.perf_counter_ns() - t0
    bench = json.loads(_run(src, "-m", "upag.cli", "bench", "--in", str(work / f"{side}_18.upag"),
                            "--queries", "1000", "--seed", "0", "--json"))
    rows.update({f"bench_{r['op']}": r["ns_per_query"] for r in bench["rows"]})
    return rows


def _machine() -> dict:
    cpu = platform.processor()
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
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, help="checkout of the parent commit")
    p.add_argument("--parent-label", default=None, help="name of the parent commit")
    p.add_argument("--out", type=Path, default=CHANGE / "BENCH_decode.json")
    p.add_argument("--measure", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure)))
        return 0
    if args.parent is None:
        p.error("--parent is required")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        mine = CHANGE / "src"
        _run(mine, "-m", "upag.cli", "generate", "--m", "3", "--n", str(1 << 20),
             "--seed", "1", "--out", str(work / "g20.el"))
        _run(mine, "-m", "upag.cli", "generate", "--m", "3", "--n", str(1 << 18),
             "--seed", "1", "--out", str(work / "g18.el"))
        _run(mine, "-c", "import sys, numpy as np; from upag.cli import read_edge_list; "
             "from upag.construct import build; "
             f"np.save(sys.argv[1], build(read_edge_list(sys.argv[2])[0]).nontree)",
             str(work / "nontree_2^20.npy"), str(work / "g20.el"))
        sides = {"parent": _side_src(args.parent.resolve(), work, "parent"), "change": mine}
        for side, src in sides.items():
            _run(src, "-m", "upag.cli", "build", "--in", str(work / "g18.el"),
                 "--out", str(work / f"{side}_18.upag"))
        runs: dict[str, list[dict]] = {side: [] for side in sides}
        for _ in range(RUNS):
            for side, src in sides.items():
                runs[side].append(one_run(side, src, work))
    rows = {}
    for name in runs["change"][0]:
        if name not in runs["parent"][0]:
            continue
        par = [r[name] for r in runs["parent"]]
        chg = [r[name] for r in runs["change"]]
        rows[name] = {"parent_ns": min(par), "change_ns": min(chg),
                      "parent_over_change": round(min(par) / max(min(chg), 1), 2),
                      "parent_runs_ns": par, "change_runs_ns": chg}
    doc = {
        "what": "ns per call of the rrr block decode and encode, the wavelet constructor, "
                "upag build, and every upag bench row (see the script's docstring)",
        "instances": "upag generate --m 3 --seed 1 at n = 2^20 (decode, encode, wavelet, "
                     "build) and n = 2^18 (bench)",
        "command": "python scripts/bench_decode.py --parent <parent checkout>",
        "statistic": f"best of {RUNS} runs per side; the runs alternate parent/change "
                     "and are all listed",
        "parent": args.parent_label or str(args.parent),
        "machine": _machine(),
        "note": "the machine's speed drifts between runs; compare parent and change "
                "within this file only",
        "rows": rows,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
