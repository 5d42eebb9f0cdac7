"""Command-line surface for the whole pipeline.

Subcommands: ``generate`` samples an instance and writes it as a text edge
list, ``build`` compresses an edge list into a ``.upag`` file, ``query``
answers navigation questions on a compressed file, ``stats`` prints entropy
and space figures, ``selfcheck`` verifies a compressed file against its edge
list with a brute-force oracle, ``bench`` times the query operations, and
``lfc`` runs the string reduction on an explicit input.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.  All
regular output is ``key=value`` tokens, one logical record per line;
``bench --json`` prints its records as one JSON object instead.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .bitvector import _TABLE_BITS
from .construct import build, peel_edges, reduce_string
from .entropy import bounds_report, h0_per_symbol
from .errors import FormatError, ModelError, OutOfRangeError
from .graph_model import Dag
from .oracle import selfcheck
from .pa_gen import generate, log_prob
from .serialize import load, save
from .ugraph import CompressedGraph, LabelledGraph

HEADER_RE = re.compile(r"^# upag-el v1 M=(\d+) n=(\d+)\s*$")


# ---------------------------------------------------------------------------
# edge-list files
# ---------------------------------------------------------------------------

def write_edge_list(path, d: Dag) -> None:
    """Write an instance as a text edge list in arrival/draw order."""
    pairs = np.stack((np.repeat(np.arange(1, d.n + 1), d.m), d.targets.ravel()), axis=1)
    with Path(path).open("w") as f:
        f.write(f"# upag-el v1 M={d.m} n={d.n}\n")
        # 2^16 pairs per format call: the text never holds every pair at once
        for part in np.split(pairs, np.arange(1 << 16, len(pairs), 1 << 16)):
            f.write(("%d %d\n" * len(part)) % tuple(part.ravel().tolist()))


def _read_pairs(f) -> np.ndarray:
    """The (src, dst) rows of an edge list's body, parsed from the open file
    ``f`` past its header.  A body of blank lines is no rows: loadtxt, which
    would warn on it, never sees it."""
    body = f.tell()
    if all(line.isspace() for line in iter(f.readline, "")):
        return np.zeros((0, 2), dtype=np.int64)
    f.seek(body)
    try:
        pairs = np.loadtxt(f, dtype=np.int64, ndmin=2, comments=None)
    except UnicodeDecodeError:
        raise
    except (ValueError, OverflowError) as e:
        raise ModelError(f"malformed edge line: {str(e).split(';')[0]}") from None
    if pairs.shape[1] != 2:
        raise ModelError("malformed edge line: expected 'src dst'")
    return pairs


def read_edge_list(path) -> tuple[Dag, bool, np.ndarray | None]:
    """Parse an edge-list file.

    Returns ``(dag, inferred, order)``.  When the file's sources run in
    block order and every target predates its source, the arrival order is
    taken from the file directly (``inferred=False``).  Otherwise the edges
    are treated as an undirected multigraph and an arrival order is
    recovered by peeling; ``order[k]`` is then the file label of the vertex
    arriving k-th.
    """
    try:
        with Path(path).open(encoding="utf-8") as f:
            first = f.readline()
            if not first:
                raise ModelError("empty edge-list file")
            head = HEADER_RE.match(first)
            if not head:
                raise ModelError("missing or malformed header (expected '# upag-el v1 M=<M> n=<n>')")
            m, n = int(head.group(1)), int(head.group(2))
            if m < 1:
                raise ModelError("header M must be at least 1")
            pairs = _read_pairs(f)
    except UnicodeDecodeError:
        raise ModelError("not a text edge list: the file is not UTF-8 text") from None
    if len(pairs) != n * m:
        raise ModelError(f"expected {n * m} edge lines, found {len(pairs)}")
    if n == 0:
        return Dag(m, np.zeros((0, m), dtype=np.int64)), False, None
    if pairs.min() < 0 or pairs.max() > n:
        raise ModelError(f"vertex label out of range 0..{n}")
    src, dst = pairs[:, 0], pairs[:, 1]
    if np.array_equal(src, np.repeat(np.arange(1, n + 1), m)) and bool((dst < src).all()):
        return Dag(m, dst.reshape(n, m).copy()), False, None
    d, order = peel_edges(n + 1, src, dst, m)
    return d, True, order


def _read_warned(path) -> tuple[Dag, np.ndarray | None]:
    """``read_edge_list``, warning on stderr when the arrival order was
    inferred; returns the dag and the order."""
    d, inferred, order = read_edge_list(path)
    if inferred:
        print(
            "warning: arrival order inferred from structure; any consistent "
            "order is equally likely for inputs without repeated targets "
            "beyond the seed block",
            file=sys.stderr,
        )
    return d, order


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    d = generate(args.m, args.n, seed=args.seed)
    write_edge_list(args.out, d)
    lp = log_prob(d)
    print(f"out={args.out} m={args.m} n={args.n} edges={args.m * args.n}")
    print(f"lg(1/P)={lp.bits:.4f} mode={lp.mode}")
    return 0


def _relabel_text(n: int, order: np.ndarray | None, to_stored: np.ndarray | None) -> str:
    """'file label, stored label' lines, composing arrival inference and the
    BFS relabelling."""
    new = np.arange(n + 1, dtype=np.int64)
    if order is not None:
        new[order] = np.arange(n + 1, dtype=np.int64)
    if to_stored is not None:
        new = to_stored[new]
    return "".join(map("{} {}\n".format, range(n + 1), new.tolist()))


def cmd_build(args) -> int:
    d, order = _read_warned(args.infile)
    to_stored = None
    if args.mode == "labelled":
        g = LabelledGraph.from_dag(d)
    else:
        built = build(d, tie=args.tie)
        g = CompressedGraph.from_build(built)
        to_stored = built.relabel
    nbytes = save(args.out, g)
    if args.emit_relabel:
        Path(args.emit_relabel).write_text(_relabel_text(d.n, order, to_stored))
    rep = g.space_report()
    print(f"out={args.out} bytes={nbytes} mode={args.mode} m={d.m} n={d.n}")
    print(
        f"payload_bits={rep['payload_bits']} directory_bits={rep['directory_bits']} "
        f"metadata_bits={rep['metadata_bits']} total_bits={rep['total_bits']}"
    )
    return 0


def _fmt_list(values) -> str:
    return ",".join(str(int(v)) for v in values)


QUERY_OPS = {           # op -> (argument count, answer line from the graph and arguments)
    "outn": (2, lambda g, a: g.out_neighbour(a[0], a[1])),
    "inn": (2, lambda g, a: g.in_neighbour(a[0], a[1])),
    "deg": (1, lambda g, a: f"in={g.degree_in(a[0])} out={g.degree_out(a[0])} "
                            f"total={g.degree_total(a[0])}"),
    "adj": (2, lambda g, a: "true" if g.adjacent(a[0], a[1]) else "false"),
    "nbrs": (1, lambda g, a: f"out={_fmt_list(g.neighbours_out(a[0]))} "
                             f"in={_fmt_list(g.neighbours_in(a[0]))}"),
}


def cmd_query(args) -> int:
    g = load(args.infile)
    rest = [int(x) for x in args.args]
    count, answer = QUERY_OPS[args.op]
    if len(rest) != count:
        raise ModelError(f"operation {args.op!r} takes {count} argument(s)")
    print(answer(g, rest))
    return 0


STATS_LINES = (3, 5, 2, 6, 2, 1)    # fields per line of the key=value output


def cmd_stats(args) -> int:
    d, _ = _read_warned(args.infile)
    rep = bounds_report(d)
    g = CompressedGraph.from_dag(d)
    sp = g.space_report()
    entropy_bound = g.target_entropy_bits() + 2 * sp["sigma_eff"]
    fields = [
        ("m", d.m),
        ("n", d.n),
        ("edges", d.m * d.n),
        ("H_deg", f"{rep['degree_entropy_bits']:.4f}"),
        ("lg(1/P)", f"{rep['surprisal_bits']:.4f}"),
        ("prob_mode", rep["prob_mode"]),
        ("lg(n!)", f"{rep['label_bits']:.4f}"),
        ("unlabelled_lb", f"{rep['unlabelled_lower_bound_bits']:.4f}"),
        ("entropy_budget", f"{rep['entropy_budget_bits']:.4f}"),
        ("worstcase_budget", f"{rep['worstcase_budget_bits']:.4f}"),
        ("tree_payload_bits", sp["tree_payload_bits"]),
        ("wt_payload_bits", sp["wt_payload_bits"]),
        ("payload_bits", sp["payload_bits"]),
        ("directory_bits", sp["directory_bits"]),
        ("metadata_bits", sp["metadata_bits"]),
        ("total_bits", sp["total_bits"]),
        ("entropy_bound_bits", f"{entropy_bound:.4f}"),
        ("sigma_eff", sp["sigma_eff"]),
        ("shared_table_bits", _TABLE_BITS),
    ]
    if args.csv:
        print(",".join(k for k, _ in fields))
        print(",".join(str(v) for _, v in fields))
    else:
        at = 0
        for size in STATS_LINES:
            print(" ".join(f"{k}={v}" for k, v in fields[at:at + size]))
            at += size
    return 0


def cmd_selfcheck(args) -> int:
    g = load(args.infile)
    d, _ = _read_warned(args.against)
    ties = ("index", "first-target") if args.tie == "auto" else (args.tie,)
    if g.tree is None:                   # without a scaffold, selfcheck ignores tie
        ties = ties[:1]
    first_bad = None
    for tie in ties:
        checked, bad = selfcheck(g, d, tie)
        if bad is None:
            if g.tree is not None:
                print(f"tie={tie}")
            print(f"OK ({checked} queries verified)")
            return 0
        if first_bad is None:
            first_bad = bad
    print(first_bad)
    return 1


BATCH_LANES = 4096      # lanes of a level batch row: the walk workload's batch size
BENCH_PASSES = 3        # passes per bench row; a row reports its fastest


def _best_of(name: str, run, lanes: int) -> dict | None:
    """One bench row: the fastest of ``BENCH_PASSES`` passes of ``run``
    over ``lanes`` queries; None when there is no lane to time."""
    if not lanes:
        return None

    def elapsed() -> int:
        t0 = time.perf_counter_ns()
        run()
        return time.perf_counter_ns() - t0
    best = min(elapsed() for _ in range(BENCH_PASSES))
    return {"op": name, "ns_per_query": best // lanes, "queries": lanes}


def _time_calls(name: str, fn, *cols: np.ndarray) -> dict | None:
    """``fn`` called once per lane of ``cols``, as a bench row."""
    calls = list(zip(*(c.tolist() for c in cols)))

    def run():
        for a in calls:
            fn(*a)
    return _best_of(name, run, len(calls))


def _time_batch(name: str, fn, *cols: np.ndarray) -> dict | None:
    """``fn`` called once on all lanes of ``cols``, as a bench row."""
    return _best_of(name, lambda: fn(*cols), cols[0].size)


def cmd_bench(args) -> int:
    if args.queries < 0:
        raise ModelError(f"--queries must be at least 0, got {args.queries}")
    g = load(args.infile)
    rng = np.random.default_rng(args.seed)
    n, m = g.n, g.m
    if n < 1:
        raise ModelError("benchmark needs at least one non-seed vertex")
    q = args.queries
    vs = rng.integers(1, n + 1, q)
    iis = rng.integers(1, m + 1, q)
    us = rng.integers(0, n + 1, q)
    ws = rng.integers(0, n + 1, q)
    indeg = g.degree_in_batch(vs)
    keep = indeg > 0
    jj = rng.integers(1, np.maximum(indeg[keep], 1) + 1)
    rows = [
        _time_calls("degree_in", g.degree_in, vs),
        _time_calls("out_neighbour", g.out_neighbour, vs, iis),
        _time_calls("in_neighbour", g.in_neighbour, vs[keep], jj),
        _time_calls("adjacent", g.adjacent, us, ws),
        _time_batch("adjacent_batch", g.adjacent_batch, us, ws),
        _time_batch("out_neighbour_batch", g.out_neighbour_batch, vs, iis),
        _time_batch("degree_in_batch", g.degree_in_batch, vs),
        _time_batch("in_neighbour_batch", g.in_neighbour_batch, vs[keep], jj),
    ]
    if g.targets.width:
        rows += _bench_layers(g, rng, q)
    rows = [row for row in rows if row is not None]
    if args.json:
        print(json.dumps({"in": str(args.infile), "n": n, "m": m, "seed": args.seed,
                          "rows": rows}))
    else:
        for row in rows:
            print(" ".join(f"{k}={v}" for k, v in row.items()))
    return 0


def _bench_layers(g: CompressedGraph, rng: np.random.Generator, q: int) -> list[dict]:
    """Rows for each layer under the graph queries: one level of the string
    index, at one lane and at ``BATCH_LANES`` lanes a call, the tree's
    LOUDS bitvector, the string index and the tree; the tree's rows only
    when the graph has a scaffold."""
    wt, tree = g.targets, g.tree
    level = wt._levels[wt.width // 2]
    rows = []
    for lanes, timer, suffix in ((q, _time_calls, ""), (BATCH_LANES, _time_batch, "_batch")):
        for op, lo, hi in (("rank1", 0, level.n), ("select1", 1, level.ones), ("access", 1, level.n)):
            rows.append(timer(f"level_{op}{suffix}", getattr(level, op + suffix),
                              rng.integers(lo, hi + 1, lanes)))
    if tree is not None:
        rows.append(_time_calls("louds_select1", tree._bv.select1,
                                rng.integers(1, tree._bv.ones + 1, q)))
    pos = rng.integers(1, wt.length + 1, q)
    syms = wt.access_batch(pos)
    nth = wt.rank_batch(syms, pos)          # pos holds occurrence nth of its symbol
    rows += [
        _time_calls("wt_access", wt.access, rng.integers(1, wt.length + 1, q)),
        _time_calls("wt_rank", wt.rank, syms, rng.integers(0, wt.length + 1, q)),
        _time_calls("wt_select", wt.select, syms, nth),
    ]
    if tree is not None:
        rows += [
            _time_calls("tree_parent", tree.parent, rng.integers(1, g.n + 1, q)),
            _time_calls("tree_degree", tree.tree_degree, rng.integers(0, g.n + 1, q)),
        ]
    return rows


def cmd_lfc(args) -> int:
    res = reduce_string(args.string, args.block, want_trace=True)
    order = sorted(res.sigma, key=res.sigma.get)
    counts = Counter(args.string)
    print("sigma=" + ",".join(f"{sym}:{res.sigma[sym]}" for sym in order))
    print("S=" + "".join(sym * counts[sym] for sym in order))
    for step in res.trace:
        kept = "".join(x for x in step["after"] if x is not None)
        print(
            f"step={step['step']} symbol={step['symbol']} s_index={step['s_index']} "
            f"flag_block={step['block']} kept={kept}"
        )
    h_in = h0_per_symbol(args.string)
    h_out = h0_per_symbol(res.reduced)
    print(f"A'={res.reduced} H0pc: {h_in:.4f}→{h_out:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="upag",
        description="Generate, compress, query, and verify preferential-attachment graphs.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample an instance and write an edge list")
    g.add_argument("--m", type=int, required=True, help="targets per vertex")
    g.add_argument("--n", type=int, required=True, help="number of non-seed vertices")
    g.add_argument("--seed", type=int, default=None, help="RNG seed (omit for entropy)")
    g.add_argument("--out", required=True, help="edge-list file to write")
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("build", help="compress an edge list into a .upag file")
    b.add_argument("--in", dest="infile", required=True, help="edge-list file")
    b.add_argument("--out", required=True, help=".upag file to write")
    b.add_argument(
        "--mode",
        choices=("unlabelled", "labelled"),
        default="unlabelled",
        help="one graph class either way; unlabelled: BFS names, a LOUDS scaffold tree "
        "and the leftover string; labelled: original names, no scaffold, the whole string",
    )
    b.add_argument(
        "--emit-relabel",
        metavar="PATH",
        default=None,
        help="write the 'old new' vertex-name map as two-column text",
    )
    b.add_argument(
        "--tie",
        choices=("index", "first-target"),
        default="index",
        help="rank tie-break among equal in-degrees (unlabelled mode)",
    )
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="answer one navigation query on a .upag file")
    q.add_argument("--in", dest="infile", required=True, help=".upag file")
    q.add_argument("op", choices=QUERY_OPS)
    q.add_argument("args", nargs="*", help="vertex / index arguments")
    q.set_defaults(func=cmd_query)

    s = sub.add_parser("stats", help="entropy, probability, and space figures")
    s.add_argument("--in", dest="infile", required=True, help="edge-list file")
    s.add_argument("--csv", action="store_true", help="emit one CSV header+row instead")
    s.set_defaults(func=cmd_stats)

    c = sub.add_parser("selfcheck", help="verify a .upag file against its edge list")
    c.add_argument("--in", dest="infile", required=True, help=".upag file")
    c.add_argument("--against", required=True, help="edge-list file (ground truth)")
    c.add_argument(
        "--tie",
        choices=("auto", "index", "first-target"),
        default="auto",
        help="rank tie-break the file was built with (auto: try both)",
    )
    c.set_defaults(func=cmd_selfcheck)

    n = sub.add_parser("bench", help="time each query operation")
    n.add_argument("--in", dest="infile", required=True, help=".upag file")
    n.add_argument("--queries", type=int, default=1000, help="queries per operation")
    n.add_argument("--seed", type=int, default=0)
    n.add_argument("--json", action="store_true",
                   help="print the rows as one JSON object instead of key=value lines")
    n.set_defaults(func=cmd_bench)

    f = sub.add_parser("lfc", help="run the block-wise string reduction")
    f.add_argument("--string", required=True, help="input string")
    f.add_argument("--block", type=int, required=True, help="block size")
    f.set_defaults(func=cmd_lfc)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, FormatError, OutOfRangeError, OSError, ValueError,
            MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
