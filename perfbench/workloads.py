"""The three workloads: ``ingest``, ``interactive`` and ``walk``.

Every call into upag goes through ``Meter.timed`` and its answer is checked
against ``reference.Reference`` outside the timed region.  A workload runs
either for a time budget (``seconds``) or for a fixed amount of work
(``fixed=True``) so that a traced run repeats the same calls.

Speed calibration
    The processor's speed drifts by up to a third for seconds at a time
    (other tenants of the machine).  Next to the timed calls the meter runs
    a fixed probe of interpreter and small-array work, at least every
    ``RECAL_S`` seconds and around every long call, and scales each timed
    interval by ``CAL_REF_S / probe time``.  Reported times are therefore
    seconds at the speed where the probe takes ``CAL_REF_S``; the raw wall
    times are kept beside them.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from reference import Checker, Reference

clock = time.perf_counter

FAMILIES = ("degree_in", "out_neighbour", "in_neighbour", "adjacent",
            "multiplicity", "neighbours_out", "neighbours_in")
TWO_VERTEX = ("adjacent", "multiplicity")
OOR_SHARE = 0.02          # share of interactive ops built to be out of range
FIXED_OPS = 300           # interactive ops per form in a fixed-work run
FIXED_STEPS = 3           # walk steps in a fixed-work run
RECAL_S = 0.5             # longest gap between speed probes
CAL_REF_S = 0.0025        # probe time that defines the reference speed


# ---------------------------------------------------------------------------
# timing
# ---------------------------------------------------------------------------

_CAL_ARRAY = np.random.default_rng(0).integers(0, 1 << 20, 4096)


def _probe_once() -> float:
    t0 = clock()
    acc, seen = 0, {}
    for i in range(9000):
        acc += i * i % 7
        seen[i & 63] = acc
    for k in range(96):
        np.unique(_CAL_ARRAY[k * 32:k * 32 + 128])
    for _ in range(6):
        np.searchsorted(np.sort(_CAL_ARRAY), _CAL_ARRAY[:512])
    return clock() - t0


def probe_speed() -> float:
    """Seconds of the fixed probe; the least of three filters preemption."""
    return min(_probe_once() for _ in range(3))


class Interval:
    """Wall and scaled seconds of one timed block."""

    wall = 0.0
    norm = 0.0


class Meter:
    """Times blocks of calls and scales them by the adjacent speed probe."""

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self._cal = CAL_REF_S
        self._cal_at = -math.inf
        self.wall = 0.0
        self.norm = 0.0

    def _probe(self) -> float:
        self._cal = probe_speed()
        self._cal_at = clock()
        return self._cal

    @contextmanager
    def timed(self):
        if self.calibrate and clock() - self._cal_at >= RECAL_S:
            self._probe()
        before = self._cal
        iv = Interval()
        t0 = clock()
        try:
            yield iv
        finally:
            iv.wall = clock() - t0
            cal = before
            if self.calibrate and iv.wall >= RECAL_S:
                cal = 0.5 * (before + self._probe())
            iv.norm = iv.wall * CAL_REF_S / cal
            self.wall += iv.wall
            self.norm += iv.norm


class Env:
    """What a workload needs: the library, its inputs and the bookkeeping."""

    def __init__(self, upag, workdir: Path, seed: int, n: int, m: int, walkers: int,
                 calibrate: bool, tracer=None):
        self.upag = upag
        self.dir = workdir
        self.seed = seed
        self.n = n
        self.m = m
        self.walkers = walkers
        self.tracer = tracer
        self.meter = Meter(calibrate)
        self.checker = Checker()
        self.op_id = 0
        self.reference: Reference | None = None
        self.sha256: str | None = None
        self.file_bytes = 0

    def next_op(self) -> None:
        """Give the following calls a fresh op id in the trace."""
        self.op_id += 1
        if self.tracer is not None:
            self.tracer.current_op = self.op_id

    def batch(self, what: str, lanes: int, fn, *args):
        """One timed batch call; an exception fails all its lanes."""
        self.next_op()
        with self.meter.timed():
            try:
                return fn(*args)
            except Exception as e:  # noqa: BLE001 - every outcome is recorded
                self.checker.raised(lanes, what, e)
                return None


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-9)


def _percentile(sorted_vals: np.ndarray, q: float) -> float | None:
    """q-quantile, reported only when at least ten samples lie beyond it."""
    if sorted_vals.size * (1.0 - q) < 10:
        return None
    return float(np.quantile(sorted_vals, q))


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def _write_shuffled(path: Path, d, rng: np.random.Generator) -> None:
    """Edge list with edges shuffled and each edge written target first."""
    n, m = d.n, d.m
    src = np.repeat(np.arange(1, n + 1), m)
    dst = d.targets.ravel()
    p = rng.permutation(src.size)
    body = "\n".join(f"{a} {b}" for a, b in zip(dst[p].tolist(), src[p].tolist()))
    path.write_text(f"# upag-el v1 M={m} n={n}\n{body}\n")


def _ingest_pass(env: Env, k: int) -> tuple[dict, object]:
    """Stages 1-5 on one instance; returns scaled seconds per stage.

    Each upag call is timed on its own so that a speed probe lands between
    calls, at least every ``RECAL_S``, rather than only around a stage.
    """
    up, chk, meter = env.upag, env.checker, env.meter
    n, m = env.n, env.m
    rng = np.random.default_rng([env.seed, k, 1])
    seed = env.seed if k == 0 else [env.seed, k]
    el, shuf = env.dir / "arrival.el", env.dir / "shuffled.el"
    gpath, ppath = env.dir / "arrival.upag", env.dir / "peeled.upag"
    t = {}

    def call(fn, *args):
        with meter.timed():
            return fn(*args)

    def stage(name: str, before: float) -> None:
        t[name] = meter.norm - before

    env.next_op()
    before = meter.norm
    d = call(up.generate, m, n, seed)
    call(up.cli.write_edge_list, el, d)
    stage("generate", before)
    ref = Reference(d.targets)

    env.next_op()
    before = meter.norm
    rep = call(up.bounds_report, d)
    stage("price", before)
    chk.check(_close(rep["surprisal_bits"], ref.surprisal_bits()),
              f"surprisal {rep['surprisal_bits']!r} != {ref.surprisal_bits()!r}")
    chk.check(_close(rep["degree_entropy_bits"], ref.degree_entropy_bits()),
              "degree entropy disagrees with the in-degree counts")

    env.next_op()
    before = meter.norm
    d2, inferred, order = call(up.cli.read_edge_list, el)
    built = call(up.build, d2)
    g = call(up.CompressedGraph.from_build, built)
    call(up.save, gpath, g)
    stage("build", before)
    chk.check(not inferred and order is None, "arrival-order file was peeled")
    chk.check(np.array_equal(d2.targets, d.targets), "edge list did not read back")
    chk.set_relabel(built.relabel)

    _write_shuffled(shuf, d, rng)
    env.next_op()
    before = meter.norm
    d3, inferred3, order3 = call(up.cli.read_edge_list, shuf)
    b3 = call(up.build, d3)
    g3 = call(up.CompressedGraph.from_build, b3)
    call(up.save, ppath, g3)
    stage("peel_build", before)
    chk.check(bool(inferred3), "shuffled file was not peeled")
    o = np.asarray(order3)
    if chk.check(np.array_equal(np.sort(o), np.arange(n + 1)), "peel order is not a permutation"):
        nv = n + 1
        s3 = o[np.repeat(np.arange(1, nv), m)]
        t3 = o[d3.targets.ravel()]
        got = np.sort(np.minimum(s3, t3) * nv + np.maximum(s3, t3))
        want = np.sort(np.minimum(ref.src, ref.dst) * nv + np.maximum(ref.src, ref.dst))
        chk.check(np.array_equal(got, want), "peeled history is not the same multigraph")

    before = meter.norm
    _verify_whole(env, gpath, ref, rng)
    stage("verify", before)
    blob = gpath.read_bytes()
    chk.check(up.dumps(up.loads(blob)) == blob, "load/dump round trip changed the bytes")
    if k == 0:  # the seed's own instance; later passes draw further instances
        env.sha256 = hashlib.sha256(blob).hexdigest()
        env.file_bytes = len(blob)
    return t, g


def _verify_whole(env: Env, path: Path, ref: Reference, rng) -> None:
    """Stage 5: load, then batch-query every vertex, out-edge and in-edge."""
    chk = env.checker
    n, m = env.n, env.m
    ref.set_relabel(chk.to_stored)
    st, og = chk.to_stored, chk.to_orig
    g = env.batch("load", 1, env.upag.load, path)
    if g is None:
        return
    vs = np.arange(n + 1)
    got = env.batch("degree_in_batch", vs.size, g.degree_in_batch, vs)
    if got is not None:
        chk.check_lanes(got, ref.indeg[og], "degree_in_batch")
    qv = np.repeat(np.arange(1, n + 1), m)
    qi = np.tile(np.arange(1, m + 1), n)
    got = env.batch("out_neighbour_batch", qv.size, g.out_neighbour_batch, qv, qi)
    if got is not None:
        chk.check_lanes(og[np.clip(got, 0, n)], ref.out_batch(og[qv], qi), "out_neighbour_batch")
    deg = ref.indeg[og]
    iv = np.repeat(vs, deg)
    ij = np.arange(iv.size) - np.repeat(np.concatenate([[0], np.cumsum(deg)[:-1]]), deg) + 1
    got = env.batch("in_neighbour_batch", iv.size, g.in_neighbour_batch, iv, ij)
    if got is not None:
        chk.check_lanes(og[np.clip(got, 0, n)], ref.in_batch(og[iv], ij), "in_neighbour_batch")
    # half the pairs are edges, half are uniform
    half = (n + 1) // 2
    e = rng.integers(0, ref.src.size, half)
    us = np.concatenate([ref.src[e], rng.integers(0, n + 1, n + 1 - half)])
    ws = np.concatenate([ref.dst[e], rng.integers(0, n + 1, n + 1 - half)])
    got = env.batch("adjacent_batch", us.size, g.adjacent_batch, st[us], st[ws])
    if got is not None:
        chk.check_lanes(np.asarray(got, dtype=bool), ref.multiplicity(us, ws) > 0, "adjacent_batch")


def run_ingest(env: Env, seconds: float, fixed: bool) -> dict:
    stages: dict[str, list[float]] = {}
    start = clock()
    k = 0
    g = None
    while k == 0 or (not fixed and clock() - start < seconds):
        t, g = _ingest_pass(env, k)
        for name, v in t.items():
            stages.setdefault(name, []).append(v)
        k += 1
    edges = env.n * env.m
    med = {name: float(np.median(v)) for name, v in stages.items()}
    extra = {f"{name}_edges_per_s": edges / t for name, t in med.items()}
    extra.update(passes=k, sha256=env.sha256,
                 wall_edges_per_s=edges * k / env.meter.wall)
    return {"ops_per_s": edges / sum(med.values()), "graph": g, "extra": extra}


# ---------------------------------------------------------------------------
# interactive
# ---------------------------------------------------------------------------

def make_ops(ref: Reference, rng: np.random.Generator, count: int) -> list[tuple]:
    """``count`` scalar ops (family, a, b) in reference labels.

    Families come in equal shares.  Half the vertices are uniform, half are
    drawn in proportion to in-degree + 1.  ``in_neighbour`` asks for an
    existing in-edge; the second vertex of a pair is a neighbour half the
    time.  About ``OOR_SHARE`` of the ops get an argument out of range.
    """
    n, m = ref.n, ref.m
    nv = n + 1
    fam = rng.integers(0, len(FAMILIES), count)
    cum = np.cumsum(ref.indeg + 1)
    hub = np.searchsorted(cum, rng.integers(0, cum[-1], count), side="right")
    v = np.where(rng.random(count) < 0.5, rng.integers(0, nv, count), hub)
    # in_neighbour needs a vertex with an in-edge: redraw by in-degree
    cum_in = np.cumsum(ref.indeg)
    has_in = np.searchsorted(cum_in, rng.integers(0, cum_in[-1], count), side="right")
    fam_in = fam == FAMILIES.index("in_neighbour")
    v = np.where(fam_in & (ref.indeg[v] == 0), has_in, v)
    u01 = rng.random(count)
    b_out = 1 + (u01 * m).astype(np.int64)
    b_in = 1 + (u01 * ref.indeg[v]).astype(np.int64)
    outdeg = np.where(v >= 1, m, 0)
    e = (rng.random(count) * (outdeg + ref.indeg[v])).astype(np.int64)
    near = np.where(
        e < outdeg,
        ref.targets[np.maximum(v, 1) - 1, np.minimum(e, m - 1)],
        ref.lab_in[np.minimum(ref.in_start[v] + e - outdeg, ref.lab_in.size - 1)],
    )
    other = np.where(rng.random(count) < 0.5, near, rng.integers(0, nv, count))
    oor = rng.random(count) < OOR_SHARE
    coin = rng.random(count) < 0.5
    bad_v = np.where(rng.random(count) < 0.5, nv + rng.integers(0, 8, count),
                     -1 - rng.integers(0, 8, count))
    ops = []
    for k in range(count):
        f = FAMILIES[fam[k]]
        a = int(v[k])
        b = {"out_neighbour": int(b_out[k]), "in_neighbour": int(b_in[k]),
             "adjacent": int(other[k]), "multiplicity": int(other[k])}.get(f)
        if oor[k]:
            if b is not None and coin[k]:
                if f in TWO_VERTEX:
                    b = int(bad_v[k])
                else:
                    b = m + 1 if f == "out_neighbour" else int(ref.indeg[a]) + 1
            else:
                a = int(bad_v[k])
        ops.append((f, a, b))
    return ops


OOR = object()  # expected outcome: OutOfRangeError


def expected(ref: Reference, form: str, op: tuple):
    f, a, b = op
    n, m = ref.n, ref.m
    if not 0 <= a <= n or (f in TWO_VERTEX and not 0 <= b <= n):
        return OOR
    if f == "degree_in":
        return int(ref.indeg[a])
    if f == "out_neighbour":
        return OOR if a == 0 or not 1 <= b <= m else int(ref.out_row(form, a)[b - 1])
    if f == "in_neighbour":
        return OOR if not 1 <= b <= ref.indeg[a] else int(ref.in_list(form, a)[b - 1])
    if f == "adjacent":
        return bool(ref.multiplicity([a], [b])[0] > 0)
    if f == "multiplicity":
        return int(ref.multiplicity([a], [b])[0])
    if f == "neighbours_out":
        return ref.out_row(form, a).tolist()
    return ref.in_list(form, a).tolist()


class ScalarClient:
    """Issues scalar ops on one graph form and checks every outcome."""

    VERTEX_ANSWER = ("out_neighbour", "in_neighbour", "neighbours_out", "neighbours_in")

    def __init__(self, env: Env, g, ref: Reference, form: str):
        self.env, self.g, self.ref, self.form = env, g, ref, form
        ident = np.arange(ref.n + 1)
        self.st = env.checker.to_stored if form == "compressed" else ident
        self.og = env.checker.to_orig if form == "compressed" else ident
        self.lat: list[float] = []

    def _tr(self, v: int) -> int:
        return int(self.st[v]) if 0 <= v <= self.ref.n else v

    def issue(self, op: tuple) -> None:
        f, a, b = op
        args = (self._tr(a),) if b is None else (
            self._tr(a), self._tr(b) if f in TWO_VERTEX else b)
        fn = getattr(self.g, f)
        self.env.next_op()
        got = exc = None
        with self.env.meter.timed() as iv:
            try:
                got = fn(*args)
            except Exception as e:  # noqa: BLE001 - every outcome is recorded
                exc = e
        self.lat.append(iv.norm)
        self._judge(op, got, exc)

    def _judge(self, op: tuple, got, exc) -> None:
        chk = self.env.checker
        want = expected(self.ref, self.form, op)
        what = f"{self.form} {op[0]}{op[1:]}"
        if want is OOR:
            ok = isinstance(exc, self.env.upag.OutOfRangeError)
            chk.check(ok, f"{what}: expected OutOfRangeError, got {exc!r} / {got!r}")
            return
        if exc is not None:
            chk.raised(1, what, exc)
            return
        if op[0] in self.VERTEX_ANSWER:
            arr = np.atleast_1d(np.asarray(got, dtype=np.int64))
            if arr.size and (arr.min() < 0 or arr.max() > self.ref.n):
                chk.check(False, f"{what}: answer {got!r} is not a vertex")
                return
            mapped = self.og[arr]
            got = mapped.tolist() if isinstance(want, list) else int(mapped[0])
        same = isinstance(got, list) == isinstance(want, list) and got == want
        chk.check(bool(same), f"{what}: got {got!r}, want {want!r}")


def run_interactive(env: Env, seconds: float, fixed: bool) -> dict:
    up, ref = env.upag, env.reference
    ops_rng = np.random.default_rng([env.seed, 2])
    env.next_op()
    g = up.load(env.dir / "graph.upag")
    lab = up.load(env.dir / "labelled.upag")
    comp = ScalarClient(env, g, ref, "compressed")
    labc = ScalarClient(env, lab, ref, "labelled")
    ops: list[tuple] = []

    def op_at(k: int) -> tuple:
        while k >= len(ops):
            ops.extend(make_ops(ref, ops_rng, 1024))
        return ops[k]

    budget = seconds * 0.75
    k = 0
    start = clock()
    while (k < FIXED_OPS) if fixed else (k == 0 or clock() - start < budget):
        comp.issue(op_at(k))
        k += 1
    wall, norm = env.meter.wall, env.meter.norm
    start = clock()
    j = 0
    while (j < k) if fixed else (j == 0 or clock() - start < seconds - budget):
        if op_at(j)[0] != "multiplicity":
            labc.issue(op_at(j))
        j += 1
    lat = np.sort(np.array(comp.lat))
    llat = np.sort(np.array(labc.lat))
    p99 = _percentile(lat, 0.99)
    extra = {
        "scalar_ops": int(lat.size),
        "scalar_p50_us": 1e6 * float(np.median(lat)),
        "scalar_p99_us": None if p99 is None else 1e6 * p99,
        "scalar_qps": lat.size / norm,
        "wall_scalar_qps": lat.size / wall,
        "labelled_ops": int(llat.size),
        "labelled_p50_us": 1e6 * float(np.median(llat)),
    }
    return {"ops_per_s": extra["scalar_qps"], "graph": g, "extra": extra}


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------

def run_walk(env: Env, seconds: float, fixed: bool) -> dict:
    up, chk, ref = env.upag, env.checker, env.reference
    n, m = env.n, env.m
    rng = np.random.default_rng([env.seed, 3])
    env.next_op()
    g = up.load(env.dir / "graph.upag")
    st, og = chk.to_stored, chk.to_orig
    lanes = 0
    front = rng.integers(0, n + 1, env.walkers)
    steps = 0
    start = clock()
    while (steps < FIXED_STEPS) if fixed else (steps == 0 or clock() - start < seconds):
        deg = ref.indeg[front]
        got = env.batch("degree_in_batch", front.size, g.degree_in_batch, st[front])
        if got is not None:
            chk.check_lanes(got, deg, "walk degree_in_batch")
        outdeg = np.where(front >= 1, m, 0)
        e = (rng.random(front.size) * (outdeg + deg)).astype(np.int64)
        is_out = e < outdeg
        nxt = np.empty_like(front)
        vo, io = front[is_out], e[is_out] + 1
        nxt[is_out] = ref.out_batch(vo, io)
        vi, ii = front[~is_out], e[~is_out] - outdeg[~is_out] + 1
        nxt[~is_out] = ref.in_batch(vi, ii)
        if vo.size:
            got = env.batch("out_neighbour_batch", vo.size, g.out_neighbour_batch, st[vo], io)
            if got is not None:
                chk.check_lanes(og[np.clip(got, 0, n)], nxt[is_out], "walk out_neighbour_batch")
        if vi.size:
            got = env.batch("in_neighbour_batch", vi.size, g.in_neighbour_batch, st[vi], ii)
            if got is not None:
                chk.check_lanes(og[np.clip(got, 0, n)], nxt[~is_out], "walk in_neighbour_batch")
        got = env.batch("multiplicity_batch", front.size, g.multiplicity_batch,
                        st[front], st[nxt])
        if got is not None:
            want = ref.multiplicity(front, nxt)
            chk.check(bool((want >= 1).all()), "walk moved along a non-edge")
            chk.check_lanes(got, want, "walk multiplicity_batch")
        lanes += 3 * front.size
        front = nxt
        steps += 1
    extra = {"steps": steps, "walk_qps": lanes / env.meter.norm,
             "wall_walk_qps": lanes / env.meter.wall}
    return {"ops_per_s": extra["walk_qps"], "graph": g, "extra": extra}


WORKLOADS = {"ingest": run_ingest, "interactive": run_interactive, "walk": run_walk}
