"""End-to-end tests for the command-line surface.

Every subcommand is driven through ``main(argv)`` exactly as a shell would
invoke it; assertions run against captured stdout/stderr, exit codes, and
the files the commands write.  The five-vertex figure instance reappears
here as an edge-list fixture so the pinned navigation answers can be
checked through the full generate/build/query pipeline.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import struct
import tempfile
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from upag.cli import main, read_edge_list, write_edge_list
from upag.errors import FormatError
from upag.graph_model import Dag, ModelError
from upag.pa_gen import generate
from upag.serialize import dumps, load
from upag.ugraph import LabelledGraph

FIGURE_EDGE_LIST = (
    "# upag-el v1 M=3 n=5\n"
    "1 0\n1 0\n1 0\n"
    "2 1\n2 1\n2 1\n"
    "3 1\n3 1\n3 1\n"
    "4 3\n4 2\n4 2\n"
    "5 3\n5 4\n5 4\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def figure_files(tmp_path, capsys):
    el = tmp_path / "fig.el"
    el.write_text(FIGURE_EDGE_LIST)
    up = tmp_path / "fig.upag"
    code, _, _ = run(capsys, "build", "--in", str(el), "--out", str(up),
                     "--tie", "first-target")
    assert code == 0
    return el, up


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_writes_golden_edge_list(tmp_path, capsys):
    out = tmp_path / "g.el"
    code, text, _ = run(capsys, "generate", "--m", "3", "--n", "4",
                        "--seed", "7311", "--out", str(out))
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == f"out={out} m=3 n=4 edges=12"
    assert lines[1] == "lg(1/P)=7.4330 mode=exact"
    assert out.read_text() == (
        "# upag-el v1 M=3 n=4\n"
        "1 0\n1 0\n1 0\n"
        "2 0\n2 0\n2 1\n"
        "3 0\n3 1\n3 1\n"
        "4 0\n4 1\n4 3\n"
    )


def test_generate_single_edge(tmp_path, capsys):
    out = tmp_path / "one.el"
    code, text, _ = run(capsys, "generate", "--m", "1", "--n", "1",
                        "--seed", "0", "--out", str(out))
    assert code == 0
    assert "edges=1" in text
    assert out.read_text() == "# upag-el v1 M=1 n=1\n1 0\n"


def test_generate_same_seed_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    run(capsys, "generate", "--m", "3", "--n", "50", "--seed", "99", "--out", str(a))
    run(capsys, "generate", "--m", "3", "--n", "50", "--seed", "99", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_generate_switches_to_float_mode_past_cutoff(tmp_path, capsys):
    out = tmp_path / "big.el"
    code, text, _ = run(capsys, "generate", "--m", "2", "--n", "100",
                        "--seed", "3", "--out", str(out))
    assert code == 0
    assert "mode=float" in text.splitlines()[1]


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_reports_mode_shape_and_space(figure_files, tmp_path, capsys):
    el, _ = figure_files
    up = tmp_path / "again.upag"
    code, text, err = run(capsys, "build", "--in", str(el), "--out", str(up))
    assert code == 0
    assert err == ""
    first, second = text.splitlines()
    assert first.endswith("mode=unlabelled m=3 n=5")
    assert "bytes=" in first
    for key in ("payload_bits=", "directory_bits=", "metadata_bits=", "total_bits="):
        assert key in second


def test_build_emit_relabel_is_identity_for_figure_instance(tmp_path, capsys):
    el = tmp_path / "fig.el"
    el.write_text(FIGURE_EDGE_LIST)
    up, mp = tmp_path / "f.upag", tmp_path / "map.txt"
    code, _, _ = run(capsys, "build", "--in", str(el), "--out", str(up),
                     "--tie", "first-target", "--emit-relabel", str(mp))
    assert code == 0
    assert mp.read_text() == "0 0\n1 1\n2 2\n3 3\n4 4\n5 5\n"


def test_build_infers_order_for_out_of_order_input(tmp_path, capsys):
    el = tmp_path / "s.el"
    run(capsys, "generate", "--m", "2", "--n", "10", "--seed", "44", "--out", str(el))
    lines = el.read_text().splitlines()
    body = lines[1:][::-1]
    body = [(" ".join(ln.split()[::-1]) if i % 2 else ln) for i, ln in enumerate(body)]
    shuf = tmp_path / "shuf.el"
    shuf.write_text("\n".join([lines[0]] + body) + "\n")

    up = tmp_path / "shuf.upag"
    code, _, err = run(capsys, "build", "--in", str(shuf), "--out", str(up))
    assert code == 0
    assert "arrival order inferred" in err
    code, text, _ = run(capsys, "selfcheck", "--in", str(up), "--against", str(shuf))
    assert code == 0
    assert "OK (" in text


def test_stats_invariant_under_reordering_when_simple_beyond_seed(tmp_path, capsys):
    # Seed 44 at m=2 never repeats a target within a block beyond the seed,
    # so every admissible arrival order carries the same probability and the
    # inferred-order stats must match the block-order stats exactly.
    el = tmp_path / "s.el"
    run(capsys, "generate", "--m", "2", "--n", "10", "--seed", "44", "--out", str(el))
    _, base, _ = run(capsys, "stats", "--in", str(el))
    lines = el.read_text().splitlines()
    body = lines[1:][::-1]
    body = [(" ".join(ln.split()[::-1]) if i % 2 else ln) for i, ln in enumerate(body)]
    shuf = tmp_path / "shuf.el"
    shuf.write_text("\n".join([lines[0]] + body) + "\n")
    code, text, err = run(capsys, "stats", "--in", str(shuf))
    assert code == 0
    assert "arrival order inferred" in err
    assert text.splitlines()[1] == base.splitlines()[1]
    assert "lg(1/P)=34.7142" in text


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    ("args", "want"),
    [
        (("outn", "4", "1"), "3"),
        (("outn", "4", "2"), "2"),
        (("inn", "1", "1"), "2"),
        (("inn", "1", "3"), "2"),
        (("deg", "1"), "in=6 out=3 total=9"),
        (("deg", "5"), "in=0 out=3 total=3"),
        (("deg", "0"), "in=3 out=0 total=3"),
        (("adj", "0", "0"), "false"),
        (("adj", "0", "1"), "true"),
        (("adj", "3", "4"), "true"),
        (("adj", "2", "5"), "false"),
        (("nbrs", "5"), "out=3,4,4 in="),
        (("nbrs", "0"), "out= in=1,1,1"),
    ],
)
def test_query_figure_answers(figure_files, capsys, args, want):
    _, up = figure_files
    code, text, _ = run(capsys, "query", "--in", str(up), *args)
    assert code == 0
    assert text.strip() == want


def test_query_labelled_mode(figure_files, tmp_path, capsys):
    el, _ = figure_files
    up = tmp_path / "lab.upag"
    run(capsys, "build", "--in", str(el), "--out", str(up), "--mode", "labelled")
    code, text, _ = run(capsys, "query", "--in", str(up), "deg", "1")
    assert (code, text.strip()) == (0, "in=6 out=3 total=9")
    code, text, _ = run(capsys, "query", "--in", str(up), "nbrs", "5")
    assert (code, text.strip()) == (0, "out=3,4,4 in=")


def test_query_in_neighbour_beyond_degree_fails(figure_files, capsys):
    _, up = figure_files
    code, _, err = run(capsys, "query", "--in", str(up), "inn", "5", "1")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("args", [("deg", "99999999999999999999999"), ("outn", "1", "-" + "9" * 21),
                                  ("inn", "1", "9" * 30), ("adj", "9" * 19, "1")])
def test_query_argument_beyond_int64_fails_cleanly(figure_files, capsys, args):
    _, up = figure_files
    code, out, err = run(capsys, "query", "--in", str(up), *args)
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_query_wrong_arity_fails(figure_files, capsys):
    _, up = figure_files
    assert run(capsys, "query", "--in", str(up), "deg", "1", "2")[0] == 2


def test_query_non_integer_argument_fails(figure_files, capsys):
    _, up = figure_files
    assert run(capsys, "query", "--in", str(up), "deg", "x")[0] == 2


def test_query_unknown_operation_is_a_usage_error(figure_files, capsys):
    _, up = figure_files
    with pytest.raises(SystemExit) as exc:
        main(["query", "--in", str(up), "frob", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_query_ill_formed_tree_fails_cleanly(figure_files, tmp_path, capsys):
    # a LOUDS whose node 1 comes after the zero that ends node 0:
    # 1 0 1 1 1 0 0 1 1 0 0 0 in place of 1 1 0 1 1 0 0 1 1 0 0 0
    _, up = figure_files
    body = bytearray(up.read_bytes()[:-4])
    assert body[32:40] == struct.pack("<Q", 0x19B)
    body[32:40] = struct.pack("<Q", 0x19D)
    bad = tmp_path / "bad.upag"
    bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    code, out, err = run(capsys, "query", "--in", str(bad), "deg", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "well-formed" in err
    assert len(err.splitlines()) == 1


def test_query_v1_file_fails_with_rebuild_hint(figure_files, tmp_path, capsys):
    from test_serialize import GOLDEN_V1_HEX

    body = bytes.fromhex(GOLDEN_V1_HEX)
    old = tmp_path / "v1.upag"
    old.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    code, out, err = run(capsys, "query", "--in", str(old), "deg", "1")
    assert code == 2 and out == ""
    assert err == "error: unsupported version 1: rebuild the .upag from its edge list\n"


def test_query_v2_file_fails_with_rebuild_hint(tmp_path, capsys):
    from test_serialize import GOLDEN_V2_HEX

    body = bytes.fromhex(GOLDEN_V2_HEX)
    old = tmp_path / "v2.upag"
    old.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    code, out, err = run(capsys, "query", "--in", str(old), "deg", "1")
    assert code == 2 and out == ""
    assert err == "error: unsupported version 2: rebuild the .upag from its edge list\n"


def test_query_v3_file_fails_with_rebuild_hint(tmp_path, capsys):
    from test_serialize import GOLDEN_V3_HEX

    body = bytes.fromhex(GOLDEN_V3_HEX)
    old = tmp_path / "v3.upag"
    old.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    code, out, err = run(capsys, "query", "--in", str(old), "deg", "1")
    assert code == 2 and out == ""
    assert err == "error: unsupported version 3: rebuild the .upag from its edge list\n"


def test_query_v4_file_fails_with_rebuild_hint(tmp_path, capsys):
    from test_serialize import GOLDEN_V4_HEX

    body = bytes.fromhex(GOLDEN_V4_HEX)
    old = tmp_path / "v4.upag"
    old.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    code, out, err = run(capsys, "query", "--in", str(old), "deg", "1")
    assert code == 2 and out == ""
    assert err == "error: unsupported version 4: rebuild the .upag from its edge list\n"


def _query_fails_cleanly(capsys, bad: Path, match: str) -> None:
    with pytest.raises(FormatError, match=match):
        load(bad)
    for op in (("outn", "5", "1"), ("nbrs", "2")):
        code, out, err = run(capsys, "query", "--in", str(bad), *op)
        assert code == 2 and out == ""
        assert err.startswith("error:") and match in err and len(err.splitlines()) == 1


def _resealed(up: Path, tmp_path: Path, at: int, old: bytes, new: bytes) -> Path:
    """A copy of ``up`` with the bytes ``old`` at ``at`` replaced, CRC redone."""
    body = bytearray(up.read_bytes()[:-4])
    assert body[at:at + len(old)] == old
    body[at:at + len(new)] = new
    bad = tmp_path / "bad.upag"
    bad.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(bytes(body))))
    return bad


def test_query_out_of_range_block_code_fails_cleanly(figure_files, tmp_path, capsys):
    # the last byte before the CRC is the map's key-table entry of key 3
    # (1 + its one-bit code); 4 names a code the map's shape cannot hold
    _, up = figure_files
    at = len(up.read_bytes()) - 5
    _query_fails_cleanly(capsys, _resealed(up, tmp_path, at, b"\x02", b"\x04"), "Kraft")


def test_query_code_beyond_alphabet_fails_cleanly(figure_files, tmp_path, capsys):
    # the string's alphabet (its sigma field, after the 24-byte header and
    # the 16-byte tree) cut from 6 to 5 symbols: the code-length map's
    # levels still hold a key for 6 symbols, one of them beyond the
    # alphabet, and disagree with the map's length
    _, up = figure_files
    bad = _resealed(up, tmp_path, 40, struct.pack("<Q", 6), struct.pack("<Q", 5))
    _query_fails_cleanly(capsys, bad, "level length does not match the code shape")


def test_query_code_without_occurrence_fails_cleanly(tmp_path, capsys, monkeypatch):
    # a labelled file over the targets 0, 1, 2, 3, 4, 2 whose code lengths
    # also give the absent vertex 5 a code; the map over the keys keeps its
    # own lengths
    from upag import wavelet

    g = LabelledGraph.from_dag(Dag(1, [[0], [1], [2], [3], [4], [2]]))
    lengths = wavelet._code_lengths
    monkeypatch.setattr(wavelet, "_code_lengths", lambda counts: np.array([3, 3, 2, 3, 3, 2, -1])
                        if counts.size == 7 else lengths(counts))
    g.targets = wavelet.WaveletTree(g.targets.to_array(), 7)
    monkeypatch.undo()
    bad = tmp_path / "bad.upag"
    bad.write_bytes(dumps(g))
    _query_fails_cleanly(capsys, bad, "never occurs")


def test_query_lengths_breaking_kraft_fail_cleanly(tmp_path, capsys):
    # the same string with a code-length map whose lengths 1, 3, 2, 3, 3
    # (keys 1 + length) sum to 1/2 + 1/8 + 1/4 + 1/8 + 1/8 > 1
    from test_serialize import _small

    g = LabelledGraph.from_dag(Dag(1, [[0], [1], [2], [3], [4], [2]]))
    g.targets._map = _small([2, 4, 3, 4, 4, 0, 0])
    bad = tmp_path / "bad.upag"
    bad.write_bytes(dumps(g))
    _query_fails_cleanly(capsys, bad, "Kraft")


def test_query_missing_file_fails(tmp_path, capsys):
    code, _, err = run(capsys, "query", "--in", str(tmp_path / "nope.upag"), "deg", "1")
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_reports_probability_and_entropy(tmp_path, capsys):
    el = tmp_path / "g.el"
    run(capsys, "generate", "--m", "3", "--n", "4", "--seed", "7311", "--out", str(el))
    code, text, _ = run(capsys, "stats", "--in", str(el))
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "m=3 n=4 edges=12"
    assert "H_deg=15.3681" in lines[1]
    assert "lg(1/P)=7.4330" in lines[1]
    assert "prob_mode=exact" in lines[1]
    assert "lg(n!)=4.5850" in lines[1]
    assert any(ln.startswith("entropy_budget=") for ln in lines)
    assert any("total_bits=" in ln for ln in lines)
    assert lines[-1] == "shared_table_bits=23552"


def test_stats_csv_has_matching_header_and_row(tmp_path, capsys):
    el = tmp_path / "g.el"
    run(capsys, "generate", "--m", "3", "--n", "4", "--seed", "7311", "--out", str(el))
    code, text, _ = run(capsys, "stats", "--in", str(el), "--csv")
    assert code == 0
    header, row = text.splitlines()
    assert header.startswith("m,n,edges,H_deg,lg(1/P),prob_mode")
    assert len(header.split(",")) == len(row.split(","))
    assert row.split(",")[:3] == ["3", "4", "12"]
    assert header.endswith(",shared_table_bits") and row.endswith(",23552")


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def test_selfcheck_auto_detects_tie_break(figure_files, tmp_path, capsys):
    el, ft = figure_files
    code, text, _ = run(capsys, "selfcheck", "--in", str(ft), "--against", str(el))
    assert code == 0
    assert text.splitlines() == ["tie=first-target", "OK (72 queries verified)"]

    idx = tmp_path / "idx.upag"
    run(capsys, "build", "--in", str(el), "--out", str(idx))
    code, text, _ = run(capsys, "selfcheck", "--in", str(idx), "--against", str(el))
    assert code == 0
    assert text.splitlines() == ["tie=index", "OK (72 queries verified)"]


def test_selfcheck_labelled_mode(figure_files, tmp_path, capsys):
    el, _ = figure_files
    up = tmp_path / "lab.upag"
    run(capsys, "build", "--in", str(el), "--out", str(up), "--mode", "labelled")
    code, text, _ = run(capsys, "selfcheck", "--in", str(up), "--against", str(el))
    assert code == 0
    assert text.startswith("OK (")
    assert "tie=" not in text


def test_selfcheck_flags_a_mismatched_pair(tmp_path, capsys):
    a, b = tmp_path / "a.el", tmp_path / "b.el"
    run(capsys, "generate", "--m", "2", "--n", "30", "--seed", "1", "--out", str(a))
    run(capsys, "generate", "--m", "2", "--n", "30", "--seed", "2", "--out", str(b))
    up = tmp_path / "a.upag"
    run(capsys, "build", "--in", str(a), "--out", str(up))
    code, text, _ = run(capsys, "selfcheck", "--in", str(up), "--against", str(b))
    assert code == 1
    assert "MISMATCH" in text


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_times_every_operation(tmp_path, capsys):
    el, up = tmp_path / "b.el", tmp_path / "b.upag"
    run(capsys, "generate", "--m", "2", "--n", "30", "--seed", "5", "--out", str(el))
    run(capsys, "build", "--in", str(el), "--out", str(up))
    code, text, _ = run(capsys, "bench", "--in", str(up), "--queries", "25")
    assert code == 0
    ops = [ln.split()[0] for ln in text.splitlines()]
    assert ops == [
        "op=degree_in",
        "op=out_neighbour",
        "op=in_neighbour",
        "op=adjacent",
        "op=adjacent_batch",
        "op=out_neighbour_batch",
        "op=degree_in_batch",
        "op=in_neighbour_batch",
        "op=level_rank1",
        "op=level_select1",
        "op=level_access",
        "op=level_rank1_batch",
        "op=level_select1_batch",
        "op=level_access_batch",
        "op=louds_select1",
        "op=wt_access",
        "op=wt_rank",
        "op=wt_select",
        "op=tree_parent",
        "op=tree_degree",
    ]
    assert all("ns_per_query=" in ln for ln in text.splitlines())
    assert all(ln.endswith("queries=25") or ln.endswith("queries=4096")
               for ln in text.splitlines()[8:])
    assert not any("mode=" in ln for ln in text.splitlines())
    assert all(ln.split()[2] == "queries=4096" for ln in text.splitlines()
               if ln.startswith("op=level_") and "_batch" in ln)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bench_skips_rows_that_time_nothing(tmp_path, capsys, n):
    # m = 1, labelled: with three sampled vertices, often none has an
    # in-edge, and the in_neighbour rows then have no query to time
    el, up = tmp_path / "b.el", tmp_path / "b.upag"
    run(capsys, "generate", "--m", "1", "--n", str(n), "--seed", "1", "--out", str(el))
    run(capsys, "build", "--in", str(el), "--out", str(up), "--mode", "labelled")
    for seed in range(6):
        code, text, _ = run(capsys, "bench", "--in", str(up), "--queries", "3",
                            "--seed", str(seed))
        assert code == 0
        rows = [_bench_row(ln) for ln in text.splitlines()]
        assert all(row["queries"] > 0 for row in rows)
        assert {"degree_in", "degree_in_batch"} <= {row["op"] for row in rows}


def _bench_row(line: str) -> dict:
    row = dict(tok.split("=", 1) for tok in line.split())
    return {k: int(v) if v.isdigit() else v for k, v in row.items()}


@pytest.mark.parametrize("mode", ["unlabelled", "labelled"])
def test_bench_json_rows_match_text_rows(tmp_path, capsys, mode):
    el, up = tmp_path / "b.el", tmp_path / "b.upag"
    run(capsys, "generate", "--m", "2", "--n", "30", "--seed", "5", "--out", str(el))
    run(capsys, "build", "--in", str(el), "--out", str(up), "--mode", mode)
    code, text, _ = run(capsys, "bench", "--in", str(up), "--queries", "25", "--seed", "3")
    assert code == 0
    code, blob, _ = run(capsys, "bench", "--in", str(up), "--queries", "25", "--seed", "3", "--json")
    assert code == 0 and len(blob.splitlines()) == 1
    got = json.loads(blob)
    assert (got["n"], got["m"], got["seed"]) == (30, 2, 3)
    want = [_bench_row(ln) for ln in text.splitlines()]
    # the same rows in the same order; only the timings differ between runs
    untimed = [{k: v for k, v in row.items() if k != "ns_per_query"} for row in got["rows"]]
    assert untimed == [{k: v for k, v in row.items() if k != "ns_per_query"} for row in want]
    assert all(isinstance(row["ns_per_query"], int) and row["ns_per_query"] > 0
               for row in got["rows"])


def test_bench_labelled_prints_batch_rows_and_no_tree_rows(tmp_path, capsys):
    el, up = tmp_path / "b.el", tmp_path / "b.upag"
    run(capsys, "generate", "--m", "2", "--n", "30", "--seed", "5", "--out", str(el))
    run(capsys, "build", "--in", str(el), "--out", str(up), "--mode", "labelled")
    code, text, _ = run(capsys, "bench", "--in", str(up), "--queries", "25")
    assert code == 0
    ops = [ln.split()[0] for ln in text.splitlines()]
    assert ops == [
        "op=degree_in",
        "op=out_neighbour",
        "op=in_neighbour",
        "op=adjacent",
        "op=adjacent_batch",
        "op=out_neighbour_batch",
        "op=degree_in_batch",
        "op=in_neighbour_batch",
        "op=level_rank1",
        "op=level_select1",
        "op=level_access",
        "op=level_rank1_batch",
        "op=level_select1_batch",
        "op=level_access_batch",
        "op=wt_access",
        "op=wt_rank",
        "op=wt_select",
    ]


# ---------------------------------------------------------------------------
# lfc
# ---------------------------------------------------------------------------

def test_lfc_reduction_golden(capsys):
    code, text, _ = run(capsys, "lfc", "--string", "abracadabraa", "--block", "4")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "sigma=c:0,d:1,b:2,r:3,a:4"
    assert lines[1] == "S=cdbbrraaaaaa"
    steps = [ln for ln in lines if ln.startswith("step=")]
    assert len(steps) == 3
    assert [ln.split("flag_block=")[1].split()[0] for ln in steps] == ["2", "1", "3"]
    assert lines[-1] == "A'=araadaraa H0pc: 1.9591→1.2244"


def test_lfc_rejects_block_size_not_dividing_length(capsys):
    assert run(capsys, "lfc", "--string", "abracadabraa", "--block", "5")[0] == 2


# ---------------------------------------------------------------------------
# malformed edge lists
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "content",
    [
        "3 4\n1 0\n",                                  # missing header magic
        "# upag-el v1 M=0 n=5\n",                      # no targets per vertex
        "# upag-el v1 M=3 n=4\n1 0\n",                 # wrong line count
        "# upag-el v1 M=1 n=2\n1 0\n2 9\n",            # label out of range
        "# upag-el v1 M=1 n=2\n1 0\n2 2\n",            # self-loop
        "# upag-el v1 M=1 n=2\n1 0\nx 0\n",            # non-integer label
        "",                                            # empty file
    ],
)
def test_malformed_edge_list_is_a_usage_error(tmp_path, capsys, content):
    el = tmp_path / "bad.el"
    el.write_text(content)
    with pytest.raises(ModelError):
        read_edge_list(el)
    code, _, err = run(capsys, "stats", "--in", str(el))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "body",
    [
        "1 0\n2\n",                                    # one token
        "1 0 0\n2 0 1\n",                              # three tokens on every line
        "1 0\n2 0 1\n",                                # three tokens on one line
        "1 0\n2 1.5\n",                                # not an integer
        "1 0\nx 0\n",
        "1 0\n2 99999999999999999999\n",               # beyond int64
        "1 0\n2 -1\n",                                 # negative label
        "",                                            # header without a body
        "\n\n  \n",
    ],
)
def test_malformed_edge_body_fails_cleanly(tmp_path, capsys, body):
    el = tmp_path / "bad.el"
    el.write_text("# upag-el v1 M=1 n=2\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")              # no numpy warning may escape
        for cmd in (("stats", "--in", str(el)),
                    ("build", "--in", str(el), "--out", str(tmp_path / "o.upag"))):
            code, out, err = run(capsys, *cmd)
            assert code == 2
            assert err.startswith("error:") and err.count("\n") == 1
            assert "Traceback" not in err and out == ""


def _quiet_main(*argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


BAD_HEADERS = ["", "upag-el v1 M=2 n=3", "# upag-el v2 M=2 n=3", "# upag-el v1 M=-1 n=3",
               "# upag-el v1 M=2 n=x", "# upag-el v1 M=2 n=3 extra", "# upag-el v1 n=3 M=2",
               "# upag-el v1 M=0 n=3", "# upag-el v1 M=2 n=99999999999999999999999"]
BAD_LABELS = ["-1", "-9223372036854775809", "9223372036854775807", "99999999999999999999",
              "1e3", "0x1", "1.0", "nan", "", "\u0663"]


@st.composite
def edge_list_texts(draw):
    """An edge-list file: a valid instance, shuffled and with its columns
    swapped per line, then at most one damage: a bad header, an extra
    column on one line, one column on every line, a bad, moved or
    out-of-range label, or a dropped or repeated line."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    d = generate(m, n, seed=draw(st.integers(0, 2**16)))
    rows = [[str(a), str(b)] for a, b in zip(np.repeat(np.arange(1, n + 1), m).tolist(),
                                             d.targets.ravel().tolist())]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
        rows = [r[::-1] if draw(st.booleans()) else r for r in rows]
    header = f"# upag-el v1 M={m} n={n}"
    damage = draw(st.sampled_from(["none", "header", "column", "one_column", "label",
                                   "range", "move", "drop", "repeat"]))
    k = draw(st.integers(0, max(len(rows) - 1, 0)))
    if damage == "header":
        header = draw(st.sampled_from(BAD_HEADERS))
    elif rows and damage == "column":
        rows[k] = rows[k] + [draw(st.sampled_from(["0", "1", "x", "#"]))]
    elif damage == "one_column":
        rows = [r[:1] for r in rows]
    elif rows and damage == "label":
        rows[k][draw(st.integers(0, 1))] = draw(st.sampled_from(BAD_LABELS))
    elif rows and damage == "move":                 # in range, maybe no longer a PA graph
        rows[k][draw(st.integers(0, 1))] = str(draw(st.integers(0, n)))
    elif rows and damage == "range":
        rows[k][draw(st.integers(0, 1))] = str(n + draw(st.integers(1, 2**40)))
    elif rows and damage == "drop":
        del rows[k]
    elif rows and damage == "repeat":
        rows.insert(k, list(rows[k]))
    return header + "\n" + "".join(" ".join(r) + "\n" for r in rows)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(edge_list_texts())
def test_fuzzed_edge_lists_fail_cleanly_or_selfcheck(text):
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")              # no numpy warning may escape
        el, up = Path(tmp) / "f.el", Path(tmp) / "f.upag"
        el.write_text(text)
        try:
            read_edge_list(el)
            parsed = True
        except ModelError:
            parsed = False
        code, out, err = _quiet_main("build", "--in", str(el), "--out", str(up))
        if not parsed:
            assert (code, out) == (2, "")
            assert err.startswith("error:") and err.count("\n") == 1
            return
        assert code == 0, err
        code, out, err = _quiet_main("selfcheck", "--in", str(up), "--against", str(el))
        assert code == 0 and "OK" in out, out


def test_edge_list_whitespace_variants_parse_alike(tmp_path):
    d = generate(2, 30, seed=3)
    canon = tmp_path / "canon.el"
    write_edge_list(canon, d)
    lines = canon.read_text().splitlines()
    shuffled = [lines[0]] + [" ".join(ln.split()[::-1]) for ln in lines[:0:-1]]
    for base in (lines, shuffled):
        (tmp_path / "b.el").write_text("\n".join(base) + "\n")
        want_d, want_inferred, want_order = read_edge_list(tmp_path / "b.el")
        variants = [
            "\r\n".join(base) + "\r\n",                                   # CRLF
            "\n".join([base[0]] + [ln.replace(" ", "\t") for ln in base[1:]]) + "\n",
            "\n".join([base[0], ""] + [ln + "\n  " for ln in base[1:]]),  # blank lines
            "\n".join([base[0]] + ["  " + ln + "   " for ln in base[1:]]),  # no final newline
        ]
        for text in variants:
            path = tmp_path / "v.el"
            path.write_bytes(text.encode())
            got_d, got_inferred, got_order = read_edge_list(path)
            assert got_d == want_d and got_inferred == want_inferred
            assert (got_order is None) == (want_order is None)
            if want_order is not None:
                assert np.array_equal(got_order, want_order)


def test_empty_instance_round_trips(tmp_path, capsys):
    el = tmp_path / "zero.el"
    el.write_text("# upag-el v1 M=2 n=0\n")
    d, inferred, order = read_edge_list(el)
    assert d.n == 0 and d.m == 2 and not inferred and order is None
    assert run(capsys, "build", "--in", str(el), "--out", str(tmp_path / "z.upag"))[0] == 0
    assert run(capsys, "stats", "--in", str(el))[0] == 0


# ---------------------------------------------------------------------------
# pinned bytes at a size that runs pointer chains and peeling
# ---------------------------------------------------------------------------

PINNED_SHA256 = {
    "arrival.el": "12a8cee07b499768f91948630cf5c2b65bbc8349ee14ecc841300db535defff3",
    "arrival.upag": "0f8a6deaa672616bab489621ebd3a179cf72a914be6ab2ea10c94a11a87aa662",
    "arrival.map": "c8cf08befe8c6ffbb92a457b101b4df5da5f783826b77a45d9f65b208cfd106d",
    "shuffled.upag": "c1a7ab0c77f80abe1014c0badf4af7aeb94a07fabebb837a10df33a8daea2743",
    "shuffled.map": "06ddf1d46a4f94d90d9703a3c6238fc77cc0a6dc4584c957d23da14f61c5ae92",
    "labelled.upag": "ea539fc0634e72dc3c6883d2c40e631155eb94a0128b9f32ea9496a194e661d0",
    "labelled.map": "a1e2fad60bfa7b3e6e9357bae639e6fc0b9b0bfea5719dfe7430cb279412ace2",
}


def test_pinned_bytes_m3_n16384(tmp_path, capsys):
    m, n = 3, 2 ** 14
    el = tmp_path / "arrival.el"
    assert run(capsys, "generate", "--m", str(m), "--n", str(n), "--seed", "2026",
               "--out", str(el))[0] == 0
    # the same edges, shuffled by a fixed permutation, each written target first
    d, _, _ = read_edge_list(el)
    src, dst = np.repeat(np.arange(1, n + 1), m), d.targets.ravel()
    p = np.random.default_rng(2026).permutation(src.size)
    shuf = tmp_path / "shuffled.el"
    shuf.write_text(f"# upag-el v1 M={m} n={n}\n"
                    + "".join(f"{a} {b}\n" for a, b in zip(dst[p].tolist(), src[p].tolist())))
    for name, infile, mode in (("arrival", el, "unlabelled"), ("shuffled", shuf, "unlabelled"),
                               ("labelled", shuf, "labelled")):
        code, _, _ = run(capsys, "build", "--in", str(infile), "--out",
                         str(tmp_path / f"{name}.upag"), "--mode", mode,
                         "--emit-relabel", str(tmp_path / f"{name}.map"))
        assert code == 0
    for name, want in PINNED_SHA256.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == want, name
