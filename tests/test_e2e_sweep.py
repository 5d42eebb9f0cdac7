"""The end-to-end sweep's shuffled edge list: same graph, peeled on read."""

import importlib.util
from pathlib import Path

import numpy as np

from upag.cli import main, read_edge_list

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "e2e_sweep.py"


def _write_shuffled():
    spec = importlib.util.spec_from_file_location("e2e_sweep", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.write_shuffled


def _degrees(path: Path) -> np.ndarray:
    pairs = np.loadtxt(path, dtype=np.int64, ndmin=2, skiprows=1)
    return np.sort(np.bincount(pairs.ravel()))


def test_shuffled_list_is_the_same_graph_and_is_peeled(tmp_path, capsys):
    el, shuf, up = tmp_path / "g.el", tmp_path / "shuffled.el", tmp_path / "shuffled.upag"
    assert main(["generate", "--m", "3", "--n", str(2 ** 8), "--seed", "1", "--out", str(el)]) == 0
    write_shuffled = _write_shuffled()
    write_shuffled(el, shuf)
    lines, shuffled = el.read_text().splitlines(), shuf.read_text().splitlines()
    assert shuffled[0] == lines[0] and len(shuffled) == len(lines)
    assert np.array_equal(_degrees(shuf), _degrees(el))
    assert read_edge_list(shuf)[1]                  # not in block order: the read peels
    assert main(["build", "--in", str(shuf), "--out", str(up)]) == 0
    assert main(["selfcheck", "--in", str(up), "--against", str(shuf)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("OK (")
    again = tmp_path / "again.el"
    write_shuffled(el, again)
    assert again.read_bytes() == shuf.read_bytes()
