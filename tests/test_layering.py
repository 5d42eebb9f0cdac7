"""The import graph of the package, read from its source with ``ast``.

upag's modules import one another only at module top, and those imports
form no cycle: a module can be loaded on its own, and no import is put off
to call time to break a loop.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "upag"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _upag_imports(nodes) -> set[str]:
    """Names of the upag modules that the import statements among ``nodes`` load."""
    out = set()
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and base.split(".")[0] != "upag":
                continue
            base = base.removeprefix("upag").lstrip(".")
            names = [base] if base else [a.name for a in node.names]
            out.update(nm.split(".")[0] for nm in names)
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("upag."))
    return out & MODULES.keys()


def test_imports_between_modules_form_no_cycle():
    graph = {name: _upag_imports(ast.walk(tree)) - {name} for name, tree in MODULES.items()}
    assert "pa_gen" in graph["entropy"]
    done: set[str] = set()

    def visit(name, path):
        assert name not in path, "import cycle: " + " -> ".join(path[path.index(name):] + [name])
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + [name])
            done.add(name)

    for name in sorted(graph):
        visit(name, [])


def test_no_function_imports_a_package_module():
    found = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{name}.{fn.name}: {dep}"
                          for dep in sorted(_upag_imports(ast.walk(fn)))]
    assert found == []
