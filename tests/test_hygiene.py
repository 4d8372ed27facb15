"""Lint gates: no module of the package or of its tests imports a name
it never uses, and every function the benchmark's tracer wraps exists.

An AST scan stands in for a linter.  The package's ``__init__.py`` is
left out, because it imports names in order to re-export them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "coarselab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import statement -> its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, string annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef)):
            notes = [getattr(node, "annotation", None), getattr(node, "returns", None)]
            for note in notes:
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    used |= used_names(ast.parse(note.value, mode="eval"))
    return used


def test_scan_covers_the_package():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_scan_sees_an_unused_import():
    tree = ast.parse("from typing import Any, Sequence\nimport numpy as np\nx: 'Sequence[int]' = np.zeros(1)\n")
    names = imported_names(tree)
    assert sorted(n for n in names if n not in used_names(tree)) == ["Any"]


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_exist():
    """Each ``SPANNED`` and ``COUNTED`` entry of ``perfbench/tracer.py``
    names a module-level function of ``coarselab``, or a method defined
    on the class itself, which is where the tracer looks it up."""
    tracer = _tracer()
    missing = []
    for module, path in tracer.SPANNED + tracer.COUNTED:
        owner = importlib.import_module(f"coarselab.{module}")
        *classes, attr = path.split(".")
        for name in classes:
            owner = getattr(owner, name, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module}.{path}")
    assert len(tracer.SPANNED) > 10
    assert not missing, f"perfbench/tracer.py traces names coarselab lacks: {', '.join(missing)}"
