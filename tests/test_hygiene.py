"""Lint gate: no module of the package or of its tests imports a name
it never uses.

An AST scan stands in for a linter.  The package's ``__init__.py`` is
left out, because it imports names in order to re-export them.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "coarselab"
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
