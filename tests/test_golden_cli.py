"""Golden digest of the command line.

Each record is the exit code, standard output and standard error of one
``--json`` run: ``check``, ``asdim``, ``near``, ``bunch`` and ``map`` on
every ``instances/*.json`` document, and ``mine`` for both targets at
``--max-size 3``.  ``golden/cli.sha256`` holds one sha256 per record; a
digest may change only together with a CHANGES.md line that says why.

Regenerate with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

from coarselab.cli import main

from digests import GOLDEN_DIR, assert_golden, canonical, write_golden

GOLDEN = GOLDEN_DIR / "cli.sha256"
INSTANCES = sorted((Path(__file__).resolve().parent.parent / "instances").glob("*.json"))


def cli_runs():
    for command in ("check", "asdim", "near", "bunch", "map"):
        for path in INSTANCES:
            yield f"{command} {path.name}", [command, str(path), "--json"]
    for target in ("non-ls-regular", "nearness-product-failure"):
        yield f"mine {target}", ["mine", "--target", target, "--max-size", "3", "--json"]


def cli_records():
    for label, args in cli_runs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        yield label, canonical({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})


def test_cli_golden_digest():
    assert len(INSTANCES) >= 2
    assert_golden(GOLDEN, cli_records())


if __name__ == "__main__":
    write_golden(GOLDEN, cli_records())
