"""Golden digest files: one sha256 per record, in ``sha256sum`` layout.

A record is a label and a text, usually canonical JSON.  A golden test
recomputes its records and compares them line by line with its file
under ``golden/``; a mismatch names the first differing record.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest_line(label: str, text: str) -> str:
    return f"{hashlib.sha256(text.encode()).hexdigest()}  {label}"


def golden_digest(path: Path, label: str) -> str:
    """The digest that ``path`` records for ``label``."""
    for line in path.read_text().splitlines():
        digest, _, name = line.partition("  ")
        if name == label:
            return digest
    raise KeyError(f"{path.name} has no record {label!r}")


def assert_golden(path: Path, records: Iterable[tuple[str, str]], skip: tuple[str, ...] = ()) -> None:
    """Every record reproduces its golden line, in order; labels in
    ``skip`` are checked by another test and not recomputed here."""
    expected = [line for line in path.read_text().splitlines() if line.partition("  ")[2] not in skip]
    got = 0
    for want, (label, text) in zip(expected, records):
        line = digest_line(label, text)
        assert line == want, f"{path.name} record {got} differs: {line!r}, golden {want!r}; now {text[:400]}"
        got += 1
    assert got == len(expected), f"{got} records, {path.name} has {len(expected)}"


def write_golden(path: Path, records: Iterable[tuple[str, str]]) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(digest_line(label, text) + "\n" for label, text in records))
