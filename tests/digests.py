"""Golden digest files: one sha256 per record, in ``sha256sum`` layout.

A record is a label and a text, usually canonical JSON.  A golden test
recomputes its records and compares them line by line with its file
under ``golden/``; a mismatch names every differing record.
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
    ``skip`` are checked by another test and not recomputed here.  A
    failure lists every differing record, and a difference in count."""
    expected = [line for line in path.read_text().splitlines() if line.partition("  ")[2] not in skip]
    records = list(records)
    differing = [
        f"record {i} {label!r}: {line!r}, golden {want!r}; now {text[:400]}"
        for i, (want, (label, text)) in enumerate(zip(expected, records))
        if (line := digest_line(label, text)) != want
    ]
    if len(records) != len(expected):
        differing.append(f"{len(records)} records, {path.name} has {len(expected)}")
    assert not differing, f"{path.name} differs:\n" + "\n".join(differing)


def write_golden(path: Path, records: Iterable[tuple[str, str]]) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text("".join(digest_line(label, text) + "\n" for label, text in records))
