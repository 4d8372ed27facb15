"""Golden digest of the line tier.

Each record is the JSON of one line-tier result on a fixed grid: the
windows, least element, point distances and gap answers of every set
class and ``BlocksSet`` rule; the exact and windowed distance and
containment answers on pairs of them; and bunch certificates (or their
rejection messages) with their revalidation over a grid of families,
scale budgets and windows.  The grid holds the certificates for
{evens, odds}, {2, 0} mod 6 and {7, 6, 3} mod 10 at scale 16, and for
{evens, odds} at scale 64 (witnesses past the first 64 pivot points),
all at window 1e4.  ``golden/line.sha256`` holds one sha256 per record; a simpler
or faster implementation must reproduce every record byte for byte.  A
digest may change only together with a CHANGES.md line that says why.

The file also holds the digest of the 500 pairs of criterion 4b, which
``test_acceptance`` draws and checks; it is not recomputed here.

Regenerate with ``PYTHONPATH=src python tests/test_golden_line.py``.
"""

from __future__ import annotations

import itertools
import random

from coarselab import lineset as ls
from coarselab.lineset import BlocksSet, FiniteSet, GeometricSet, LineSet, PeriodicSet
from coarselab.nearness_lab import ObstructionRejected, bunch_obstruction

from digests import GOLDEN_DIR, assert_golden, canonical, write_golden

GOLDEN = GOLDEN_DIR / "line.sha256"
SAMPLER_LABEL = "criterion 4b pairs"

WINDOW_TOPS = (0, 1, 7, 40, 333, 4096)
POINTS = (0, 1, 6, 7, 39, 40, 41, 332, 1000, 4097)
GAP_QUERIES = ((0, 40), (1, 40), (2, 333), (5, 4096), (40, 4096), (300, 333))
# the sets paired with one another at windows, every pair with a windowed set
PAIRED = (
    "finite-one", "periodic-finite", "odds", "mixed", "geometric-2", "geometric-5x7",
    "doubling-8", "sparsify-mixed-0", "sparsify-doubling-1", "nearer-ap-0",
    "nearer-geometric-1", "offset-2301",
)


def _exact_sets() -> dict[str, LineSet]:
    return {
        "finite-empty": FiniteSet(()),
        "finite-one": FiniteSet((5,)),
        "finite-spread": FiniteSet((0, 3, 9, 40, 41, 333, 5000)),
        "periodic-empty": PeriodicSet((4,), (), (4,)),
        "periodic-finite": PeriodicSet((2, 9, 100), (), (9,)),
        "evens": ls.evens(),
        "odds": ls.odds(),
        "naturals": ls.naturals(),
        "mixed": PeriodicSet((1, 5, 30), ((3, 7), (10, 4)), (10, 17)),
        "overlap": PeriodicSet((0,), ((7, 3), (7, 6)), (7,)),
        "sparse": PeriodicSet((), ((5, 12),), (17,)),
        "late": PeriodicSet((50, 61), ((90, 9),), ()),
    }


def _windowed_sets() -> dict[str, LineSet]:
    halves = ls.sparsify_split(ls.naturals())
    mixed = _exact_sets()["mixed"]
    return {
        "geometric-2": GeometricSet(1, 2, 0),
        "geometric-3x4": GeometricSet(3, 2, 2),
        "geometric-base3": GeometricSet(1, 3, 1),
        "geometric-5x7": GeometricSet(5, 7, 0),
        "doubling-1": BlocksSet("doubling-blocks", (1,)),
        "doubling-3": BlocksSet("doubling-blocks", (3,)),
        "doubling-8": BlocksSet("doubling-blocks", (8,)),
        "sparsify-naturals-0": halves[0],
        "sparsify-naturals-1": halves[1],
        "sparsify-mixed-0": BlocksSet("sparsify-half", (0,), (mixed,)),
        "sparsify-mixed-1": BlocksSet("sparsify-half", (1,), (mixed,)),
        "sparsify-geometric-0": BlocksSet("sparsify-half", (0,), (GeometricSet(1, 2, 0),)),
        "sparsify-doubling-1": BlocksSet("sparsify-half", (1,), (BlocksSet("doubling-blocks", (3,)),)),
        "nearer-halves-0": BlocksSet("nearer-side", (0,), halves),
        "nearer-halves-1": BlocksSet("nearer-side", (1,), halves),
        "nearer-ap-0": BlocksSet("nearer-side", (0,), (ls.arithmetic(0, 5), ls.arithmetic(2, 7))),
        "nearer-ap-1": BlocksSet("nearer-side", (1,), (ls.arithmetic(0, 5), ls.arithmetic(2, 7))),
        "nearer-geometric-0": BlocksSet("nearer-side", (0,), (GeometricSet(1, 2, 0), ls.arithmetic(0, 10))),
        "nearer-geometric-1": BlocksSet("nearer-side", (1,), (GeometricSet(1, 2, 0), ls.arithmetic(0, 10))),
        "offset-1210": BlocksSet("geometric-offset", (1, 2, 1, 0)),
        "offset-1412": BlocksSet("geometric-offset", (1, 4, 1, 2)),
        "offset-2301": BlocksSet("geometric-offset", (2, 3, 0, 1)),
        "offset-1201": BlocksSet("geometric-offset", (1, 2, 0, 1)),
        "offset-3223": BlocksSet("geometric-offset", (3, 2, 2, 3)),
    }


def _call(f, *args):
    """``f(*args)``, or the type and message of the error it raises."""
    try:
        out = f(*args)
    except ValueError as e:
        return ["error", type(e).__name__, str(e)]
    return out.to_json() if hasattr(out, "to_json") else out


def _set_records(label: str, s: LineSet):
    for hi in WINDOW_TOPS:
        yield f"{label} window {hi}", s.window(hi)
    yield f"{label} min_element", _call(s.min_element)
    yield f"{label} point_distance", [_call(ls.point_distance, s, n) for n in POINTS]
    yield f"{label} gap certificates", [_call(ls.verify_gap_certificate, s, g, hi) for g, hi in GAP_QUERIES]
    if isinstance(s, PeriodicSet):
        yield f"{label} max_gap", _call(s.max_gap)
    yield f"{label} diameter", _call(ls.diameter, s)


def _exact_pair_records(la: str, a: LineSet, lb: str, b: LineSet):
    yield f"{la} {lb} hausdorff_distance", _call(ls.hausdorff_distance, a, b)
    yield f"{la} {lb} is_subset", _call(ls.is_subset, a, b)
    yield f"{la} {lb} hausdorff_at_scale", [
        _call(ls.hausdorff_at_scale, a, b, k, k + 100) for k in (0, 1, 3, 10, 40)
    ]


def _windowed_pair_records(la: str, a: LineSet, lb: str, b: LineSet):
    yield f"{la} {lb} hausdorff_at_scale", [
        _call(ls.hausdorff_at_scale, a, b, k, hi) for k, hi in ((1, 40), (1, 333), (4, 4096), (16, 4096))
    ]


def _families():
    yield "evens-odds", [ls.evens(), ls.odds()]
    yield "mod6", [ls.arithmetic(2, 6), ls.arithmetic(0, 6)]
    yield "mod10", [ls.arithmetic(7, 10), ls.arithmetic(6, 10), ls.arithmetic(3, 10)]
    yield "mod3", [ls.arithmetic(0, 3), ls.arithmetic(1, 3), ls.arithmetic(2, 3)]
    yield "irregular", [PeriodicSet((1,), ((4, 4),), (4,)), PeriodicSet((), ((2, 4), (3, 4)), (3,))]
    yield "sparse-pivot", [ls.arithmetic(0, 40), ls.arithmetic(1, 40)]
    yield "shared", [ls.evens(), ls.arithmetic(0, 4)]
    yield "finite", [FiniteSet((1, 3)), ls.odds()]
    yield "one", [ls.evens()]


def _certificate_records():
    """Certificates, or rejection messages, over families x budgets x
    windows; {evens, odds} at scale 64 puts the pivot's first far witness
    past its first 64 points."""
    for (label, family), budget, window in itertools.product(_families(), (4, 16, 64), (5, 300, 10**4)):
        try:
            cert = bunch_obstruction(family, scale_budget=budget, window=window)
        except ObstructionRejected as e:
            yield f"bunch {label} {budget} {window}", ["rejected", str(e)]
            continue
        yield f"bunch {label} {budget} {window}", [cert.to_json(), cert.revalidate()]


def line_records():
    """(label, canonical JSON) for every record of the grid, in order."""
    exact = _exact_sets()
    every = {**exact, **_windowed_sets()}
    for label, s in every.items():
        for name, value in _set_records(label, s):
            yield name, canonical(value)
    for (la, a), (lb, b) in itertools.product(exact.items(), repeat=2):
        for name, value in _exact_pair_records(la, a, lb, b):
            yield name, canonical(value)
    paired = [(label, every[label]) for label in PAIRED]
    for (la, a), (lb, b) in itertools.product(paired, repeat=2):
        if not (a.is_exact() and b.is_exact()):
            for name, value in _windowed_pair_records(la, a, lb, b):
                yield name, canonical(value)
    for name, value in _certificate_records():
        yield name, canonical(value)


def test_line_golden_digest():
    assert_golden(GOLDEN, line_records(), skip=(SAMPLER_LABEL,))


if __name__ == "__main__":
    from oracles import line_product_pairs

    pairs = list(line_product_pairs(random.Random(424242), 500))
    write_golden(GOLDEN, [*line_records(), (SAMPLER_LABEL, repr(pairs))])
