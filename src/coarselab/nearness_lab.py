"""Bunch machinery: the non-extension falsifier on the line, and the
contrasting extension facts for small explicit structures.

The falsifier takes a near family of pairwise-disjoint infinite exact
sets and produces a self-contained certificate that no bunch of the
induced near collection can contain the family: it splits the first
member into two mutually divergent halves, splits the line into a side
far from each half, and certifies, scale by scale, that neither side
contains a subset uniformly close to the whole member.

Scale-check soundness: any subset of a side within Hausdorff distance k
of the member is contained in the canonical candidate (the side's
points within k of the member), and would force every member point to
lie within k of that candidate; a single member point farther than k
from the candidate therefore refutes every such subset at once.  The
window guard keeps this exact: candidate points within k of a member
point below ``window - k`` cannot hide beyond the window.

Each scale check stores the *first* such witness: the smallest guarded
pivot point (at most ``window - k``) farther than k from the candidate,
with its distance.  Every guarded pivot point below it lies within k of
the candidate, so the stored check is a function of the family, the
scale and the window alone, and the witness scan may stop as soon as it
finds a far point.

The scan takes the guarded pivot points in chunks and measures each
chunk against a part of the candidate only: its points up to the
chunk's last point plus k, and the first candidate point past them.
That part holds both nearest candidate points of every chunk point p:
the last one at or below p lies in the prefix, and the first one above
p is either in the prefix or, if it lies past the chunk's last point
plus k, the first candidate point past the prefix.  So every distance
the scan reads, the stored one included, is the distance to the whole
candidate.

The three distance fields over ``[0, window]`` come from
``lineset._sparsify_fields``: the pivot's, exact up to ``N0 + 2L`` and
one period tiled past it, gives the side points' distances to the
pivot; each sparsify half's, the pivot's inside the half's index runs
and filled from the run ends between them, gives the two sides.

``BunchObstruction.revalidate`` rebuilds none of the stored sets.  The
pivot must be ``family[0]`` and an infinite periodic set; the halves
must equal ``sparsify_split(pivot)`` and the sides the two
``nearer-side`` sets of those halves, so both follow from the pivot,
and the sides cover the line by construction.  The three fields come
from the same ``_sparsify_fields`` call as in the build: each side's
window is where its half field is the larger, and its points'
distances to the pivot are the pivot's field there.  A member point
passes where the pivot's field is 0.  A stored distance ``D`` is not
recomputed but tested: ``D`` is the distance from ``l`` to the scale-k
candidate exactly when no candidate point lies strictly between
``l - D`` and ``l + D`` and one of the two is a candidate point.  Two
``searchsorted`` calls over a side's window find both ends and the
points between them for all of that side's checks at once, and one
``np.minimum.reduceat`` takes the least pivot distance between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lineset as ls
from .lineset import _distances_to
from .setcore import CapExceeded, Family
from .structures import (
    ExplicitNearness,
    ExplicitProximity,
    _first,
    _members,
    enumerate_bunches,
    enumerate_clusters,
)
from .verdict import TriVerdict


# The build holds a pivot window up to 5 * window + 64 and three distance
# fields over [0, window]: at the cap, about 0.7 GB for the naturals.
WINDOW_CAP = 10**7


class ObstructionRejected(ValueError):
    """Precondition failure: the family is not a valid falsifier input."""


class ObstructionBudgetExhausted(ObstructionRejected):
    """The window ran out before the certificate was complete: neither a
    certificate nor a witness against the family, so the answer is unknown.
    ``checks`` holds the scale checks made before it ran out, in order."""

    def __init__(self, message: str, checks: Sequence[ScaleCheck] = ()):
        super().__init__(message)
        self.checks = tuple(checks)


@dataclass(frozen=True)
class ScaleCheck:
    scale: int
    side: int  # 0: far-from-first-half, 1: far-from-second-half
    member_point: int
    distance_to_candidate: int | None  # None: candidate empty below the window

    def to_json(self) -> dict:
        return {
            "scale": self.scale,
            "side": self.side,
            "member_point": self.member_point,
            "distance_to_candidate": self.distance_to_candidate,
        }


@dataclass(frozen=True)
class BunchObstruction:
    family: tuple[ls.LineSet, ...]
    refiner_scale: int  # pairwise distance bound of the family itself
    pivot: ls.LineSet  # the member that gets split
    half1: ls.LineSet
    half2: ls.LineSet
    side1: ls.LineSet
    side2: ls.LineSet
    coverage: TriVerdict
    scale_checks: tuple[ScaleCheck, ...]
    scale_budget: int
    window: int

    @property
    def complete(self) -> bool:
        # more (scale, side) pairs than checks cannot all be seen; testing
        # that first keeps a forged budget from sizing the set below
        if not self.coverage.is_yes or 2 * (self.scale_budget + 1) > len(self.scale_checks):
            return False
        seen = {(c.scale, c.side) for c in self.scale_checks}
        want = {(k, s) for k in range(self.scale_budget + 1) for s in (0, 1)}
        return seen == want

    def to_json(self) -> dict:
        return {
            "family": [s.to_json() for s in self.family],
            "refiner_scale": self.refiner_scale,
            "pivot": self.pivot.to_json(),
            "half1": self.half1.to_json(),
            "half2": self.half2.to_json(),
            "side1": self.side1.to_json(),
            "side2": self.side2.to_json(),
            "coverage": self.coverage.to_json(),
            "scale_checks": [c.to_json() for c in self.scale_checks],
            "scale_budget": self.scale_budget,
            "window": self.window,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BunchObstruction":
        cov = doc["coverage"]
        return cls(
            family=tuple(ls.lineset_from_json(s) for s in doc["family"]),
            refiner_scale=doc["refiner_scale"],
            pivot=ls.lineset_from_json(doc["pivot"]),
            half1=ls.lineset_from_json(doc["half1"]),
            half2=ls.lineset_from_json(doc["half2"]),
            side1=ls.lineset_from_json(doc["side1"]),
            side2=ls.lineset_from_json(doc["side2"]),
            coverage=TriVerdict(cov["outcome"], cov["witness"]),
            scale_checks=tuple(
                ScaleCheck(
                    c["scale"], c["side"], c["member_point"], c["distance_to_candidate"]
                )
                for c in doc["scale_checks"]
            ),
            scale_budget=doc["scale_budget"],
            window=doc["window"],
        )

    def revalidate(self) -> bool:
        """Re-check the certificate from its pivot alone: the halves and
        sides must be the ones the pivot determines, and every scale
        check is tested against the pivot's distance fields (see the
        module docstring).  Raises ``CapExceeded`` above ``WINDOW_CAP``
        before anything is built."""
        window, pivot, checks = self.window, self.pivot, self.scale_checks
        if window > WINDOW_CAP:
            raise CapExceeded(f"window {window} exceeds the cap {WINDOW_CAP}")
        # a None distance reads 0 here, and ``empty`` marks it
        rows = [(c.scale, c.side, c.member_point, c.distance_to_candidate or 0) for c in checks]
        try:
            table = np.array(rows)
        except ValueError:  # a list among the fields makes the rows ragged
            return False
        # a float, string or oversized entry, or a list in every field
        if table.dtype.kind != "i" or table.ndim != 2:
            return False
        if not self.complete or window < 0 or not self.family or pivot != self.family[0]:
            return False
        if not isinstance(pivot, ls.PeriodicSet) or pivot.is_finite():
            return False
        halves = ls.sparsify_split(pivot)
        sides = tuple(ls.BlocksSet("nearer-side", (s,), halves, ("divergent",)) for s in (0, 1))
        if (self.half1, self.half2) != halves or (self.side1, self.side2) != sides:
            return False
        lw, field, field1, field2 = ls._sparsify_fields(pivot, window)
        if field1 is None or field2 is None:
            return False
        low = lw if lw[-1] >= 4096 else pivot.window_array(4096)
        n = int(np.searchsorted(low, 4096, "right"))  # the pivot's points up to 4096
        if any(sum(b - a for a, b in ls._sparsify_runs(n, s)) < 8 for s in (0, 1)):
            return False
        scale, side, point, dist = table.T
        empty = np.array([c.distance_to_candidate is None for c in checks], dtype=bool)
        # two points of [0, window] lie at most window apart
        if ((point < 0) | (point > window - scale) | (dist > window)).any() or field[point].any():
            return False
        for s, in_side in enumerate((field1 >= field2, field2 >= field1)):
            mine = side == s
            k, l, d = scale[mine], point[mine], dist[mine]
            sw = np.flatnonzero(in_side)
            # a far point at each end gives every lookup below a neighbour
            pts = np.concatenate(([-ls._FAR], sw, [ls._FAR]))
            near = np.concatenate(([ls._FAR], field[sw], [ls._FAR]))
            # pts[lo:hi] are the side points strictly between l - d and l + d
            lo = np.searchsorted(pts, l - d, "right")
            hi = np.searchsorted(pts, l + d, "left")
            # the least of near[lo:hi], or near[lo] where lo >= hi
            inner = np.minimum.reduceat(near, np.column_stack((lo, hi)).ravel())[::2]
            left = (pts[lo - 1] == l - d) & (near[lo - 1] <= k)
            right = (pts[hi] == l + d) & (near[hi] <= k)
            exact = (d > k) & (left | right) & ((lo >= hi) | (inner > k))
            if not np.where(empty[mine], near.min() > k, exact).all():
                return False
        return True


def _chunks(n: int):
    """``(start, stop)`` bounds of the chunks of 64, 128, 256, ... entries
    that cover ``range(n)``."""
    start, size = 0, 64
    while start < n:
        yield start, min(start + size, n)
        start += size
        size *= 2


def _first_far(
    points: np.ndarray, side: np.ndarray, d_side: np.ndarray, k: int
) -> tuple[int, int] | None:
    """The first of the sorted ``points`` farther than ``k`` from the
    nonempty candidate ``side[d_side <= k]``, with its distance, or None.

    Scans ``points`` chunk by chunk and stops at the first chunk that
    holds a far point.  Each chunk is measured against the candidate
    points up to its last point plus ``k``, and the first candidate
    point past them (see the module docstring)."""
    for start, stop in _chunks(points.size):
        chunk = points[start:stop]
        cut = int(np.searchsorted(side, chunk[-1] + k, "right"))
        candidate = side[:cut][d_side[:cut] <= k]
        for lo, hi in _chunks(side.size - cut):
            hit = np.flatnonzero(d_side[cut + lo : cut + hi] <= k)
            if hit.size:
                candidate = np.append(candidate, side[cut + lo + hit[0]])
                break
        dists = _distances_to(chunk, candidate)
        far = np.flatnonzero(dists > k)
        if far.size:
            return int(chunk[far[0]]), int(dists[far[0]])
    return None


def bunch_obstruction(
    family: Sequence[ls.LineSet], scale_budget: int = 32, window: int = 10**5
) -> BunchObstruction:
    """Build the non-extension certificate for a near family of pairwise
    disjoint infinite exact-tier sets."""
    if window > WINDOW_CAP:
        raise CapExceeded(f"window {window} exceeds the cap {WINDOW_CAP}")
    members = list(family)
    if len(members) < 2:
        raise ObstructionRejected("need at least two members")
    if any(not s.is_exact() for s in members):
        raise ObstructionRejected("falsifier needs exact-tier members")
    if any(s.is_empty() for s in members):
        raise ObstructionRejected("members must be nonempty")
    finite = [s for s in members if s.is_finite()]
    if finite:
        raise ObstructionRejected(
            "family is not near: it mixes finite and infinite members "
            "with empty common intersection"
            if len(finite) < len(members)
            else "family is not near at large scale: all members finite"
        )
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            inter = ls.intersection(members[i], members[j])
            if not inter.is_empty():
                raise ObstructionRejected(
                    f"members {i} and {j} share the point {inter.min_element()}"
                )
    worst = 0
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            worst = max(worst, ls.hausdorff_distance(members[i], members[j]).value)

    pivot = members[0]
    half1, half2 = ls.sparsify_split(pivot)
    lw_pad, field, field1, field2 = ls._sparsify_fields(pivot, window)
    if field1 is None or field2 is None:
        raise ObstructionBudgetExhausted("window too small for the pivot member")
    side1, side2, coverage, side_windows = ls._split_with_windows(
        half1, half2, field1, field2, window
    )

    checks: list[ScaleCheck] = []
    for side_idx, sw in enumerate(side_windows):
        d_side = field[sw]
        nearest = int(d_side.min()) if sw.size else None
        for k in range(scale_budget + 1):
            witnesses = lw_pad[: np.searchsorted(lw_pad, window - k, "right")]
            if nearest is None or nearest > k:  # the candidate is empty
                if witnesses.size == 0:
                    raise ObstructionBudgetExhausted("window too small for the pivot member", checks)
                checks.append(ScaleCheck(k, side_idx, int(witnesses[0]), None))
                continue
            far = _first_far(witnesses, sw, d_side, k)
            if far is None:
                raise ObstructionBudgetExhausted(
                    f"scale check failed: side {side_idx} holds a candidate within "
                    f"{k} of every member point up to the window",
                    checks,
                )
            checks.append(ScaleCheck(k, side_idx, *far))

    return BunchObstruction(
        family=tuple(members),
        refiner_scale=worst,
        pivot=pivot,
        half1=half1,
        half2=half2,
        side1=side1,
        side2=side2,
        coverage=coverage,
        scale_checks=tuple(checks),
        scale_budget=scale_budget,
        window=window,
    )


# ---------------------------------------------------------------------------
# Explicit contrast: extension succeeds in small proximity-induced spaces
# ---------------------------------------------------------------------------


def bunch_exists_explicit(a: Family, n: ExplicitNearness) -> TriVerdict:
    """Exhaustive search for a bunch containing the family: the least
    bunch key holding it, or No with the number of keys holding it."""
    if not n.is_near(a):
        raise ValueError("family is not near; extension is ill-posed")
    want = a.mask_key()
    bunches = np.array(enumerate_bunches(n), dtype=np.int64)
    hit = _first(bunches & want == want)
    if hit is None:
        return TriVerdict.no(searched=1 << (n.slots - want.bit_count()))
    key = int(bunches[hit[0]])
    return TriVerdict.yes(bunch=str(Family.from_mask_key(a.universe, key)), key=key)


@dataclass(frozen=True)
class ClusterContrast:
    pairs_checked: int
    all_extended: bool
    failures: tuple[tuple[str, str], ...]


def cluster_extension_contrast(p: ExplicitProximity) -> ClusterContrast:
    """Every near pair of a small proximity extends to a cluster."""
    m = p.slots
    held = _members(enumerate_clusters(p), m)
    s = np.arange(m)
    pairs = _members(p.rows, m) & (s[:, None] <= s)  # near pairs a <= b
    missed = np.argwhere(pairs & ~(held.T @ held)).tolist()
    failures = tuple(
        tuple(str(Family.from_mask_key(p.universe, 1 << x)) for x in pair) for pair in missed
    )
    return ClusterContrast(int(pairs.sum()), not failures, failures)
