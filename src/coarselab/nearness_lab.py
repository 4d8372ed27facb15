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
scale and the window alone.

One pass finds the witnesses of all scales.  A side point p within k of
a pivot point l has ``field[p] = dist(p, pivot) <= |l - p| <= k``, so it
is in the scale-k candidate: l lies within k of the candidate exactly
when it lies within k of the side.  That distance does not depend on k,
so the scale-k witness is the first pivot point at which the running
maximum of these distances passes k, and one ``searchsorted`` gives
every scale's.  Only the stored distance needs the candidate
``side[field <= k]``: it is searched outward from the witness.

The build works on a reach ``[0, h]``, not on the whole window.  Its
three distance fields over ``[0, h]`` come from
``lineset._sparsify_fields``: the pivot's, exact up to ``N0 + 2L`` and
one period tiled past it, gives the side points' distances to the
pivot; each sparsify half's, the pivot's inside the half's index runs
and filled from the run ends between them, gives the two sides.  They
are exact on ``[0, h]`` for every h.  A check found there is the
window's check once it is settled: its witness l lies at most
``h - k``, so every side point within k of it, or of a pivot point
below it, lies in ``[0, h]``; and its stored distance d has
``l + d <= h``, so no candidate point past h lies nearer.  A candidate
empty on ``[0, h]`` may fill past h, so it is settled only at the
window.  h starts at 4096, or at the end of the coverage evidence
(``_evidence_top``) where that lies further, and doubles, up to the
window, until every check is settled.  At the window every check is
settled or the window has run out, which raises
``ObstructionBudgetExhausted``.

``BunchObstruction.revalidate`` rebuilds none of the stored sets.  The
pivot must be ``family[0]`` and an infinite periodic set; the halves
must equal ``sparsify_split(pivot)`` and the sides the two
``nearer-side`` sets of those halves, so both follow from the pivot,
and the sides cover the line by construction.  The three fields come
from the same ``_sparsify_fields`` call as in the build, on a reach of
its own: the larger of the evidence prefix's end and every check's
``member_point + distance``, at most the window.  A check at ``l``
with distance ``d`` reads only side points in ``[l - d, l + d]``, and
the fields are exact on every prefix, so the verdict is the window's;
a reach below the window holds the evidence prefix, so at least 128
pivot points, and neither half field is empty there.  Only a check
with an empty candidate, which claims emptiness up to the window, or a
forged distance that reaches it, sizes the fields to the window.  Each
side's window is where its half field is the larger, and its points'
distances to the pivot are the pivot's field there.  The coverage
verdict must be the build's, read from the half fields over the same
evidence prefix.  A member point passes where the pivot's field is 0.
A stored distance ``D`` is not recomputed but tested: ``D`` is the
distance from ``l`` to the scale-k candidate exactly when no candidate
point lies strictly between ``l - D`` and ``l + D`` and one of the two
is a candidate point.  Two ``searchsorted`` calls over a side's window
find both ends and the points between them for all of that side's
checks at once, and one ``np.minimum.reduceat`` takes the least pivot
distance between them.
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


# The windows and fields of the build and of ``revalidate`` reach only
# as far as the checks and the coverage evidence need (see the module
# docstring).  A check with an empty candidate, or a forged distance,
# sizes ``revalidate``'s fields to the window: at the cap, about 0.7 GB
# for the naturals.
WINDOW_CAP = 10**7
# The least reach the build starts from; it doubles from there.
_REACH = 4096


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
        """Re-check the certificate from its pivot alone: the halves,
        sides and coverage must be the ones the pivot determines, and
        every scale check is tested against the pivot's distance fields
        (see the module docstring).  Raises ``CapExceeded`` above ``WINDOW_CAP``
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
        scale, side, point, dist = table.T
        empty = np.array([c.distance_to_candidate is None for c in checks], dtype=bool)
        # two points of [0, window] lie at most window apart; a negative
        # distance would size the reach below its own member point
        if ((point < 0) | (point > window - scale) | (dist < 0) | (dist > window)).any():
            return False
        top = _evidence_top(pivot, window)
        # only an empty candidate claims something up to the window
        reach = window if empty.any() else min(window, max(top, int((point + dist).max())))
        _, field, field1, field2 = ls._sparsify_fields(pivot, reach)
        if field1 is None or field2 is None or field[point].any():
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
        return self.coverage == ls._split_verdict(field1[: top + 1], field2[: top + 1], window)


def _evidence_top(pivot: ls.PeriodicSet, window: int) -> int:
    """The end of the prefix of ``[0, window]`` that holds all coverage
    evidence for the infinite periodic ``pivot``: the window, or 64 past
    the pivot's 128th point where that lies below it.

    The evidence's scales are at most 32, so a point that counts lies
    within 32 of both sparsify halves, whose points there lie within 64
    of each other.  The pivot's points are distinct integers, so points
    ``j - i`` indices apart lie at least that far apart, and the halves'
    index runs come within 64 indices of each other only below index
    128.  So every point that counts lies below the pivot's 128th point
    plus 32, and the evidence of a prefix reaching 64 past that point is
    the evidence of the whole window.  The build and ``revalidate`` both
    read the evidence from this prefix."""
    # past N0 the pivot's shortest progression alone gives one point per step
    step = min(p for _, p in pivot.progressions)
    low = pivot.window_array(min(window, pivot.stabilization_base() + 128 * step))
    if low.size < 128:
        return window
    return min(window, int(low[127]) + 64)


def _nearest_candidates(
    sw: np.ndarray, d_side: np.ndarray, points: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """For each ``points[i]`` and ``scales[i] = k``, the distance from the
    point to the nonempty candidate ``sw[d_side <= k]``.

    A candidate point past a radius lies farther than one within it, so
    each point is searched outward within radii 64, 128, 256, ... until
    one holds a candidate point.  The points share the first radius, up
    to 1024 at a time over the at most 129 side points within it; a
    point that needs more is searched alone, which keeps memory within
    the side window."""
    d = np.empty(points.size, dtype=np.int64)
    for s in range(0, points.size, 1024):
        l, k = points[s : s + 1024], scales[s : s + 1024]
        lo, hi = np.searchsorted(sw, (l - 64, l + 65))
        span = lo[:, None] + np.arange((hi - lo).max())
        at = np.minimum(span, sw.size - 1)
        near = (span < hi[:, None]) & (d_side[at] <= k[:, None])
        dist = np.where(near, np.abs(sw[at] - l[:, None]), ls._FAR)
        d[s : s + 1024] = dist.min(axis=1, initial=ls._FAR)
    for i in np.flatnonzero(d > 64).tolist():
        l, k, r = int(points[i]), int(scales[i]), 64
        while d[i] > r:
            r *= 2
            lo, hi = np.searchsorted(sw, (l - r, l + r + 1))
            d[i] = np.abs(sw[lo:hi][d_side[lo:hi] <= k] - l).min(initial=ls._FAR)
    return d


def _scale_checks(
    lw: np.ndarray,
    field: np.ndarray,
    side_windows: tuple[np.ndarray, np.ndarray],
    scale_budget: int,
    reach: int,
    final: bool,
) -> list[ScaleCheck] | None:
    """The scale checks, side 0 first, from the fields over ``[0, reach]``,
    or None when one of them is not settled there and ``reach`` is not
    the window (``final``).

    A check is settled when its witness ``l`` lies at most ``reach - k``
    and its stored distance ``d`` has ``l + d <= reach``; an empty
    candidate is settled only at the window (see the module docstring).
    At the window, a check with no witness raises
    ``ObstructionBudgetExhausted`` with the checks before it."""
    lw = lw[: np.searchsorted(lw, reach, "right")]
    # no scale past reach + 1 is reached: that check has no guarded witness
    scales = np.arange(min(scale_budget, reach + 1) + 1)
    checks: list[ScaleCheck] = []
    for side, sw in enumerate(side_windows):
        d_side = field[sw]
        to_side = _distances_to(lw, sw) if sw.size else np.full(lw.size, ls._FAR)
        # the scale-k witness is the first pivot point whose running max
        # of distances to the side passes k
        first = np.searchsorted(np.maximum.accumulate(to_side), scales, "right")
        wit = np.append(lw, ls._FAR)[first]
        guarded = wit <= reach - scales
        filled = scales >= (d_side.min() if sw.size else ls._FAR)  # nonempty candidate
        found = guarded & filled
        dist = np.zeros(scales.size, dtype=np.int64)
        dist[found] = _nearest_candidates(sw, d_side, wit[found], scales[found])
        if not final and not (found & (wit + dist <= reach)).all():
            return None
        for k in scales.tolist():
            if not guarded[k]:
                raise ObstructionBudgetExhausted(
                    f"scale check failed: side {side} holds a candidate within "
                    f"{k} of every member point up to the window"
                    if filled[k]
                    else "window too small for the pivot member",
                    checks,
                )
            checks.append(ScaleCheck(k, side, int(wit[k]), int(dist[k]) if filled[k] else None))
    return checks


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
    pivot = members[0]
    half1, half2 = ls.sparsify_split(pivot)
    top = _evidence_top(pivot, window)
    reach = max(min(window, _REACH), top)
    while True:
        lw_pad, field, field1, field2 = ls._sparsify_fields(pivot, reach)
        if field1 is None or field2 is None:
            raise ObstructionBudgetExhausted("window too small for the pivot member")
        side1, side2, side_windows = ls._split_with_windows(half1, half2, field1, field2)
        checks = _scale_checks(lw_pad, field, side_windows, scale_budget, reach, reach == window)
        if checks is not None:
            break
        reach = min(2 * reach, window)
    coverage = ls._split_verdict(field1[: top + 1], field2[: top + 1], window)

    return BunchObstruction(
        family=tuple(members),
        refiner_scale=ls.family_distance(members).value,
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
