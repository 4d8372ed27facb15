"""Exact symbolic subsets of the natural numbers and their Hausdorff geometry.

Three representation tiers:

* ``FiniteSet`` and ``PeriodicSet`` form the exact tier.  A periodic set
  is (finite part + arithmetic progressions) minus a finite removal
  list; membership, emptiness, unions, intersections, max gaps and the
  extended Hausdorff distance are all decidable.
* ``GeometricSet`` and ``BlocksSet`` are enumerator-backed infinite sets
  whose questions are answered at a scale budget, never beyond it.

Every class implements ``window_array(hi)``, the sorted ``int64`` array
of its elements up to ``hi``; it is the one enumerator, and every other
question (least element, point distance, gaps, Hausdorff distance) is
answered from windows.  ``window(hi)`` is its list form.  ``contains``
is the reference: an independent membership rule per class that the
tests check windows against.

The exact Hausdorff distance between two infinite periodic sets uses a
stabilization window: past ``N0`` (the largest irregular coordinate of
either set) both membership patterns repeat with period ``L`` (the lcm
of all steps), and past ``N0 + 2L`` the point-to-set distance functions
repeat with period ``L`` as well, so the supremum over ``[0, N0 + 3L]``
is already the global supremum.  Tests validate this bound against a
brute-force window oracle.

A distance field lists the distances from the points of ``[0, hi]`` to
a set.  ``_distance_field`` scans a padded window for one; the bunch
build path derives its three instead (``_sparsify_fields``): its pivot,
an infinite periodic set, gets its field from one period, and each
sparsify half's field comes from the pivot's.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import gcd, lcm

import numpy as np

from .verdict import TriVerdict


class LineSetError(ValueError):
    """Unsupported operation for a line-set representation tier."""


@dataclass(frozen=True)
class ExtendedDistance:
    """A natural number or infinity."""

    value: int | None  # None encodes infinity

    @classmethod
    def finite(cls, k: int) -> "ExtendedDistance":
        if k < 0:
            raise ValueError("distance must be nonnegative")
        return cls(int(k))

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    def leq(self, k: int) -> bool:
        return self.value is not None and self.value <= k

    def to_json(self) -> int | str:
        return "inf" if self.value is None else self.value

    def __str__(self) -> str:
        return "inf" if self.value is None else str(self.value)


INF = ExtendedDistance(None)


class LineSet:
    """Common interface of all line-set variants."""

    def contains(self, n: int) -> bool:
        raise NotImplementedError

    def window_array(self, hi: int) -> np.ndarray:
        """The elements up to ``hi``, ascending, as an ``int64`` array."""
        raise NotImplementedError

    def is_finite(self) -> bool:
        raise NotImplementedError

    def is_empty(self) -> bool:
        raise NotImplementedError

    def is_exact(self) -> bool:
        """True for the Finite/Periodic tier."""
        return isinstance(self, (FiniteSet, PeriodicSet))

    def window(self, hi: int) -> list[int]:
        if hi < 0:
            raise ValueError("window bound must be nonnegative")
        return self.window_array(hi).tolist()

    def min_element(self) -> int:
        """Least element; raises on an empty set."""
        if self.is_empty():
            raise LineSetError("empty set has no least element")
        hi = 64
        while True:
            win = self.window_array(hi)
            if win.size:
                return int(win[0])
            hi *= 4

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteSet(LineSet):
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(set(int(n) for n in self.elements)))
        if any(n < 0 for n in elems):
            raise ValueError("line sets contain nonnegative integers only")
        object.__setattr__(self, "elements", elems)

    def contains(self, n: int) -> bool:
        i = bisect_left(self.elements, n)
        return i < len(self.elements) and self.elements[i] == n

    def window_array(self, hi: int) -> np.ndarray:
        return np.asarray(self.elements[: bisect_right(self.elements, hi)], dtype=np.int64)

    def is_finite(self) -> bool:
        return True

    def is_empty(self) -> bool:
        return not self.elements

    def to_json(self) -> dict:
        return {"kind": "finite", "elements": list(self.elements)}


@dataclass(frozen=True)
class PeriodicSet(LineSet):
    """(finite part + arithmetic progressions) minus a finite removal list."""

    finite_part: tuple[int, ...] = ()
    progressions: tuple[tuple[int, int], ...] = ()
    removals: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        fin = tuple(sorted(set(int(n) for n in self.finite_part)))
        progs = tuple(sorted(set((int(s), int(p)) for s, p in self.progressions)))
        rem = tuple(sorted(set(int(n) for n in self.removals)))
        if any(n < 0 for n in fin + rem):
            raise ValueError("line sets contain nonnegative integers only")
        for s, p in progs:
            if s < 0 or p < 1:
                raise ValueError(f"bad progression ({s},{p})")
        object.__setattr__(self, "finite_part", fin)
        object.__setattr__(self, "progressions", progs)
        object.__setattr__(self, "removals", rem)
        for r in rem:
            if not self._core_contains(r):
                raise ValueError(f"removal {r} lies outside the set body")

    def _core_contains(self, n: int) -> bool:
        if n in self.finite_part:
            return True
        return any(n >= s and (n - s) % p == 0 for s, p in self.progressions)

    def contains(self, n: int) -> bool:
        if n in self.removals:
            return False
        return self._core_contains(n)

    def window_array(self, hi: int) -> np.ndarray:
        parts = [np.asarray([n for n in self.finite_part if n <= hi], dtype=np.int64)]
        parts += [np.arange(s, hi + 1, p, dtype=np.int64) for s, p in self.progressions]
        parts = [part for part in parts if part.size] or [np.zeros(0, dtype=np.int64)]
        merged = parts[0]  # a single part is sorted and free of repeats already
        if len(parts) > 1:
            # Sort and mask, with no hashing (numpy 2.x's unique hashes).
            merged = np.sort(np.concatenate(parts))
            keep = np.ones(merged.size, dtype=bool)
            keep[1:] = merged[1:] != merged[:-1]
            merged = merged[keep]
        # Every removal lies in the set body: searchsorted finds it.
        removed = [r for r in self.removals if r <= hi]
        return np.delete(merged, np.searchsorted(merged, removed)) if removed else merged

    def is_finite(self) -> bool:
        # removals are finite, so any progression survives them
        return not self.progressions

    def is_empty(self) -> bool:
        if self.progressions:
            return False
        return all(n in self.removals for n in self.finite_part)

    def stabilization_base(self) -> int:
        """N0: all irregularity (finite part, removals, starts) sits at or below it."""
        coords = self.finite_part + self.removals + tuple(s for s, _ in self.progressions)
        return max(coords, default=0)

    def period(self) -> int:
        return lcm(*(p for _, p in self.progressions)) if self.progressions else 1

    def max_gap(self) -> int:
        """Largest difference of consecutive elements; infinite variant only."""
        if self.is_finite():
            raise LineSetError("max gap of a finite set is not defined here")
        n0, per = self.stabilization_base(), self.period()
        return int(np.diff(self.window_array(n0 + 2 * per + 1)).max())

    def to_json(self) -> dict:
        return {
            "kind": "periodic",
            "finite": list(self.finite_part),
            "progressions": [list(ap) for ap in self.progressions],
            "removals": list(self.removals),
        }


@dataclass(frozen=True)
class GeometricSet(LineSet):
    """{m * b**k : k >= k0}; consecutive gaps diverge."""

    m: int = 1
    b: int = 2
    k0: int = 0

    def __post_init__(self) -> None:
        if self.m < 1 or self.b < 2 or self.k0 < 0:
            raise ValueError("need m >= 1, b >= 2, k0 >= 0")

    def contains(self, n: int) -> bool:
        if n < self.m or n % self.m:
            return False
        q = n // self.m
        k = 0
        while q % self.b == 0:
            q //= self.b
            k += 1
        return q == 1 and k >= self.k0

    def window_array(self, hi: int) -> np.ndarray:
        vals = []
        val = self.m * self.b**self.k0
        while val <= hi:
            vals.append(val)
            val *= self.b
        return np.asarray(vals, dtype=np.int64)

    def is_finite(self) -> bool:
        return False

    def is_empty(self) -> bool:
        return False

    def to_json(self) -> dict:
        return {"kind": "geometric", "m": self.m, "b": self.b, "k0": self.k0}


# rule -> (number of ints, number of sets)
BLOCK_RULES = {
    "doubling-blocks": (1, 0),
    "sparsify-half": (1, 1),
    "nearer-side": (1, 2),
    "geometric-offset": (4, 0),
}


@dataclass(frozen=True)
class BlocksSet(LineSet):
    """Enumerator-backed set with a declared gap certificate.

    Rules:

    * ``doubling-blocks`` ints=(width,): runs of ``width`` consecutive
      integers starting at the powers of two.
    * ``sparsify-half`` ints=(side,), sets=(base,): the elements of
      ``base`` whose 1-based enumeration index falls in
      ``[16**j, 2*16**j)`` (side 0) or ``[4*16**j, 8*16**j)`` (side 1);
      the untaken buffer runs between the two sides make their mutual
      distances diverge along either side.
    * ``nearer-side`` ints=(side,), sets=(a, b): naturals n with
      ``d(n, a) >= d(n, b)`` (side 0) or ``d(n, b) >= d(n, a)``
      (side 1); ties belong to both sides.
    * ``geometric-offset`` ints=(m, b, k0, c): ``{m*b**k + c**k : k >= k0}``,
      a companion to ``GeometricSet(m, b, k0)`` whose pointwise offsets
      ``c**k`` diverge.

    ``is_finite`` reports False for every rule: callers must only build
    rules that denote infinite sets (``nearer-side`` halves may be finite
    in degenerate cases, which windowed certificates make visible).
    """

    rule: str
    ints: tuple[int, ...] = ()
    sets: tuple[LineSet, ...] = ()
    gaps: tuple = ("divergent",)

    def __post_init__(self) -> None:
        if self.rule not in BLOCK_RULES:
            raise ValueError(f"unknown block rule {self.rule!r}")
        if self.gaps[0] not in ("divergent", "bounded"):
            raise ValueError(f"bad gap certificate {self.gaps!r}")
        arity, n_sets = BLOCK_RULES[self.rule]
        if len(self.ints) != arity or len(self.sets) != n_sets:
            raise ValueError(f"{self.rule} takes {arity} ints and {n_sets} sets")
        if self.rule == "doubling-blocks" and self.ints[0] < 1:
            raise ValueError("doubling-blocks needs width >= 1")
        if self.rule in ("sparsify-half", "nearer-side") and self.ints[0] not in (0, 1):
            raise ValueError(f"{self.rule} needs side 0 or 1")
        if self.rule == "geometric-offset":
            m, b, k0, c = self.ints
            if m < 1 or b < 2 or k0 < 0 or c < 0:
                raise ValueError("geometric-offset needs m >= 1, b >= 2, k0 >= 0, c >= 0")
            # the step from k to k + 1 is m*b**k*(b - 1) + c**k*(c - 1); with
            # the ranges above it is 0 only at k = 0, c = 0 (0**0 == 1), m*(b - 1) == 1
            if (m, b, k0, c) == (1, 2, 0, 0):
                raise ValueError("geometric-offset (1, 2, 0, 0) repeats the value 2")

    def contains(self, n: int) -> bool:
        if self.rule == "doubling-blocks":
            (width,) = self.ints
            p = 1
            while p <= n:
                if p <= n < p + width:
                    return True
                p *= 2
            return False
        if self.rule == "sparsify-half":
            (side,) = self.ints
            base = self.sets[0].window_array(n)
            # n, if in the base, ends this window: its 1-based index is the size
            return base.size > 0 and int(base[-1]) == n and _sparsify_side(base.size) == side
        if self.rule == "nearer-side":
            (side,) = self.ints
            a, b = self.sets
            da, db = point_distance(a, n), point_distance(b, n)
            return da >= db if side == 0 else db >= da
        if self.rule == "geometric-offset":
            m, b, k0, c = self.ints
            k = k0
            while m * b**k + c**k < n:
                k += 1
            return m * b**k + c**k == n
        raise AssertionError

    def window_array(self, hi: int) -> np.ndarray:
        if self.rule == "doubling-blocks":
            (width,) = self.ints
            runs, end, p = [], 0, 1
            while p <= hi:  # while width > p, a run overlaps the one before it
                runs.append(np.arange(max(p, end), min(p + width, hi + 1), dtype=np.int64))
                end, p = p + width, 2 * p
            return np.concatenate(runs) if runs else np.zeros(0, dtype=np.int64)
        if self.rule == "sparsify-half":
            return _sparsify_take(self.sets[0].window_array(hi), self.ints[0])
        if self.rule == "nearer-side":
            (side,) = self.ints
            a, b = self.sets
            da = _distance_field(_padded_window(a, hi), hi)
            db = _distance_field(_padded_window(b, hi), hi)
            return np.flatnonzero(da >= db if side == 0 else db >= da)
        if self.rule == "geometric-offset":
            m, b, k0, c = self.ints
            vals = []
            k = k0
            while m * b**k + c**k <= hi:
                vals.append(m * b**k + c**k)
                k += 1
            return np.asarray(vals, dtype=np.int64)
        raise AssertionError

    def is_finite(self) -> bool:
        return False

    def is_empty(self) -> bool:
        return False

    def to_json(self) -> dict:
        return {
            "kind": "blocks",
            "rule": self.rule,
            "ints": list(self.ints),
            "sets": [s.to_json() for s in self.sets],
            "gaps": list(self.gaps),
        }


def _sparsify_side(idx: int) -> int | None:
    """Side of a 1-based index: [16^j, 2*16^j) -> 0, [4*16^j, 8*16^j) -> 1, buffer -> None."""
    if idx < 1:
        raise ValueError("enumeration indices start at 1")
    p = 1
    while p * 16 <= idx:
        p *= 16
    if idx < 2 * p:
        return 0
    if 4 * p <= idx < 8 * p:
        return 1
    return None


def _sparsify_runs(n: int, side: int) -> list[tuple[int, int]]:
    """The nonempty runs ``[start, stop)`` of 0-based indices below ``n``
    that ``_sparsify_side`` assigns to side ``side``, ascending."""
    lo, hi = (1, 2) if side == 0 else (4, 8)
    runs, p = [], 1
    while lo * p <= n:
        runs.append((lo * p - 1, min(hi * p - 1, n)))
        p *= 16
    return runs


def _sparsify_take(base: np.ndarray, side: int) -> np.ndarray:
    """The elements of ``base``, a window of a sparsified set, whose 1-based
    index ``_sparsify_side`` assigns to side ``side``."""
    return np.concatenate([base[:0]] + [base[a:b] for a, b in _sparsify_runs(base.size, side)])


def _sparsify_fields(
    base: PeriodicSet, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """For an infinite periodic ``base``: ``_padded_window(base, hi)``, its
    distance field over ``[0, hi]``, and the fields over ``[0, hi]`` of
    ``_padded_window(h, hi)`` for both halves ``h`` of
    ``sparsify_split(base)`` (None where that window is empty).

    A half's window is ``_sparsify_take`` of one window of ``base``, a
    union of index runs; only the run ends outlive that window, which is
    freed before any field is built.
    """
    tops = [hi + _cushion(s, hi) for s in (*sparsify_split(base), base)]
    full = base.window_array(max(tops))
    cut1, cut2, cut_base = np.searchsorted(full, tops, "right").tolist()
    runs = [
        [(int(full[a]), int(full[b - 1])) for a, b in _sparsify_runs(cut, side)]
        for side, cut in ((0, cut1), (1, cut2))
    ]
    window = full[:cut_base].copy()
    del full
    field = _periodic_field(base, hi)
    halves = [_runs_field(field, r, hi) if r else None for r in runs]
    return window, field, halves[0], halves[1]


def _need(doc: dict, key: str):
    """``doc[key]``; a missing key is a ``LineSetError`` naming it."""
    if key not in doc:
        raise LineSetError(f"{doc.get('kind')} set has no {key!r}")
    return doc[key]


def lineset_from_json(doc: dict) -> LineSet:
    kind = doc.get("kind")
    if kind == "finite":
        return FiniteSet(tuple(_need(doc, "elements")))
    if kind == "periodic":
        return PeriodicSet(
            tuple(doc.get("finite", ())),
            tuple(tuple(ap) for ap in doc.get("progressions", ())),
            tuple(doc.get("removals", ())),
        )
    if kind == "geometric":
        return GeometricSet(_need(doc, "m"), _need(doc, "b"), _need(doc, "k0"))
    if kind == "blocks":
        return BlocksSet(
            _need(doc, "rule"),
            tuple(doc.get("ints", ())),
            tuple(lineset_from_json(s) for s in doc.get("sets", ())),
            tuple(doc.get("gaps", ("divergent",))),
        )
    raise ValueError(f"unknown line-set kind {kind!r}")


def naturals() -> PeriodicSet:
    return PeriodicSet(progressions=((0, 1),))


def arithmetic(start: int, step: int) -> PeriodicSet:
    return PeriodicSet(progressions=((start, step),))


def evens() -> PeriodicSet:
    return arithmetic(0, 2)


def odds() -> PeriodicSet:
    return arithmetic(1, 2)


# ---------------------------------------------------------------------------
# Point distances
# ---------------------------------------------------------------------------


def _cushion(s: LineSet, around: int) -> int:
    """Window padding that guarantees a right-neighbor for any point <= window top."""
    if isinstance(s, PeriodicSet) and not s.is_finite():
        return s.stabilization_base() + 2 * s.period() + 1
    if isinstance(s, GeometricSet):
        return max(around * (s.b - 1) + s.m * s.b ** (s.k0 + 1), 4)
    # enumerator rules: pad generously and let callers re-pad on demand
    return max(4 * around + 64, 64)


def point_distance(s: LineSet, n: int) -> int:
    """Exact distance from point ``n`` to the nonempty set ``s``.

    The window grows until it reaches ``n``.  A finite set's window may
    end below ``n``: its cushion is at least ``n``, so any element past
    the window lies farther from ``n`` than the window's last one.
    """
    if s.is_empty():
        raise LineSetError("distance to the empty set is undefined")
    hi = n + _cushion(s, n)
    while True:
        win = s.window_array(hi)
        if win.size and (win[-1] >= n or s.is_finite()):
            return int(_distances_to(np.asarray([n], dtype=np.int64), win)[0])
        if hi > (1 << 42):
            raise LineSetError(f"enumerator produced no element near {n}")
        hi = 4 * hi + 64


def _distances_to(points: np.ndarray, sorted_elems: np.ndarray) -> np.ndarray:
    """Distance from each point to a nonempty sorted array (right side must be padded)."""
    if sorted_elems.size == 0:
        raise LineSetError("distance to the empty set is undefined")
    idx = np.searchsorted(sorted_elems, points)
    right = sorted_elems[np.minimum(idx, sorted_elems.size - 1)]
    left = sorted_elems[np.maximum(idx - 1, 0)]
    d_right = np.abs(right - points)
    d_left = np.abs(points - left)
    return np.minimum(d_right, d_left)


def _padded_window(s: LineSet, hi: int) -> np.ndarray:
    """The window of ``s`` over ``[0, hi]`` plus its cushion, or all of a finite
    ``s``: enough to measure distances from the points of ``[0, hi]``."""
    return s.window_array(1 << 62 if s.is_finite() else hi + _cushion(s, hi))


_FAR = 1 << 62  # beyond every window: a missing neighbour


def _distance_field(elems: np.ndarray, hi: int) -> np.ndarray:
    """``_distances_to(np.arange(hi + 1), elems)`` in linear time, for a
    nonempty sorted ``elems``.

    The points are the consecutive integers of ``[0, hi]``, so the left
    neighbour of each is a running max of the elements at or below it,
    and its right neighbour a running min, taken from the right, of the
    elements at or above it; the first element past ``hi`` seeds the
    right end.  A point with no neighbour on one side reads ``_FAR``
    there.  Nothing beyond ``[0, hi]`` is built.
    """
    if elems.size == 0:
        raise LineSetError("distance to the empty set is undefined")
    cut = int(np.searchsorted(elems, hi, "right"))
    inside = elems[:cut]
    left = np.full(hi + 1, -_FAR, dtype=np.int64)
    left[inside] = inside
    np.maximum.accumulate(left, out=left)
    right = np.full(hi + 1, _FAR, dtype=np.int64)
    right[inside] = inside
    if cut < elems.size:
        right[hi] = min(right[hi], elems[cut])
    rev = right[::-1]
    np.minimum.accumulate(rev, out=rev)
    pts = np.arange(hi + 1, dtype=np.int64)
    np.subtract(pts, left, out=left)
    np.subtract(right, pts, out=right)
    return np.minimum(left, right, out=left)


def _periodic_field(s: PeriodicSet, hi: int) -> np.ndarray:
    """``_distance_field(_padded_window(s, hi), hi)`` for an infinite
    periodic ``s``, built exactly up to ``N0 + 2L`` only.

    Past ``N0`` membership repeats with period ``L``, and every ``L``
    consecutive integers there hold an element.  So from ``N0 + L`` on,
    both nearest elements of a point lie within ``L`` of it and above
    ``N0``, and the field repeats with period ``L``: past ``N0 + 2L`` it
    is ``field[N0 + L : N0 + 2L]`` tiled.
    """
    n0, per = s.stabilization_base(), s.period()
    head = n0 + 2 * per
    if hi <= head:
        return _distance_field(_padded_window(s, hi), hi)
    field = np.empty(hi + 1, dtype=np.int64)
    field[:head] = _distance_field(_padded_window(s, head), head)[:head]
    body = field[n0 + per :]
    body[:] = np.tile(body[:per], body.size // per + 1)[: body.size]
    return field


def _runs_field(field: np.ndarray, runs: list[tuple[int, int]], hi: int) -> np.ndarray:
    """``_distance_field`` over ``[0, hi]`` of some index runs of a sorted
    array, given each run's first and last element, ascending, and the
    array's exact ``field``.

    Between a run's ends a point's nearest elements are the array's, so
    its distance is ``field``'s; in a gap between runs they are the run
    end before the gap, up to its midpoint, and the run start after it."""
    out = field.copy()
    ends = [-_FAR] + [last for _, last in runs]  # the run end before each gap
    starts = [first for first, _ in runs] + [_FAR]  # the run start after it
    for prev, nxt in zip(ends, starts):
        lo, top = max(prev + 1, 0), min(nxt - 1, hi)
        if lo > hi:
            break
        mid = min(max((prev + nxt) // 2, lo - 1), top)
        out[lo : mid + 1] = np.arange(lo - prev, mid + 1 - prev)
        out[mid + 1 : top + 1] = np.arange(nxt - mid - 1, nxt - top - 1, -1)
    return out


def _last_within(dists: np.ndarray, keep: np.ndarray, scales) -> np.ndarray:
    """For each scale ``k``, the last index ``i`` with ``keep[i]`` and
    ``dists[i] <= k``, or -1.

    Only the kept indices within the largest scale can answer.  Over
    them, the running min of the distances taken from the right is
    nondecreasing, and its entries at most ``k`` are exactly those up to
    the answer."""
    idx = np.flatnonzero(keep & (dists <= max(scales, default=-1)))
    tail_min = np.minimum.accumulate(dists[idx][::-1])[::-1]
    pos = np.searchsorted(tail_min, scales, "right") - 1
    return np.append(idx, -1)[pos]  # a position of -1 reads the appended -1


# ---------------------------------------------------------------------------
# Exact Hausdorff distance (Finite/Periodic tier)
# ---------------------------------------------------------------------------


def hausdorff_distance(a: LineSet, b: LineSet) -> ExtendedDistance:
    """Exact extended Hausdorff distance between nonempty exact-tier sets."""
    return _exact_distance(a, b)[0]


def family_distance(sets) -> ExtendedDistance:
    """Largest exact Hausdorff distance between two members of a family of
    nonempty exact-tier sets; infinite at the first pair infinitely apart."""
    worst = 0
    for a, b in itertools.combinations(sets, 2):
        d = hausdorff_distance(a, b)
        if d.is_infinite:
            return INF
        worst = max(worst, d.value)
    return ExtendedDistance.finite(worst)


def _exact_distance(a: LineSet, b: LineSet) -> tuple[ExtendedDistance, list | None]:
    """``hausdorff_distance(a, b)``, and the ``_directed_distances`` it was
    read from (None where it is infinite)."""
    if not (a.is_exact() and b.is_exact()):
        raise LineSetError("exact distance needs Finite/Periodic sets; use hausdorff_at_scale")
    if a.is_empty() or b.is_empty():
        raise LineSetError("Hausdorff distance to the empty set is undefined")
    if a.is_finite() != b.is_finite():
        return INF, None
    directed = _directed_distances(a, b)
    return ExtendedDistance.finite(max(int(d.max()) for _, d in directed)), directed


def _directed_distances(a: LineSet, b: LineSet) -> list[tuple[np.ndarray, np.ndarray]]:
    """For nonempty exact-tier sets, both finite or both infinite: the points
    of ``a`` up to the top with their distances to ``b``, and the mirror.

    Finite sets are taken whole.  Infinite sets are scanned up to the
    stabilization top ``N0 + 3L``, cut from one window per set that is
    padded by ``N0 + 2L + 1`` to hold every scanned point's neighbours.
    """
    if a.is_finite():
        top = ext = 1 << 62
    else:
        n0 = max(a.stabilization_base(), b.stabilization_base())
        per = lcm(a.period(), b.period())
        top = n0 + 3 * per
        ext = top + n0 + 2 * per + 1
    wa, wb = a.window_array(ext), b.window_array(ext)
    pa = wa[: np.searchsorted(wa, top, "right")]
    pb = wb[: np.searchsorted(wb, top, "right")]
    return [(pa, _distances_to(pa, wb)), (pb, _distances_to(pb, wa))]


def hausdorff_at_scale(a: LineSet, b: LineSet, k: int, hi: int) -> TriVerdict:
    """Scale-k decision: is the Hausdorff distance at most k?

    Exact-tier pairs delegate to the exact engine.  Otherwise a window
    scan looks for a point of one set, at most ``hi - k``, farther than
    ``k`` from the other set; absence of such a point is only Unknown.
    """
    if hi < k:
        raise ValueError("window must be at least the scale")
    if a.is_exact() and b.is_exact():
        d, directed = _exact_distance(a, b)
        if d.leq(k):
            return TriVerdict.yes(distance=d.value)
        point, side = _far_point(a, b, k, directed)
        return TriVerdict.no(point=point, side=side, scale=k)
    wins = (a.window_array(hi), b.window_array(hi))
    for side in (0, 1):
        swin, twin = wins[side], wins[1 - side]
        if twin.size == 0:
            if swin.size:
                return TriVerdict.no(point=int(swin[0]), side=side, scale=k)
            continue
        scan = swin[swin <= hi - k]
        if scan.size == 0:
            continue
        dists = _distances_to(scan, twin)
        bad = np.nonzero(dists > k)[0]
        if bad.size:
            return TriVerdict.no(point=int(scan[bad[0]]), side=side, scale=k)
    return TriVerdict.unknown(budget=hi, scale=k)


def _far_point(a: LineSet, b: LineSet, k: int, directed: list | None) -> tuple[int, int]:
    """A concrete witness point at distance > k, for an exact-tier pair known
    > k, whose ``_exact_distance`` read ``directed``."""
    fa = a.is_finite()
    if directed is None:
        inf_side, fin_side = (b, a) if fa else (a, b)
        top = int(fin_side.window_array(1 << 62)[-1]) + k + 1
        hi = max(2 * top, 64)
        while True:
            win = inf_side.window_array(hi)
            far = win[win >= top]
            if far.size:
                return int(far[0]), 1 if fa else 0
            hi *= 4
    for side, (points, dists) in enumerate(directed):
        far = np.flatnonzero(dists > k)
        if far.size:
            return int(points[far[0]]), side
    raise AssertionError("no witness found although distance exceeds the scale")


# ---------------------------------------------------------------------------
# Gap certificates and the splitting constructions
# ---------------------------------------------------------------------------


def verify_gap_certificate(s: LineSet, g: int, hi: int) -> TriVerdict:
    """Evidence that consecutive gaps of ``s`` exceed ``g``.

    Exact No is available for infinite periodic sets, whose maximal gap
    is computable from one period.
    """
    if s.is_finite():
        raise LineSetError("gap certificates concern infinite sets")
    exact = isinstance(s, PeriodicSet)
    if exact:  # the window of max_gap holds every gap of the set
        hi = s.stabilization_base() + 2 * s.period() + 1
    elems = s.window_array(hi)
    gaps = np.diff(elems)
    wide = np.flatnonzero(gaps > g)
    if wide.size:
        i = wide[0]
        return TriVerdict.yes(pair=(int(elems[i]), int(elems[i + 1])), gap=int(gaps[i]))
    if exact:
        return TriVerdict.no(max_gap=int(gaps.max()), threshold=g)
    return TriVerdict.unknown(budget=hi, threshold=g)


def sparsify_split(l: LineSet) -> tuple[BlocksSet, BlocksSet]:
    """Two infinite subsets of ``l`` whose mutual distances diverge.

    The 1-based enumeration of ``l`` is cut into runs: indices in
    [16^j, 2*16^j) feed the first part, indices in [4*16^j, 8*16^j) the
    second, and the runs in between stay unused.  Each part gets
    infinitely many, ever longer runs, and any element of one part is
    separated from the other part by an untaken index run of length at
    least 2*16^(j-1); since the base enumeration is strictly
    increasing, the corresponding distances diverge along either part.
    """
    if l.is_finite():
        raise LineSetError("cannot sparsify a finite set")
    left = BlocksSet("sparsify-half", (0,), (l,), ("divergent",))
    right = BlocksSet("sparsify-half", (1,), (l,), ("divergent",))
    return left, right


def normality_split(
    a: LineSet, b: LineSet, hi: int, scales: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
) -> tuple[BlocksSet, BlocksSet, TriVerdict]:
    """Split the line into a side far from ``a`` and a side far from ``b``.

    ``x1`` holds the naturals at least as far from ``a`` as from ``b``,
    ``x2`` the mirror image; ties belong to both, so the two sides cover
    the line.  The verdict confirms coverage on ``[0, hi]`` and attaches,
    for each scale ``k``, the last window point of ``x1`` within ``k``
    of ``a`` and of ``x2`` within ``k`` of ``b``, the raw evidence for
    judging scale-``k`` disjointness of each side from its far set.
    """
    da = _distance_field(_padded_window(a, hi), hi)
    db = _distance_field(_padded_window(b, hi), hi)
    x1, x2, _ = _split_with_windows(a, b, da, db)
    return x1, x2, _split_verdict(da, db, hi, scales)


def _split_with_windows(
    a: LineSet, b: LineSet, da: np.ndarray, db: np.ndarray
) -> tuple[BlocksSet, BlocksSet, tuple[np.ndarray, np.ndarray]]:
    """``normality_split``'s sides, and their windows over the range of
    the distance fields ``da`` and ``db`` of ``a`` and ``b``, taken from
    those fields.

    Every point has ``da >= db`` or ``db >= da``, so the sides always
    cover the line; this is why ``BunchObstruction.revalidate`` need not
    check the coverage of sides that equal ``x1`` and ``x2``."""
    x1 = BlocksSet("nearer-side", (0,), (a, b), ("divergent",))
    x2 = BlocksSet("nearer-side", (1,), (a, b), ("divergent",))
    return x1, x2, (np.flatnonzero(da >= db), np.flatnonzero(db >= da))


def _split_verdict(
    da: np.ndarray, db: np.ndarray, hi: int, scales: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
) -> TriVerdict:
    """``normality_split``'s verdict for ``[0, hi]``, its evidence read
    from the distance fields ``da`` and ``db``.  They may stop short of
    ``hi`` where no point past them can be evidence.  The verdict is
    always Yes: the sides always cover the line."""
    last_a = _last_within(da, da >= db, scales).tolist()
    last_b = _last_within(db, db >= da, scales).tolist()
    evidence = [
        {"scale": k, "last_near_a": la, "last_near_b": lb}
        for k, la, lb in zip(scales, last_a, last_b)
    ]
    return TriVerdict.yes(window=hi, scales=evidence)


# ---------------------------------------------------------------------------
# Exact-tier set algebra
# ---------------------------------------------------------------------------


def _as_periodic(s: LineSet) -> PeriodicSet:
    if isinstance(s, PeriodicSet):
        return s
    if isinstance(s, FiniteSet):
        return PeriodicSet(finite_part=s.elements)
    raise LineSetError("set algebra is exact-tier only")


def _crt_progressions(ap1: tuple[int, int], ap2: tuple[int, int]) -> tuple[int, int] | None:
    (s1, p1), (s2, p2) = ap1, ap2
    g = gcd(p1, p2)
    if (s2 - s1) % g:
        return None
    step = lcm(p1, p2)
    m = p2 // g
    t = 0 if m == 1 else ((s2 - s1) // g * pow(p1 // g, -1, m)) % m
    x = s1 + p1 * t
    lo = max(s1, s2)
    if x < lo:
        x += (lo - x + step - 1) // step * step
    return x, step


def union(a: LineSet, b: LineSet) -> PeriodicSet:
    pa, pb = _as_periodic(a), _as_periodic(b)
    removals = tuple(r for r in pa.removals if not pb.contains(r)) + tuple(
        r for r in pb.removals if not pa.contains(r)
    )
    return PeriodicSet(
        pa.finite_part + pb.finite_part,
        pa.progressions + pb.progressions,
        removals,
    )


def intersection(a: LineSet, b: LineSet) -> PeriodicSet:
    pa, pb = _as_periodic(a), _as_periodic(b)
    finite = tuple(n for n in pa.finite_part if pb._core_contains(n)) + tuple(
        n for n in pb.finite_part if pa._core_contains(n)
    )
    progs = []
    for ap1 in pa.progressions:
        for ap2 in pb.progressions:
            hit = _crt_progressions(ap1, ap2)
            if hit is not None:
                progs.append(hit)
    body = PeriodicSet(finite, tuple(progs))
    removals = tuple(r for r in set(pa.removals + pb.removals) if body._core_contains(r))
    return PeriodicSet(finite, tuple(progs), removals)


def intersection_all(sets: list[LineSet]) -> PeriodicSet:
    if not sets:
        raise ValueError("intersection of no sets is undefined")
    acc = _as_periodic(sets[0])
    for s in sets[1:]:
        acc = intersection(acc, s)
    return acc


def is_subset(a: LineSet, b: LineSet) -> bool:
    """Exact-tier containment test."""
    pa, pb = _as_periodic(a), _as_periodic(b)
    n0 = max(pa.stabilization_base(), pb.stabilization_base())
    per = lcm(pa.period(), pb.period())
    return all(pb.contains(n) for n in pa.window(n0 + 2 * per))


def diameter(s: LineSet) -> ExtendedDistance:
    if not s.is_finite():
        return INF
    elems = s.window_array(1 << 62)
    return ExtendedDistance.finite(int(elems[-1] - elems[0]) if elems.size else 0)
