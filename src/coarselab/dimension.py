"""Covers, uniform boundedness, refinement, and asymptotic dimension.

Uniform boundedness follows the transversal definition: a family is
uniformly bounded when, for every nonempty subfamily, the collection of
sets inside the subfamily's union that meet each of its members is
alike at large scale.  Per-backend decision procedures replace the raw
definition where a proposition licenses it (bounded diameters on the
metric line, finite members with finite point-stars for the
one-point-compactification trace); both shortcuts are validated against
windowed brute force in the test suite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _bitops as bo
from . import lineset as ls
from .backends import (
    FiniteBackend,
    LSRBackend,
    MetricLineBackend,
    TopoTraceBackend,
)
from .setcore import CapExceeded, Family, Subset, Universe
from .structures import _alike, _first
from .verdict import TriVerdict

TRANSVERSAL_UNION_CAP = 12
UB_FAMILY_CAP = 8

RULE_NAMES = ("adjacent-pairs", "i-to-2i", "singletons")


@dataclass(frozen=True)
class Cover:
    """Finite member list (explicit subsets or line sets) or an indexed
    rule family on the positive naturals."""

    domain: str  # "explicit" | "nat-line"
    subsets: tuple[Subset, ...] = ()
    line_members: tuple[ls.LineSet, ...] = ()
    rule: str | None = None

    @classmethod
    def explicit(cls, subsets: Iterable[Subset]) -> "Cover":
        subs = tuple(subsets)
        if not subs:
            raise ValueError("cover needs members")
        if any(s.is_empty for s in subs):
            raise ValueError("cover members must be nonempty")
        return cls("explicit", subsets=subs)

    @classmethod
    def of_line_sets(cls, members: Iterable[ls.LineSet]) -> "Cover":
        mem = tuple(members)
        if not mem or any(s.is_empty() for s in mem):
            raise ValueError("cover needs nonempty members")
        return cls("nat-line", line_members=mem)

    @classmethod
    def from_rule(cls, rule: str) -> "Cover":
        if rule not in RULE_NAMES:
            raise ValueError(f"unknown cover rule {rule!r}")
        return cls("nat-line", rule=rule)

    def window_members(self, n: int) -> list[frozenset[int]]:
        """Members instantiated on the window [1, n], deterministic order."""
        if self.domain != "nat-line":
            raise ValueError("window instantiation is for line covers")
        if self.rule == "adjacent-pairs":
            return [frozenset((i, i + 1)) for i in range(1, n)]
        if self.rule == "i-to-2i":
            return [frozenset(range(i, min(2 * i, n) + 1)) for i in range(1, n + 1)]
        if self.rule == "singletons":
            return [frozenset((i,)) for i in range(1, n + 1)]
        out = []
        for s in self.line_members:
            pts = frozenset(x for x in s.window(n) if x >= 1)
            if pts:
                out.append(pts)
        return out

    def covers_window(self, n: int) -> bool:
        seen: set[int] = set()
        for m in self.window_members(n):
            seen.update(m)
        return set(range(1, n + 1)) <= seen


@dataclass(frozen=True)
class CoarseningCertificate:
    window: int
    intervals: tuple[tuple[int, int], ...]
    refinement_map: tuple[int, ...]  # member index -> interval index
    multiplicity: int
    multiplicity_witness: int  # a point attaining it
    boundedness_evidence: dict

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "intervals": [list(iv) for iv in self.intervals],
            "refinement_map": list(self.refinement_map),
            "multiplicity": self.multiplicity,
            "multiplicity_witness": self.multiplicity_witness,
            "boundedness_evidence": dict(self.boundedness_evidence),
        }


# ---------------------------------------------------------------------------
# Transversal families (explicit)
# ---------------------------------------------------------------------------


def transversal_family(v: Sequence[Subset]) -> Family:
    """Sets inside the union of ``v`` meeting every member of ``v``."""
    if not v:
        raise ValueError("transversal family of the empty subfamily")
    universe = v[0].universe
    union = 0
    for s in v:
        union |= s.mask
    if union.bit_count() > TRANSVERSAL_UNION_CAP:
        raise CapExceeded(f"transversal union exceeds {TRANSVERSAL_UNION_CAP} points")
    out = []
    for a in bo.submasks(union):
        if all(a & s.mask for s in v):
            out.append(a)
    return Family.from_masks(universe, out)


# ---------------------------------------------------------------------------
# Uniform boundedness
# ---------------------------------------------------------------------------


def is_uniformly_bounded(u: Cover, b: LSRBackend) -> TriVerdict:
    if u.domain == "explicit" and isinstance(b, FiniteBackend):
        return _ub_explicit(u, b)
    if u.domain == "nat-line" and isinstance(b, MetricLineBackend):
        return _ub_metric(u)
    if u.domain == "nat-line" and isinstance(b, TopoTraceBackend):
        return _ub_topo(u)
    raise ValueError("unsupported cover/backend pairing")


def _ub_explicit(u: Cover, b: FiniteBackend) -> TriVerdict:
    members = u.subsets
    if len(members) > UB_FAMILY_CAP:
        raise CapExceeded(f"uniform boundedness enumerates up to {UB_FAMILY_CAP} members")
    table = b.member_table()
    for r in range(1, len(members) + 1):
        for v in itertools.combinations(members, r):
            fam = transversal_family(v)
            if not table[fam.mask_key()]:
                return TriVerdict.no(
                    subfamily=[str(s) for s in v], transversal=str(fam)
                )
    return TriVerdict.yes(subfamilies=(1 << len(members)) - 1)


def _ub_metric(u: Cover) -> TriVerdict:
    if u.rule == "adjacent-pairs":
        return TriVerdict.yes(diameter_bound=1)
    if u.rule == "singletons":
        return TriVerdict.yes(diameter_bound=0)
    if u.rule == "i-to-2i":
        return TriVerdict.no(reason="diameters diverge", example_member=[100, 200])
    worst = 0
    for s in u.line_members:
        d = ls.diameter(s)
        if d.is_infinite:
            return TriVerdict.no(reason="infinite member", member=s.to_json())
        worst = max(worst, d.value)
    return TriVerdict.yes(diameter_bound=worst)


def _ub_topo(u: Cover) -> TriVerdict:
    if u.rule == "adjacent-pairs":
        return TriVerdict.yes(members="finite", star_bound=2)
    if u.rule == "singletons":
        return TriVerdict.yes(members="finite", star_bound=1)
    if u.rule == "i-to-2i":
        # the point x lies in the members indexed ceil(x/2)..x
        return TriVerdict.yes(members="finite", star_bound="x - ceil(x/2) + 1 at x")
    for s in u.line_members:
        if not s.is_finite():
            return TriVerdict.no(reason="infinite member", member=s.to_json())
    return TriVerdict.yes(members="finite", star_bound=len(u.line_members))


def asr_uniformly_bounded(asr, members: Sequence[Subset]) -> tuple[bool, dict | None]:
    """Uniform boundedness against a subset equivalence: whenever two
    sets mutually sit inside the family's self-product image of each
    other, they must be alike."""
    universe = members[0].universe
    n = universe.size
    rows = [0] * n
    for s in members:
        for i in bo.bits(s.mask):
            rows[i] |= s.mask

    image, masks = bo.fold_or(n, rows), np.arange(1 << n)
    inside = masks & ~image[:, None] == 0  # [b, a]: a lies inside the image of b
    bad = _first(inside.T & inside & ~_alike(asr))
    if bad is None:
        return True, None
    left, right = (str(Subset(universe, x)) for x in bad)
    return False, {"left": left, "right": right}


# ---------------------------------------------------------------------------
# Multiplicity and refinement
# ---------------------------------------------------------------------------


def multiplicity(u: Cover, universe: Universe | None = None, window: int | None = None) -> tuple[int, int]:
    """Maximal point incidence and a point attaining it."""
    if u.domain == "explicit":
        if universe is None:
            universe = u.subsets[0].universe
        best, best_pt = 0, 0
        for x in range(universe.size):
            count = sum(1 for s in u.subsets if s.mask >> x & 1)
            if count > best:
                best, best_pt = count, x
        return best, best_pt
    if window is None:
        raise ValueError("line covers need a window for multiplicity")
    members = u.window_members(window)
    counts = np.zeros(window + 2, dtype=np.int64)
    for m in members:
        for x in m:
            if x <= window + 1:
                counts[x] += 1
    best_pt = int(np.argmax(counts[: window + 1]))
    return int(counts[best_pt]), best_pt


def refines(u: Cover, v: Cover, window: int | None = None):
    """Does every member of ``u`` fit inside a member of ``v``?
    Returns (True, map) or (False, counterexample member)."""
    if u.domain == "explicit":
        mapping = []
        for s in u.subsets:
            target = next(
                (j for j, t in enumerate(v.subsets) if s.mask & ~t.mask == 0), None
            )
            if target is None:
                return False, str(s)
            mapping.append(target)
        return True, tuple(mapping)
    if window is None:
        raise ValueError("line covers need a window for refinement checks")
    vm = v.window_members(window)
    mapping = []
    for m in u.window_members(window):
        target = next((j for j, t in enumerate(vm) if m <= t), None)
        if target is None:
            return False, sorted(m)
        mapping.append(target)
    return True, tuple(mapping)


# ---------------------------------------------------------------------------
# Greedy interval coarsening
# ---------------------------------------------------------------------------


def greedy_interval_coarsen(u: Cover, window: int) -> tuple[Cover, CoarseningCertificate]:
    """Coarsen a finite-star cover of [1, window] into overlapping
    intervals of multiplicity at most two.

    Walks the anchor sequence: the first anchor is 1; the next is the
    largest point sharing a member with anything at most one past the
    current anchor.  Consecutive anchors delimit the intervals.
    """
    members = u.window_members(window)
    if not u.covers_window(window):
        raise ValueError(f"not a cover of [1, {window}]")
    reach = {}
    for m in members:
        top = max(m)
        for x in m:
            reach[x] = max(reach.get(x, x), top)
    anchors = [1]
    while anchors[-1] < window:
        frontier = anchors[-1] + 1
        nxt = max(reach.get(x, 0) for x in range(1, frontier + 1) if x in reach)
        nxt = max(nxt, frontier)
        anchors.append(nxt)
    if len(anchors) == 1:
        intervals = [(1, 1)]
    else:
        intervals = [(1, anchors[1])]
        for i in range(1, len(anchors) - 1):
            intervals.append((anchors[i - 1] + 1, anchors[i + 1]))
    intervals = [(lo, min(hi, window)) for lo, hi in intervals if lo <= window]

    cover_v = Cover.of_line_sets(
        [ls.FiniteSet(tuple(range(lo, hi + 1))) for lo, hi in intervals]
    )
    ok, mapping = refines(u, cover_v, window=window)
    if not ok:
        raise AssertionError(f"member {mapping} escaped the interval cover")
    mult, witness = multiplicity(cover_v, window=window)
    if mult > 2:
        raise AssertionError("interval cover multiplicity exceeded two")
    evidence = {
        "all_members_finite": True,
        "star_bound": 2,
        "interval_count": len(intervals),
    }
    cert = CoarseningCertificate(
        window=window,
        intervals=tuple(intervals),
        refinement_map=tuple(mapping),
        multiplicity=mult,
        multiplicity_witness=witness,
        boundedness_evidence=evidence,
    )
    return cover_v, cert


# ---------------------------------------------------------------------------
# Asymptotic dimension, explicit backends
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsdimCertificate:
    cover: tuple[str, ...]
    coarsening: tuple[str, ...]
    refinement_map: tuple[int, ...]
    multiplicity: int


@dataclass(frozen=True)
class AsdimReport:
    value: int
    uniformly_bounded_covers: int
    certificates: tuple[AsdimCertificate, ...]

    def to_json(self) -> dict:
        return {
            "asdim": self.value,
            "uniformly_bounded_covers": self.uniformly_bounded_covers,
            "certificates": [
                {
                    "cover": list(c.cover),
                    "coarsening": list(c.coarsening),
                    "refinement_map": list(c.refinement_map),
                    "multiplicity": c.multiplicity,
                }
                for c in self.certificates
            ],
        }


def asdim_explicit(b: FiniteBackend) -> AsdimReport:
    """Least n such that every uniformly bounded cover refines a
    uniformly bounded cover of multiplicity at most n + 1.

    Fully exhaustive over all covers by nonempty subsets: the
    transversal table is vectorized over all subfamilies, uniform
    boundedness is the subset-and sweep of that table, and it suffices
    to test refinement for maximal uniformly bounded covers.
    """
    universe = b.universe
    m = 1 << universe.size
    slots = m - 1
    tkey, is_cover, down, mult = _universe_tables(universe.size)

    t_ok = b.member_table()[tkey]
    t_ok[0] = True  # empty subfamily is outside the quantifier

    ub = ~bo.or_has_submask(~t_ok, slots)
    ub_covers = ub & is_cover

    maximal = bo.maximal_keys(ub, slots) & is_cover
    maximal_list = [int(k) for k in np.nonzero(maximal)[0]]

    def fam_names(cover_key: int) -> tuple[str, ...]:
        return tuple(
            str(Subset(universe, s)) for s in range(1, m) if cover_key >> (s - 1) & 1
        )

    total_ub_covers = int(np.count_nonzero(ub_covers))
    max_mult = int(mult[ub_covers].max()) if total_ub_covers else 1
    for n in range(0, max(max_mult, 1)):
        cand = ub_covers & (mult <= n + 1)
        cand_downs = [int(d) for d in np.unique(down[cand])]
        certs = []
        good = True
        for cover_key in maximal_list:
            target_down = next((d for d in cand_downs if cover_key & ~d == 0), None)
            if target_down is None:
                good = False
                break
            cand_keys = np.nonzero(cand & (down == target_down))[0]
            chosen = int(cand_keys[0])
            members_u = [s for s in range(1, m) if cover_key >> (s - 1) & 1]
            members_v = [s for s in range(1, m) if chosen >> (s - 1) & 1]
            mapping = tuple(
                next(j for j, t in enumerate(members_v) if s & ~t == 0)
                for s in members_u
            )
            certs.append(
                AsdimCertificate(
                    cover=fam_names(cover_key),
                    coarsening=fam_names(chosen),
                    refinement_map=mapping,
                    multiplicity=int(mult[chosen]),
                )
            )
        if good:
            return AsdimReport(n, total_ub_covers, tuple(certs))
    raise AssertionError("a uniformly bounded cover refines itself; unreachable")


@functools.lru_cache(maxsize=None)
def _universe_tables(n_pts: int) -> tuple[np.ndarray, ...]:
    """The tables of ``asdim_explicit`` that depend on the universe size
    alone, indexed by subfamily key F over the 2^n - 1 nonempty subsets
    (bit s-1 for subset mask s), read-only and in the narrowest dtypes
    that hold them:

    - tkey[F]: key of the nonempty sets inside F's union that meet every
      member of F;
    - is_cover[F]: F's union is the whole universe;
    - down[F]: key of the subfamily of every nonempty subset of a member;
    - mult[F]: the most members of F that one point lies in, at most
      2^(n-1).
    """
    m = 1 << n_pts
    slots = m - 1
    union = bo.fold_or(slots, list(range(1, m)))

    meets = [sum(1 << a for a in range(1, m) if a & s) for s in range(1, m)]
    inside = np.array([sum(1 << a for a in bo.submasks(u) if a) for u in range(m)])
    tkey = bo.fold_and(slots, meets, (1 << m) - 2) & inside[union]

    sub_bits = [
        sum(1 << (a - 1) for a in range(1, m) if a & ~s == 0) for s in range(1, m)
    ]
    down = bo.fold_or(slots, sub_bits)

    idx = np.arange(1 << slots, dtype=np.int64)
    mult = np.zeros(1 << slots, dtype=np.int64)
    for x in range(n_pts):
        contain = sum(1 << (s - 1) for s in range(1, m) if s >> x & 1)
        mult = np.maximum(mult, np.bitwise_count(idx & contain))

    tables = (
        tkey.astype(np.min_scalar_type((1 << m) - 1)),
        union == m - 1,
        down.astype(np.min_scalar_type((1 << slots) - 1)),
        mult.astype(np.min_scalar_type(1 << (n_pts - 1))),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


# ---------------------------------------------------------------------------
# Asymptotic dimension of the trace structure on the line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopoLineRow:
    window: int
    interval_count: int
    multiplicity: int
    uniformly_bounded: bool
    mult1_forced_member_size: int


@dataclass(frozen=True)
class TopoLineReport:
    rows: tuple[TopoLineRow, ...]

    @property
    def certified(self) -> bool:
        return all(
            r.multiplicity == 2
            and r.uniformly_bounded
            and r.mult1_forced_member_size == r.window
            for r in self.rows
        )

    def conclusion(self) -> str:
        windows = ", ".join(str(r.window) for r in self.rows)
        if self.certified:
            return f"asdim = 1 certified at windows {{{windows}}}"
        return f"asdim = 1 NOT certified at windows {{{windows}}}"

    def to_json(self) -> dict:
        return {
            "rows": [
                {
                    "window": r.window,
                    "intervals": r.interval_count,
                    "multiplicity": r.multiplicity,
                    "uniformly_bounded": r.uniformly_bounded,
                    "mult1_forced_member_size": r.mult1_forced_member_size,
                }
                for r in self.rows
            ],
            "conclusion": self.conclusion(),
        }


def mult1_forced_member_size(window: int) -> int:
    """Size a single-multiplicity coarsening member is forced to reach.

    Any member holding the pair {1,2} of the adjacent-pairs cover must,
    point by point, absorb its successor: the pair {n, n+1} lies inside
    some member of the coarsening, that member shares n with ours, and
    multiplicity one makes them equal.  Replay the chain on [1, window].
    """
    members = Cover.from_rule("adjacent-pairs").window_members(window)
    forced = {1, 2}
    grew = True
    while grew:
        grew = False
        for mem in members:
            if mem & forced and not mem <= forced:
                forced |= mem
                grew = True
    return len([x for x in forced if x <= window])


def asdim_topo_line_report(windows: Sequence[int]) -> TopoLineReport:
    """Upper bound by greedy interval coarsening of the adjacent-pairs
    cover, lower bound by the single-multiplicity chain argument."""
    topo = TopoTraceBackend()
    rows = []
    for n in windows:
        cover = Cover.from_rule("adjacent-pairs")
        coarse, cert = greedy_interval_coarsen(cover, n)
        ub = is_uniformly_bounded(coarse, topo)
        rows.append(
            TopoLineRow(
                window=n,
                interval_count=len(cert.intervals),
                multiplicity=cert.multiplicity,
                uniformly_bounded=ub.is_yes,
                mult1_forced_member_size=mult1_forced_member_size(n),
            )
        )
    return TopoLineReport(tuple(rows))
