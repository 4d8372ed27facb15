"""Structure-respecting maps and large-scale equivalences.

Explicit maps are verified exhaustively: every member family must map
into a member family and every bounded set must pull back to a bounded
set.  Line maps are restricted to affine stretches and floor divisions,
which keep images of the exact representation tier exact; their checks
combine exact preimage rules with structured family samples, plus a
window displacement bound for composition-with-inverse conditions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import lcm

import numpy as np

from . import _bitops as bo
from . import lineset as ls
from .backends import FiniteBackend, MetricLineBackend
from .setcore import Family, Subset
from .structures import _first
from .verdict import TriVerdict

SAMPLE_WINDOW = 2000


@dataclass(frozen=True)
class ExplicitMap:
    domain: FiniteBackend
    codomain: FiniteBackend
    table: tuple[int, ...]  # domain element index -> codomain element index

    def __post_init__(self) -> None:
        if len(self.table) != self.domain.universe.size:
            raise ValueError("map table must cover the domain")
        if any(not 0 <= t < self.codomain.universe.size for t in self.table):
            raise ValueError("map table leaves the codomain")

    @classmethod
    def from_labels(
        cls, domain: FiniteBackend, codomain: FiniteBackend, assignment: dict[str, str]
    ) -> "ExplicitMap":
        table = tuple(
            codomain.universe.index(assignment[x]) for x in domain.universe.elements
        )
        return cls(domain, codomain, table)

    def image_mask(self, mask: int) -> int:
        out = 0
        for i in bo.bits(mask):
            out |= 1 << self.table[i]
        return out

    def image_key(self, key: int) -> int:
        out = 0
        for s in bo.bits(key):
            out |= 1 << self.image_mask(s)
        return out

    def image_table(self) -> np.ndarray:
        """image_key of every domain family key, in one sweep."""
        return bo.image_keys([1 << t for t in self.table])

    def preimage_masks(self) -> np.ndarray:
        """Preimage mask of every codomain subset mask, in one sweep."""
        n = self.codomain.universe.size
        return bo.fold_or(n, [sum(1 << i for i, t in enumerate(self.table) if t == j) for j in range(n)])

    def compose(self, other: "ExplicitMap") -> "ExplicitMap":
        """self after other."""
        return ExplicitMap(
            other.domain, self.codomain, tuple(self.table[t] for t in other.table)
        )


@dataclass(frozen=True)
class LineMap:
    """Pipeline of affine stretches and floor divisions on the naturals."""

    stages: tuple[tuple, ...]  # ("affine", a, b) | ("floor-div", d)

    @classmethod
    def affine(cls, a: int, b: int) -> "LineMap":
        if a < 0 or b < 0:
            raise ValueError("affine maps keep the naturals nonnegative")
        return cls((("affine", a, b),))

    @classmethod
    def floor_div(cls, d: int) -> "LineMap":
        if d < 1:
            raise ValueError("divisor must be positive")
        return cls((("floor-div", d),))

    @classmethod
    def identity(cls) -> "LineMap":
        return cls((("affine", 1, 0),))

    def compose(self, other: "LineMap") -> "LineMap":
        """self after other."""
        return LineMap(other.stages + self.stages)

    def apply(self, n: int) -> int:
        for stage in self.stages:
            if stage[0] == "affine":
                n = stage[1] * n + stage[2]
            else:
                n = n // stage[1]
        return n

    def slope(self) -> tuple[int, int]:
        """Asymptotic slope as a fraction (num, den)."""
        num, den = 1, 1
        for stage in self.stages:
            if stage[0] == "affine":
                num *= stage[1]
            else:
                den *= stage[1]
        return num, den

    def image_of(self, s: ls.LineSet) -> ls.LineSet:
        out = s
        for stage in self.stages:
            if stage[0] == "affine":
                out = _affine_image(out, stage[1], stage[2])
            else:
                out = _floor_div_image(out, stage[1])
        return out


def _affine_image(s: ls.LineSet, a: int, b: int) -> ls.LineSet:
    if isinstance(s, ls.FiniteSet):
        return ls.FiniteSet(tuple(a * n + b for n in s.elements))
    if isinstance(s, ls.PeriodicSet):
        if a == 0:
            return ls.FiniteSet((b,)) if not s.is_empty() else ls.FiniteSet(())
        return ls.PeriodicSet(
            tuple(a * n + b for n in s.finite_part),
            tuple((a * st + b, a * p) for st, p in s.progressions),
            tuple(a * n + b for n in s.removals),
        )
    raise ls.LineSetError("line maps act on the exact representation tier")


def _floor_div_image(s: ls.LineSet, d: int) -> ls.LineSet:
    if d == 1:
        return s
    if isinstance(s, ls.FiniteSet):
        return ls.FiniteSet(tuple(n // d for n in s.elements))
    if isinstance(s, ls.PeriodicSet):
        finite = set(n // d for n in s.finite_part if n not in s.removals)
        progs = set()
        for st, p in s.progressions:
            period = lcm(p, d)
            for k in range(period // p):
                progs.add(((st + k * p) // d, period // d))
        # a removed point only removes its image when no sibling survives
        body = ls.PeriodicSet(tuple(finite), tuple(progs))
        removals = []
        for r in s.removals:
            y = r // d
            if not body._core_contains(y):
                continue
            if any(s.contains(x) for x in range(y * d, y * d + d)):
                continue
            removals.append(y)
        return ls.PeriodicSet(tuple(finite), tuple(progs), tuple(removals))
    raise ls.LineSetError("line maps act on the exact representation tier")


SpaceMap = ExplicitMap | LineMap


# ---------------------------------------------------------------------------
# Structured family samples for line-map verification
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _sample_pool() -> tuple[ls.LineSet, ...]:
    return (
        ls.evens(),
        ls.odds(),
        ls.arithmetic(0, 3),
        ls.arithmetic(1, 3),
        ls.arithmetic(2, 4),
        ls.naturals(),
        ls.arithmetic(3, 5),
        ls.FiniteSet((0, 1, 2)),
        ls.FiniteSet((5,)),
        ls.FiniteSet((7, 40)),
    )


def _sample_families(max_size: int = 3):
    pool = _sample_pool()
    for r in range(1, max_size + 1):
        yield from itertools.combinations(pool, r)


# ---------------------------------------------------------------------------
# Map verification
# ---------------------------------------------------------------------------


def is_lsr_map(f: SpaceMap) -> TriVerdict:
    """Member families must push to member families; bounded sets must
    pull back to bounded sets."""
    if isinstance(f, ExplicitMap):
        return _is_lsr_map_explicit(f)
    return _is_lsr_map_line(f)


def _is_lsr_map_explicit(f: ExplicitMap) -> TriVerdict:
    dom, cod = f.domain, f.codomain
    dom_table, cod_table = dom.member_table(), cod.member_table()
    img = f.image_table()
    bad = _first(dom_table & ~cod_table[img])
    if bad is not None:
        return TriVerdict.no(
            reason="image-not-member",
            family=str(Family.from_mask_key(dom.universe, bad[0])),
            image=str(Family.from_mask_key(cod.universe, int(img[bad[0]]))),
        )
    sets, pre = np.arange(1 << cod.universe.size), f.preimage_masks()
    bad = _first((cod.bounded_mask() >> sets & 1 == 1) & (dom.bounded_mask() >> pre & 1 == 0))
    if bad is not None:
        return TriVerdict.no(
            reason="unbounded-preimage",
            bounded_set=str(Subset(cod.universe, bad[0])),
            preimage=str(Subset(dom.universe, int(pre[bad[0]]))),
        )
    return TriVerdict.yes(families=int(dom_table.sum()))


def _is_lsr_map_line(f: LineMap) -> TriVerdict:
    num, den = f.slope()
    if num == 0:
        return TriVerdict.no(
            reason="unbounded-preimage",
            bounded_set=[f.apply(0)],
            note="constant map pulls a point back to the whole line",
        )
    backend = MetricLineBackend()
    checked = 0
    for fam in _sample_families():
        verdict = backend.member(list(fam))
        if not verdict.is_yes:
            continue
        images = [f.image_of(s) for s in fam]
        img_verdict = backend.member(images)
        if not img_verdict.is_yes:
            return TriVerdict.no(
                reason="image-not-member",
                family=[s.to_json() for s in fam],
                image=[s.to_json() for s in images],
            )
        checked += 1
    return TriVerdict.yes(sampled_families=checked, slope=f"{num}/{den}")


def displacement_bound(f: LineMap, window: int = SAMPLE_WINDOW) -> TriVerdict:
    """Exact displacement bound for slope-one pipelines; No with a
    diverging witness otherwise.

    For a slope-one pipeline the displacement n - f(n) is eventually
    periodic with period the product of all divisors, so the window
    maximum is exact once the window passes one full period plus the
    additive offsets.
    """
    num, den = f.slope()
    if num != den:
        probe = max(window, 4 * den + 4)
        return TriVerdict.no(
            reason="slope", slope=f"{num}/{den}", witness_point=probe,
            displacement=abs(f.apply(probe) - probe),
        )
    period = 1
    offsets = 0
    for stage in f.stages:
        if stage[0] == "floor-div":
            period *= stage[1]
        else:
            offsets += stage[2]
    top = max(window, 4 * (period + offsets + 1))
    worst = max(abs(f.apply(n) - n) for n in range(top + 1))
    return TriVerdict.yes(bound=worst, window=top)


def is_ls_equivalence(f: SpaceMap, g: SpaceMap) -> TriVerdict:
    """Mutual inverses up to largeness: composites must absorb into
    member families in both directions."""
    fv = is_lsr_map(f)
    if not fv.is_yes:
        return TriVerdict.no(reason="forward-not-structure-map", inner=dict(fv.witness))
    gv = is_lsr_map(g)
    if not gv.is_yes:
        return TriVerdict.no(reason="backward-not-structure-map", inner=dict(gv.witness))
    if isinstance(f, ExplicitMap) and isinstance(g, ExplicitMap):
        return _is_equivalence_explicit(f, g)
    if isinstance(f, LineMap) and isinstance(g, LineMap):
        return _is_equivalence_line(f, g)
    raise ValueError("mixed map kinds")


def _is_equivalence_explicit(f: ExplicitMap, g: ExplicitMap) -> TriVerdict:
    """No at the first family, g after f on the domain and then f after g
    on the codomain, whose round-trip image is a member while its union
    with the family is not; each round trip is composed only once the one
    before it is absorbed."""
    for direction, there, back in (("domain", f, g), ("codomain", g, f)):
        table, img = there.domain.member_table(), back.compose(there).image_table()
        bad = _first(table[img] & ~table[img | np.arange(table.size)])
        if bad is not None:
            universe = there.domain.universe
            return TriVerdict.no(
                reason="roundtrip-not-absorbed",
                direction=direction,
                family=str(Family.from_mask_key(universe, bad[0])),
                composite_image=str(Family.from_mask_key(universe, int(img[bad[0]]))),
            )
    return TriVerdict.yes(families_checked=2 * (1 << (1 << f.domain.universe.size)))


def _is_equivalence_line(f: LineMap, g: LineMap) -> TriVerdict:
    comps, bounds = [], {}
    for direction, there, back in (("domain", f, g), ("codomain", g, f)):
        comps.append(back.compose(there))
        bound = displacement_bound(comps[-1])
        if not bound.is_yes:
            return TriVerdict.no(
                reason="roundtrip-displacement-diverges", direction=direction, inner=dict(bound.witness)
            )
        bounds[f"displacement_{direction}"] = bound.witness["bound"]
    backend = MetricLineBackend()
    checked = 0
    for comp in comps:
        for fam in _sample_families(max_size=2):
            base = backend.member(list(fam))
            if not base.is_yes:
                continue
            absorbed = list(fam) + [comp.image_of(s) for s in fam]
            v = backend.member(absorbed)
            if not v.is_yes:
                return TriVerdict.no(
                    reason="roundtrip-not-absorbed",
                    family=[s.to_json() for s in fam],
                )
            checked += 1
    return TriVerdict.yes(**bounds, sampled_families=checked)
