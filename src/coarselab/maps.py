"""Structure-respecting maps and large-scale equivalences.

Explicit maps are verified exhaustively: every member family must map
into a member family and every bounded set must pull back to a bounded
set.  Line maps are pipelines of affine stretches and floor divisions,
which keep images of the exact representation tier exact; their checks
are decided from the stages.  On the exact tier the metric line accepts
a family exactly when its sets are all empty, or all nonempty and all
finite or all infinite.  An affine stage with ``a >= 1`` and a floor
division keep each set empty, finite or infinite as it was, and both
have finite fibres.  So a pipeline of nonzero slope maps member families
to member families and pulls finite sets back to finite ones; a zero
slope pulls a point back to the whole line.  A round trip whose exact
displacement bound is Yes moves each point by at most that bound, so
each set and its round-trip image lie within the bound of each other,
and their union family is a member.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

import numpy as np

from . import _bitops as bo
from . import lineset as ls
from .backends import FiniteBackend
from .nearness_lab import WINDOW_CAP
from .setcore import CapExceeded, Family, Subset
from .structures import _first
from .verdict import TriVerdict

# The least window that a displacement scan covers.
DISPLACEMENT_WINDOW = 2000


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
    """Yes exactly for a nonzero slope (see the module docstring)."""
    num, den = f.slope()
    if num == 0:
        return TriVerdict.no(
            reason="unbounded-preimage",
            bounded_set=[f.apply(0)],
            note="constant map pulls a point back to the whole line",
        )
    return TriVerdict.yes(slope=f"{num}/{den}")


def displacement_bound(f: LineMap) -> TriVerdict:
    """Exact displacement bound for slope-one pipelines; No with a
    diverging witness otherwise.

    For a slope-one pipeline the displacement n - f(n) is eventually
    periodic with period the product of all divisors, so the window
    maximum is exact once the window passes one full period plus the
    additive offsets.  Raises ``CapExceeded`` before the scan when that
    window exceeds ``WINDOW_CAP``.
    """
    num, den = f.slope()
    if num != den:
        probe = max(DISPLACEMENT_WINDOW, 4 * den + 4)
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
    top = max(DISPLACEMENT_WINDOW, 4 * (period + offsets + 1))
    if top > WINDOW_CAP:
        raise CapExceeded(f"displacement scan to {top} exceeds the cap {WINDOW_CAP}")
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
    """Yes with both round trips' displacement bounds (see the module
    docstring); No at the first round trip whose displacement diverges."""
    bounds = {}
    for direction, there, back in (("domain", f, g), ("codomain", g, f)):
        bound = displacement_bound(back.compose(there))
        if not bound.is_yes:
            return TriVerdict.no(
                reason="roundtrip-displacement-diverges", direction=direction, inner=dict(bound.witness)
            )
        bounds[f"displacement_{direction}"] = bound.witness["bound"]
    return TriVerdict.yes(**bounds)
