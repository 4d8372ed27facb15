"""Queryable large-scale structure backends and the induced constructions.

A backend answers two questions: is a finite family of sets alike at
large scale, and is a single set bounded.  Explicit backends answer
exactly; the integer-line backends answer exactly on the exact
representation tier and honestly (Yes/No with witness, or Unknown with
the exhausted budget) elsewhere.

The constructions that produce one structure from another live here
too: the induced subset equivalence, the induced near collection, the
induced proximity, the two-element regularization, relation
neighborhoods, and subspace restriction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _bitops as bo
from . import lineset as ls
from .setcore import Family, Subset, Universe
from .structures import (
    CheckReport,
    ExplicitASR,
    ExplicitLSR,
    ExplicitNearness,
    ExplicitProximity,
    _alike,
    _axiom,
    _first,
    _slots,
    bounded_mask,
    common_point_table,
    discrete_closure,
    lsr_lambda_blocks,
    upset_table,
)
from .verdict import TriVerdict

DEFAULT_SCALE_BUDGET = 64
DEFAULT_WINDOW = 10**5


class LSRBackend:
    """Shared interface: membership of families, boundedness of sets."""

    space = "explicit"  # or "nat-line"

    def member(self, sets) -> TriVerdict:
        raise NotImplementedError

    def bounded(self, s) -> TriVerdict:
        raise NotImplementedError

    def is_connected(self) -> TriVerdict:
        raise NotImplementedError

    def describe(self) -> dict:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Explicit backends
# ---------------------------------------------------------------------------


class FiniteBackend(LSRBackend):
    """Backend over a finite universe, able to materialize its collection."""

    universe: Universe

    def to_explicit(self) -> ExplicitLSR:
        return ExplicitLSR(self.universe, np.flatnonzero(self.member_table()).tolist())

    def member_table(self) -> np.ndarray:
        raise NotImplementedError

    def member(self, sets: Family) -> TriVerdict:
        key = sets.mask_key()
        if bool(self.member_table()[key]):
            return TriVerdict.yes(family=str(sets))
        return TriVerdict.no(family=str(sets))

    def bounded_mask(self) -> int:
        return bounded_mask(self.member_table(), self.universe.size)

    def bounded(self, s: Subset) -> TriVerdict:
        """Yes with the first point x whose family {s, {x}} is a member."""
        if s.is_empty:
            return TriVerdict.yes(reason="empty")
        points = np.arange(self.universe.size)
        hit = _first(self.member_table()[1 << s.mask | 1 << (1 << points)])
        if hit is None:
            return TriVerdict.no(set=str(s))
        return TriVerdict.yes(point=self.universe.elements[hit[0]])

    def is_connected(self) -> TriVerdict:
        """No at the first pair of points, in combinations order, not alike."""
        i, j = np.triu_indices(self.universe.size, 1)
        bad = _first(~self.member_table()[1 << (1 << i) | 1 << (1 << j)])
        if bad is None:
            return TriVerdict.yes(pairs=i.size)
        k = bad[0]
        return TriVerdict.no(pair=(self.universe.elements[i[k]], self.universe.elements[j[k]]))


class ExplicitBackend(FiniteBackend):
    def __init__(self, lsr: ExplicitLSR):
        self.lsr = lsr
        self.universe = lsr.universe

    def to_explicit(self) -> ExplicitLSR:
        return self.lsr

    def member_table(self) -> np.ndarray:
        return self.lsr.table()

    def describe(self) -> dict:
        return {"backend": "explicit", "families": len(self.lsr.keys)}


class PartitionCoarseBackend(FiniteBackend):
    """Coarse-relation backend: the maximal relation is an equivalence,
    and a family is alike iff each member sits inside the saturation of
    every other."""

    def __init__(self, universe: Universe, blocks: Sequence[int]):
        self.universe = universe
        self.slots = _slots(universe)
        full = (1 << universe.size) - 1
        if sum(blocks) != full or any(b1 & b2 for b1, b2 in itertools.combinations(blocks, 2)):
            raise ValueError("blocks must partition the universe")
        self.blocks = tuple(sorted(int(b) for b in blocks))
        self._table: np.ndarray | None = None

    def saturation(self, mask: int) -> int:
        out = 0
        for b in self.blocks:
            if b & mask:
                out |= b
        return out

    def member_table(self) -> np.ndarray:
        if self._table is None:
            m = self.slots
            sats = [self.saturation(s) for s in range(m)]
            need = bo.fold_and(m, sats, (1 << self.universe.size) - 1)
            un = bo.fold_or(m, list(range(m)))
            self._table = (un & ~need) == 0
        return self._table

    def describe(self) -> dict:
        return {
            "backend": "partition",
            "blocks": [str(Subset(self.universe, b)) for b in self.blocks],
        }


class FromASRBackend(FiniteBackend):
    """A family is alike iff its members all lie in one equivalence block."""

    def __init__(self, asr: ExplicitASR):
        self.asr = asr
        self.universe = asr.universe
        self._table: np.ndarray | None = None

    def member_table(self) -> np.ndarray:
        if self._table is None:
            self._table = bo.down_closure(self.asr.blocks(), self.asr.slots)
        return self._table

    def describe(self) -> dict:
        return {"backend": "from-asr", "blocks": len(self.asr.blocks())}


# ---------------------------------------------------------------------------
# Integer-line backends
# ---------------------------------------------------------------------------


def _validate_line_family(sets: Sequence[ls.LineSet]) -> None:
    for s in sets:
        if not isinstance(s, ls.LineSet):
            raise ValueError("line backends take families of line sets")


class MetricLineBackend(LSRBackend):
    """Alike iff some scale bounds all pairwise Hausdorff distances.

    On the exact tier this is fully decidable; families with
    enumerator-backed members get scale-bounded answers.  The same
    backend serves both the metric construction and the two-element
    regularization of the induced equivalence, which coincide on the
    line.
    """

    space = "nat-line"

    def __init__(self, scale_budget: int = DEFAULT_SCALE_BUDGET, window: int = DEFAULT_WINDOW):
        self.scale_budget = scale_budget
        self.window = window

    def member(self, sets: Sequence[ls.LineSet]) -> TriVerdict:
        _validate_line_family(sets)
        sets = list(sets)
        if not sets:
            raise ValueError("membership of the empty family is trivial; pass sets")
        nonempty = [s for s in sets if not s.is_empty()]
        if len(nonempty) < len(sets):
            if len(sets) == 1 or all(s.is_empty() for s in sets):
                return TriVerdict.yes(scale=0)
            return TriVerdict.no(reason="empty member beside a nonempty one")
        # only a finite set and an infinite one lie infinitely apart
        for a, b in itertools.combinations(sets, 2):
            if a.is_finite() != b.is_finite():
                return TriVerdict.no(pair=(a.to_json(), b.to_json()), distance="inf")
        if all(s.is_exact() for s in sets):
            return TriVerdict.yes(scale=ls.family_distance(sets).value)
        refuted = []
        for a, b in itertools.combinations(sets, 2):
            v = ls.hausdorff_at_scale(a, b, self.scale_budget, self.window)
            if v.is_no:
                refuted.append(v.witness)
        if refuted:
            return TriVerdict.unknown(
                budget=self.scale_budget, window=self.window, refuted_pairs=refuted
            )
        return TriVerdict.unknown(budget=self.scale_budget, window=self.window)

    def bounded(self, s: ls.LineSet) -> TriVerdict:
        if s.is_empty():
            return TriVerdict.yes(reason="empty")
        if s.is_finite():
            top = s.window(1 << 62)[-1]
            return TriVerdict.yes(point=0, radius=top)
        return TriVerdict.no(reason="infinite representation", kind=s.to_json()["kind"])

    def is_connected(self) -> TriVerdict:
        return TriVerdict.yes(reason="point pairs at finite distance")

    def describe(self) -> dict:
        return {"backend": "metric-line", "scale": self.scale_budget, "window": self.window}


class TopoTraceBackend(LSRBackend):
    """One-point-compactification trace: alike iff all members share the
    same boundary trace, i.e. are all finite or all infinite."""

    space = "nat-line"

    def __init__(self, window: int = DEFAULT_WINDOW):
        self.window = window

    def member(self, sets: Sequence[ls.LineSet]) -> TriVerdict:
        _validate_line_family(sets)
        sets = list(sets)
        flags = [s.is_finite() for s in sets]
        if all(flags) or not any(flags):
            return TriVerdict.yes(members=len(sets), all_finite=bool(all(flags)))
        i = flags.index(True)
        j = flags.index(False)
        return TriVerdict.no(finite_member=sets[i].to_json(), infinite_member=sets[j].to_json())

    def bounded(self, s: ls.LineSet) -> TriVerdict:
        if s.is_finite():
            return TriVerdict.yes(reason="finite")
        return TriVerdict.no(reason="infinite representation", kind=s.to_json()["kind"])

    def is_connected(self) -> TriVerdict:
        return TriVerdict.yes(reason="finite point pairs are alike")

    def describe(self) -> dict:
        return {"backend": "topo-trace", "window": self.window}


class RestrictedLineBackend(LSRBackend):
    """Subspace view of a line backend: families must live inside the
    carrier; answers are the ambient backend's."""

    space = "nat-line"

    def __init__(self, base: LSRBackend, carrier: ls.LineSet):
        if carrier.is_empty():
            raise ValueError("subspace carrier must be nonempty")
        self.base = base
        self.carrier = carrier

    def _check_carrier(self, sets: Sequence[ls.LineSet]) -> None:
        for s in sets:
            if s.is_exact() and self.carrier.is_exact():
                if not ls.is_subset(s, self.carrier):
                    raise ValueError("family member leaves the subspace carrier")
            else:
                probe = s.window(1024)
                if any(not self.carrier.contains(n) for n in probe):
                    raise ValueError("family member leaves the subspace carrier")

    def member(self, sets: Sequence[ls.LineSet]) -> TriVerdict:
        self._check_carrier(sets)
        return self.base.member(sets)

    def bounded(self, s: ls.LineSet) -> TriVerdict:
        self._check_carrier([s])
        return self.base.bounded(s)

    def is_connected(self) -> TriVerdict:
        return self.base.is_connected()

    def describe(self) -> dict:
        return {"backend": "restricted", "base": self.base.describe(), "carrier": self.carrier.to_json()}


def restrict(backend: LSRBackend, y) -> LSRBackend:
    """Subspace backend over a nonempty carrier."""
    if isinstance(backend, FiniteBackend):
        return ExplicitBackend(backend.to_explicit().restrict(y))
    return RestrictedLineBackend(backend, y)


# ---------------------------------------------------------------------------
# Relation neighborhoods
# ---------------------------------------------------------------------------


def n_e_of_l(universe: Universe, relation_rows: tuple[int, ...], l: Subset) -> Family:
    """All sets mutually within the relation's reach of ``l``: the
    neighbors ``l'`` with ``l`` inside the image of ``l'`` and vice versa."""
    n = universe.size
    if len(relation_rows) != n:
        raise ValueError("relation rows must cover the universe")
    image, masks = bo.fold_or(n, list(relation_rows)), np.arange(1 << n)
    mutual = (l.mask & ~image == 0) & (masks & ~image[l.mask] == 0)
    return Family.from_masks(universe, np.flatnonzero(mutual).tolist())


# ---------------------------------------------------------------------------
# Induced subset equivalence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineAlikeRule:
    """Rule form of the induced equivalence on the line."""

    kind: str  # "finite-hausdorff" | "same-size-class"

    def alike(self, a: ls.LineSet, b: ls.LineSet) -> TriVerdict:
        if self.kind == "same-size-class":
            same = a.is_finite() == b.is_finite()
            return TriVerdict.yes(rule=self.kind) if same else TriVerdict.no(rule=self.kind)
        if a.is_empty() or b.is_empty():
            same = a.is_empty() and b.is_empty()
            return TriVerdict.yes(rule=self.kind) if same else TriVerdict.no(rule=self.kind)
        if a.is_exact() and b.is_exact():
            d = ls.hausdorff_distance(a, b)
            if d.is_infinite:
                return TriVerdict.no(rule=self.kind, distance="inf")
            return TriVerdict.yes(rule=self.kind, scale=d.value)
        return TriVerdict.unknown(budget="exact-tier-only", rule=self.kind)


def lambda_of(backend: LSRBackend) -> ExplicitASR | LineAlikeRule:
    """The induced pairwise-alike equivalence.

    Defined for regular collections only: explicit backends are checked
    and rejected with the regularity witness, line backends are regular
    structurally.
    """
    if isinstance(backend, MetricLineBackend):
        return LineAlikeRule("finite-hausdorff")
    if isinstance(backend, TopoTraceBackend):
        return LineAlikeRule("same-size-class")
    if isinstance(backend, FiniteBackend):
        lsr = backend.to_explicit()
        blocks = lsr_lambda_blocks(lsr)  # raises with witness when not regular
        return ExplicitASR.from_blocks(backend.universe, [list(bo.bits(b)) for b in sorted(blocks)])
    raise ValueError(f"no induced equivalence for {backend!r}")


# ---------------------------------------------------------------------------
# Induced near collection
# ---------------------------------------------------------------------------


@dataclass
class NearnessQuery:
    backend: LSRBackend
    sets: Family | Sequence[ls.LineSet]
    scale_budget: int = DEFAULT_SCALE_BUDGET
    window: int = DEFAULT_WINDOW


def induced_nearness(
    backend: FiniteBackend, closure: tuple[int, ...] | None = None
) -> ExplicitNearness:
    """Materialize the induced near collection of an explicit backend:
    near iff the members' closures share a point, or some member family
    with no bounded member refines into the queried family.

    The result is a near collection when the backend is connected.  On a
    disconnected backend it may break the product axiom: with blocks
    ``{a,b},{c,d}`` the product of the non-near ``{{a},{b}}`` and
    ``{{c},{d}}`` is an unbounded alike family, hence near."""
    universe = backend.universe
    m = 1 << universe.size
    cl = closure if closure is not None else discrete_closure(universe)
    near = common_point_table(cl)

    # the families a member family refines into are those inside its upset
    members = np.flatnonzero(backend.member_table())
    refiners = members[(members & backend.bounded_mask()) == 0]
    near |= bo.down_closure(upset_table(m)[refiners], m)
    return ExplicitNearness(universe, [int(k) for k in np.nonzero(near)[0]], cl)


def nearness_of(q: NearnessQuery) -> TriVerdict:
    """Is the queried family near in the backend's induced collection?"""
    if isinstance(q.backend, FiniteBackend):
        return _nearness_of_explicit(q)
    return _nearness_of_line(q)


def _nearness_of_explicit(q: NearnessQuery) -> TriVerdict:
    backend: FiniteBackend = q.backend
    universe = backend.universe
    fam: Family = q.sets
    inter = fam.intersection_mask()
    if inter:
        point = universe.elements[next(bo.bits(inter))]
        return TriVerdict.yes(clause="common-point", point=point)
    # a refiner is a member family without bounded members that has a
    # member inside each member of the queried family
    members = np.flatnonzero(backend.member_table())
    ok = (members != 0) & ((members & backend.bounded_mask()) == 0)
    for a in fam.masks():
        ok &= (members & sum(1 << sub for sub in bo.submasks(a))) != 0
    if ok.any():
        witness = Family.from_mask_key(universe, int(members[ok][0]))
        return TriVerdict.yes(clause="unbounded-refiner", witness=str(witness))
    return TriVerdict.no(clause="exhausted", family=str(fam))


def _nearness_of_line(q: NearnessQuery) -> TriVerdict:
    sets = list(q.sets)
    _validate_line_family(sets)
    if not sets:
        return TriVerdict.yes(clause="common-point", note="empty family")
    if any(s.is_empty() for s in sets):
        return TriVerdict.no(clause="empty-member")
    if all(s.is_exact() for s in sets):
        inter = ls.intersection_all(sets)
        if not inter.is_empty():
            return TriVerdict.yes(clause="common-point", point=inter.min_element())
        if all(not s.is_finite() for s in sets):
            scale = ls.family_distance(sets).value
            return TriVerdict.yes(clause="unbounded-refiner", witness="the family itself", scale=scale)
        finite = next(s for s in sets if s.is_finite())
        return TriVerdict.no(clause="exhausted", finite_member=finite.to_json())
    # windowed common point
    common = sets[0].window_array(q.window)
    for s in sets[1:]:
        common = np.intersect1d(common, s.window_array(q.window))
        if common.size == 0:
            break
    if common.size:
        return TriVerdict.yes(clause="common-point", point=int(common[0]), window=q.window)
    if any(s.is_finite() for s in sets):
        finite = next(s for s in sets if s.is_finite())
        return TriVerdict.no(clause="exhausted", finite_member=finite.to_json())
    # scale-bounded: refute the family-itself witness scale by scale
    refutations = []
    pairs = list(itertools.combinations(range(len(sets)), 2))
    for k in range(q.scale_budget + 1):
        found = None
        for i, j in pairs:
            v = ls.hausdorff_at_scale(sets[i], sets[j], k, q.window)
            if v.is_no:
                found = {
                    "scale": k,
                    "members": (i, j),
                    "point": v.witness["point"],
                    "side": v.witness["side"],
                }
                break
        if found is None:
            return TriVerdict.unknown(
                budget=q.scale_budget,
                window=q.window,
                note=f"no refutation at scale {k}",
                scale_refutations=refutations,
            )
        refutations.append(found)
    return TriVerdict.unknown(
        budget=q.scale_budget,
        window=q.window,
        note="candidate family refuted at every scale in budget",
        scale_refutations=refutations,
    )


# ---------------------------------------------------------------------------
# Induced proximity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LineProximityRule:
    """Near iff the sets meet or neither is finite (exact tier)."""

    def near(self, a: ls.LineSet, b: ls.LineSet) -> TriVerdict:
        if a.is_empty() or b.is_empty():
            return TriVerdict.no(reason="empty argument")
        if a.is_exact() and b.is_exact():
            if not ls.intersection(a, b).is_empty():
                return TriVerdict.yes(reason="intersect")
            if not a.is_finite() and not b.is_finite():
                return TriVerdict.yes(reason="both infinite")
            return TriVerdict.no(reason="asymptotically disjoint")
        return TriVerdict.unknown(budget="exact-tier-only")


def _disjointness(asr: ExplicitASR, bounded_mask: int) -> np.ndarray:
    """disjoint[a, b]: no unbounded part of a is alike an unbounded part
    of b (the empty set is bounded)."""
    s = np.arange(asr.slots)
    unbounded = (s > 0) & (bounded_mask >> s & 1 == 0)
    parts = (s & ~s[:, None] == 0) & unbounded  # [a, l]: l is an unbounded part of a
    return ~(parts @ _alike(asr) @ parts.T)


def asymptotically_disjoint_explicit(asr: ExplicitASR, bounded_mask: int, a: int, b: int) -> bool:
    """No unbounded parts of the two sets are alike."""
    return bool(_disjointness(asr, bounded_mask)[a, b])


def is_asymptotically_normal(asr: ExplicitASR, bounded_mask: int) -> tuple[bool, dict | None]:
    """Every asymptotically disjoint pair (a, b) has sets x1 and x2 that
    cover the universe, x1 disjoint from a and x2 from b; the witness is
    the first pair that has none."""
    s = np.arange(asr.slots)
    disjoint = _disjointness(asr, bounded_mask)
    covers = (s[:, None] | s) == asr.slots - 1
    bad = _first(disjoint & ~(disjoint.T @ covers @ disjoint))
    if bad is None:
        return True, None
    return False, {"a": bad[0], "b": bad[1]}


def proximity_of(
    backend: LSRBackend, closure: tuple[int, ...] | None = None, check_normal: bool = True
) -> ExplicitProximity | LineProximityRule:
    """Near iff closures meet or the sets are not asymptotically disjoint."""
    if isinstance(backend, MetricLineBackend):
        return LineProximityRule()
    if not isinstance(backend, FiniteBackend):
        raise ValueError(f"no induced proximity for {backend!r}")
    universe = backend.universe
    asr = lambda_of(backend)
    bmask = backend.bounded_mask()
    if check_normal:
        normal, witness = is_asymptotically_normal(asr, bmask)
        if not normal:
            raise ValueError(f"backend is not asymptotically normal: {witness}")
    cl = np.asarray(closure if closure is not None else discrete_closure(universe))
    near = (cl[:, None] & cl != 0) | ~_disjointness(asr, bmask)
    return ExplicitProximity(universe, tuple((near @ (1 << np.arange(asr.slots))).tolist()))


# ---------------------------------------------------------------------------
# Regularization
# ---------------------------------------------------------------------------


def sampled_line_axiom_report(
    backend: LSRBackend, seed: int = 0, samples: int = 200
) -> CheckReport:
    """Property suite for line backends on seeded exact-tier families:
    singleton families are members, membership is monotone under taking
    subfamilies, and the pairwise-union product of two member families
    is a member."""
    import random

    rng = random.Random(seed)

    def random_set() -> ls.LineSet:
        if rng.random() < 0.25:
            return ls.FiniteSet(tuple(rng.randint(0, 40) for _ in range(rng.randint(1, 4))))
        aps = tuple(
            (rng.randint(0, 12), rng.randint(1, 8)) for _ in range(rng.randint(1, 2))
        )
        return ls.PeriodicSet((), aps, ())

    def random_family() -> list[ls.LineSet]:
        return [random_set() for _ in range(rng.randint(1, 3))]

    singleton_bad = monotone_bad = product_bad = None  # the last violation seen
    for _ in range(samples):
        fam = random_family()
        if not backend.member([fam[0]]).is_yes:
            singleton_bad = (fam[0],)
        v = backend.member(fam)
        if v.is_yes and len(fam) > 1:
            for drop in range(len(fam)):
                sub = fam[:drop] + fam[drop + 1 :]
                if sub and not backend.member(sub).is_yes:
                    monotone_bad = (fam, sub)
        other = random_family()
        if v.is_yes and backend.member(other).is_yes:
            product = [ls.union(a, b) for a in fam for b in other]
            if not backend.member(product).is_yes:
                product_bad = (fam, other)

    def sets(family):
        return [s.to_json() for s in family]

    results = (
        _axiom("singletons", singleton_bad, lambda s: {"set": s.to_json()}),
        _axiom("downward-monotone", monotone_bad, lambda f, _: {"family": sets(f)}),
        _axiom("union-product", product_bad, lambda f, g: {"left": sets(f), "right": sets(g)}),
    )
    return CheckReport(f"sampled line axioms ({samples} families)", results)


def regularize(c: ExplicitLSR) -> ExplicitLSR:
    """Two-element determination: families whose two-element subfamilies
    are all members.  Expects a regular input; the result is regular,
    two-determined, and contains the input collection; ``lsr_lambda_blocks``
    raises with the regularity witness when it is not regular."""
    keys = bo.down_closure(lsr_lambda_blocks(c), c.slots)
    return ExplicitLSR(c.universe, np.flatnonzero(keys).tolist())
