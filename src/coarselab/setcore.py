"""Finite universes, bitmask subsets, and canonical families of subsets.

Everything here is immutable and canonically ordered: subsets are
encoded as bit masks over the universe's element order, and families
keep their members sorted by mask value.  That makes families hashable
and makes every enumeration in the package deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

DEFAULT_UNIVERSE_CAP = 16
DEFAULT_CLOSURE_CAP = 1 << 20


class CapExceeded(Exception):
    """An explicit-structure enumeration grew past its configured cap."""


@dataclass(frozen=True)
class Universe:
    """Ordered ground set of distinct element labels."""

    elements: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise ValueError("universe must be nonempty")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("universe labels must be distinct")
        if len(self.elements) > DEFAULT_UNIVERSE_CAP:
            raise CapExceeded(
                f"universe size {len(self.elements)} exceeds cap {DEFAULT_UNIVERSE_CAP}"
            )

    @classmethod
    def of(cls, *labels: str) -> "Universe":
        return cls(tuple(labels))

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise KeyError(f"{label!r} is not an element of {self}") from None

    def subset(self, labels: Iterable[str] = ()) -> "Subset":
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        return Subset(self, mask)

    def subset_from_mask(self, mask: int) -> "Subset":
        return Subset(self, mask)

    def family(self, subsets: Iterable["Subset" | Iterable[str]]) -> "Family":
        members = []
        for s in subsets:
            members.append(s if isinstance(s, Subset) else self.subset(s))
        return Family.of(self, members)

    def __str__(self) -> str:
        return "{" + ",".join(self.elements) + "}"


@dataclass(frozen=True)
class Subset:
    """Subset of a universe, stored as a membership bit mask."""

    universe: Universe
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.universe.size):
            raise ValueError(f"mask {self.mask} out of range for {self.universe}")

    def labels(self) -> tuple[str, ...]:
        return tuple(
            label for i, label in enumerate(self.universe.elements) if self.mask >> i & 1
        )

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def __contains__(self, label: str) -> bool:
        return self.mask >> self.universe.index(label) & 1 == 1

    def union(self, other: "Subset") -> "Subset":
        _require_same_universe(self, other)
        return Subset(self.universe, self.mask | other.mask)

    def intersection(self, other: "Subset") -> "Subset":
        _require_same_universe(self, other)
        return Subset(self.universe, self.mask & other.mask)

    def difference(self, other: "Subset") -> "Subset":
        _require_same_universe(self, other)
        return Subset(self.universe, self.mask & ~other.mask)

    def issubset(self, other: "Subset") -> bool:
        _require_same_universe(self, other)
        return self.mask & ~other.mask == 0

    def __or__(self, other: "Subset") -> "Subset":
        return self.union(other)

    def __and__(self, other: "Subset") -> "Subset":
        return self.intersection(other)

    def __le__(self, other: "Subset") -> bool:
        return self.issubset(other)

    def __str__(self) -> str:
        return "{" + ",".join(self.labels()) + "}"


@dataclass(frozen=True)
class Family:
    """Canonically sorted, deduplicated collection of subsets."""

    universe: Universe
    members: tuple[Subset, ...]

    @classmethod
    def of(cls, universe: Universe, members: Iterable[Subset]) -> "Family":
        seen: dict[int, Subset] = {}
        for m in members:
            if m.universe != universe:
                raise ValueError("family member belongs to a different universe")
            seen[m.mask] = m
        ordered = tuple(seen[k] for k in sorted(seen))
        return cls(universe, ordered)

    @classmethod
    def from_masks(cls, universe: Universe, masks: Iterable[int]) -> "Family":
        return cls.of(universe, [Subset(universe, m) for m in masks])

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def is_empty(self) -> bool:
        return not self.members

    def masks(self) -> tuple[int, ...]:
        return tuple(m.mask for m in self.members)

    def mask_key(self) -> int:
        """Family as one integer: bit ``s`` set iff the subset with mask ``s`` is a member."""
        key = 0
        for m in self.members:
            key |= 1 << m.mask
        return key

    @classmethod
    def from_mask_key(cls, universe: Universe, key: int) -> "Family":
        masks = []
        while key:
            low = key & -key
            masks.append(low.bit_length() - 1)
            key ^= low
        return cls.from_masks(universe, masks)

    def __contains__(self, subset: Subset) -> bool:
        return any(m.mask == subset.mask for m in self.members)

    def __iter__(self) -> Iterator[Subset]:
        return iter(self.members)

    def intersection_mask(self) -> int:
        """Mask of the common intersection; the full universe for an empty family."""
        result = (1 << self.universe.size) - 1
        for m in self.members:
            result &= m.mask
        return result

    def subfamilies(self) -> Iterator["Family"]:
        for r in range(len(self.members) + 1):
            for combo in itertools.combinations(self.members, r):
                yield Family(self.universe, combo)

    def __str__(self) -> str:
        return "{" + ", ".join(str(m) for m in self.members) + "}"


def _require_same_universe(a, b) -> None:
    if a.universe != b.universe:
        raise ValueError("operands live in different universes")


def vee(a: Family, b: Family) -> Family:
    """All pairwise unions ``A | B`` with ``A`` from ``a`` and ``B`` from ``b``."""
    _require_same_universe(a, b)
    masks = {ma | mb for ma in a.masks() for mb in b.masks()}
    return Family.from_masks(a.universe, masks)


def ll_refines(b: Family, a: Family) -> bool:
    """True iff every member of ``a`` contains some member of ``b``."""
    _require_same_universe(a, b)
    b_masks = b.masks()
    for am in a.masks():
        if not any(bm & ~am == 0 for bm in b_masks):
            return False
    return True


def downward_closure(
    fams: Iterable[Family], cap: int = DEFAULT_CLOSURE_CAP
) -> list[Family]:
    """Smallest superset closed under taking subfamilies, in canonical order.

    Raises CapExceeded when the closure would outgrow ``cap`` families,
    which signals that the instance is too large for explicit mode.
    """
    fams = list(fams)
    if not fams:
        return []
    universe = fams[0].universe
    closed: set[tuple[int, ...]] = set()
    for fam in fams:
        if fam.universe != universe:
            raise ValueError("families live in different universes")
        masks = fam.masks()
        if len(closed) + (1 << len(masks)) > cap * 2:
            raise CapExceeded(f"downward closure exceeds cap {cap}")
        for r in range(len(masks) + 1):
            for combo in itertools.combinations(masks, r):
                closed.add(combo)
                if len(closed) > cap:
                    raise CapExceeded(f"downward closure exceeds cap {cap}")
    out = [Family.from_masks(universe, masks) for masks in closed]
    out.sort(key=Family.mask_key)
    return out
