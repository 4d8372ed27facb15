"""Explicit finite structures and exhaustive axiom checkers.

Each structure class materializes one of the axiom systems on a small
universe: alike-in-large-scale collections (ExplicitLSR), near
collections (ExplicitNearness), subset equivalences (ExplicitASR),
relation families closed under composition (ExplicitCoarse), and
nearness relations on subset pairs (ExplicitProximity).  Checkers
return per-axiom verdicts with concrete violating witnesses.

The pair-quantified axioms are checked through two sound reductions
that keep |X| = 4 sweeps exhaustive-equivalent yet cheap:

* In a downward-closed collection, a violation of a closure axiom
  (intersecting unions, pairwise-union products) survives when either
  family grows to a maximal member, so scanning maximal-member pairs
  decides the axiom.
* In a near collection that is downward closed (a consequence of the
  growth axiom), a violation of the pairwise-union axiom survives when
  either non-member shrinks to a minimal non-member, so scanning
  minimal non-member pairs decides the axiom.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from . import _bitops as bo
from .setcore import CapExceeded, Family, Subset, Universe

CHECKER_UNIVERSE_CAP = 4


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    witness: dict = field(default_factory=dict)

    def __str__(self) -> str:
        if self.passed:
            return f"{self.axiom}: pass"
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.witness.items()))
        return f"{self.axiom}: FAIL ({parts})"


@dataclass(frozen=True)
class CheckReport:
    subject: str
    results: tuple[AxiomResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def result(self, axiom: str) -> AxiomResult:
        for r in self.results:
            if r.axiom == axiom:
                return r
        raise KeyError(axiom)

    def failures(self) -> list[AxiomResult]:
        return [r for r in self.results if not r.passed]

    def __str__(self) -> str:
        lines = [f"[{self.subject}]"]
        lines += [f"  {r}" for r in self.results]
        return "\n".join(lines)


def _slots(universe: Universe) -> int:
    if universe.size > CHECKER_UNIVERSE_CAP:
        raise CapExceeded(
            f"explicit checkers handle universes up to {CHECKER_UNIVERSE_CAP} elements"
        )
    return 1 << universe.size


def _family_str(universe: Universe, key: int) -> str:
    return str(Family.from_mask_key(universe, key))


def _subset_str(universe: Universe, mask: int) -> str:
    return str(Subset(universe, mask))


# ---------------------------------------------------------------------------
# Large-scale resemblance collections
# ---------------------------------------------------------------------------


def bounded_mask(table: np.ndarray, n: int) -> int:
    """Mask over the subset slots of an n-point universe: bit s set iff
    the subset s is bounded, i.e. some family {s, {x}} is in the member
    table.  The empty subset is bounded by definition."""
    slots = np.arange(1 << n)
    bounded = table[(1 << slots)[:, None] | 1 << (1 << np.arange(n))].any(axis=1)
    bounded[0] = True
    return int((bounded << slots).sum())


class ExplicitLSR:
    """Materialized collection of alike-in-large-scale subset families.

    Stores every member family as a bit key and guarantees, by
    construction, that all singleton families are present and that the
    collection is downward closed; the union and product axioms remain
    the checker's business.
    """

    def __init__(self, universe: Universe, keys: Iterable[int]):
        self.universe = universe
        self.slots = _slots(universe)
        base = {0} | {1 << s for s in range(self.slots)}
        self.keys = frozenset(keys) | base
        self._table: np.ndarray | None = None

    @classmethod
    def from_generators(cls, universe: Universe, generators: Iterable[Family]) -> "ExplicitLSR":
        keys = []
        for fam in generators:
            if fam.universe != universe:
                raise ValueError("generator family over a different universe")
            keys.append(fam.mask_key())
        return cls(universe, np.flatnonzero(bo.down_closure(keys, _slots(universe))).tolist())

    def table(self) -> np.ndarray:
        if self._table is None:
            t = np.zeros(1 << self.slots, dtype=bool)
            t[list(self.keys)] = True
            self._table = t
        return self._table

    def member(self, fam: Family) -> bool:
        return fam.mask_key() in self.keys

    def families(self) -> Iterator[Family]:
        for key in sorted(self.keys):
            yield Family.from_mask_key(self.universe, key)

    def maximal_keys(self) -> list[int]:
        flag = bo.maximal_keys(self.table(), self.slots)
        return [int(k) for k in np.nonzero(flag)[0]]

    def bounded_mask(self) -> int:
        return bounded_mask(self.table(), self.universe.size)

    def restrict(self, y: Subset) -> "ExplicitLSR":
        """Subspace collection: families of subsets of y that are members."""
        if y.universe != self.universe:
            raise ValueError("subspace lives in a different universe")
        if y.is_empty:
            raise ValueError("subspace must be nonempty")
        m = self.slots
        outside = bo.fold_or(m, [s & ~y.mask for s in range(m)])
        image = bo.fold_or(m, [1 << _repack(s, y.mask) for s in range(m)])
        return ExplicitLSR(Universe(y.labels()), image[self.table() & (outside == 0)].tolist())


def _repack(mask: int, within: int) -> int:
    """Reindex a subset mask into the compact coordinates of ``within``."""
    out = 0
    pos = 0
    for i in bo.bits(within):
        if mask >> i & 1:
            out |= 1 << pos
        pos += 1
    return out


def check_lsr_axioms(c: ExplicitLSR) -> CheckReport:
    """Per-axiom verdicts: singletons, downward closure, intersecting
    unions, and closure under the pairwise-union product."""
    u, m = c.universe, c.slots
    results = []

    missing = [s for s in range(m) if (1 << s) not in c.keys]
    results.append(
        AxiomResult("singletons", not missing)
        if not missing
        else AxiomResult("singletons", False, {"missing": _subset_str(u, missing[0])})
    )

    table = c.table()
    down_bad = None
    if not _is_down_closed(table, m):
        for key in c.keys:
            for t in bo.bits(key):
                if key ^ (1 << t) not in c.keys:
                    down_bad = (key, key ^ (1 << t))
                    break
            if down_bad:
                break
    results.append(
        AxiomResult("downward-closure", down_bad is None)
        if down_bad is None
        else AxiomResult(
            "downward-closure",
            False,
            {
                "family": _family_str(u, down_bad[0]),
                "missing_subfamily": _family_str(u, down_bad[1]),
            },
        )
    )
    downward_closed = down_bad is None

    if downward_closed:
        tops = np.flatnonzero(bo.maximal_keys(table, m))
    else:
        if len(c.keys) > 4096:
            raise CapExceeded("closure axioms need a downward-closed collection at this size")
        tops = np.flatnonzero(table)

    def union_gap(i0, i1):
        f, g = tops[i0:i1, None], tops[None, i0:]
        return (f & g != 0) & ~table[f | g]

    bad = _first_pair(tops, union_gap)
    results.append(
        AxiomResult("intersecting-union", bad is None)
        if bad is None
        else AxiomResult(
            "intersecting-union",
            False,
            {
                "left": _family_str(u, bad[0]),
                "right": _family_str(u, bad[1]),
                "missing_union": _family_str(u, bad[0] | bad[1]),
            },
        )
    )

    img = bo.vee_images(tops, m)
    bad = _first_pair(tops, lambda i0, i1: ~table[bo.vee_block(tops[i0:i1], img[:, i0:])])
    results.append(
        AxiomResult("union-product", bad is None)
        if bad is None
        else AxiomResult(
            "union-product",
            False,
            {
                "left": _family_str(u, bad[0]),
                "right": _family_str(u, bad[1]),
                "missing_product": _family_str(u, bo.vee_key(*bad)),
            },
        )
    )
    return CheckReport("large-scale resemblance axioms", tuple(results))


def _first_pair(keys: np.ndarray, bad) -> tuple[int, int] | None:
    """First pair (keys[i], keys[j]), i <= j, in combinations_with_replacement
    order that ``bad`` flags; bad(i0, i1) flags the row block keys[i0:i1]
    against the columns keys[i0:]."""
    for i0, i1, upper in bo.pair_blocks(len(keys)):
        hit = upper & bad(i0, i1)
        first = int(hit.argmax())
        if hit.flat[first]:
            r, c = divmod(first, hit.shape[1])
            return int(keys[i0 + r]), int(keys[i0 + c])
    return None


def is_ls_regular(c: ExplicitLSR) -> tuple[bool, dict | None]:
    """Can every member family be split along any two-part decomposition
    of any of its member sets?  Returns a concrete unsplittable witness
    when not.

    Scanning maximal member families on both sides is exhaustive: a
    violation at any family persists at a maximal family above it, and
    any successful split through arbitrary members also succeeds
    through maximal members above them.

    A pair (k1, k2) splits a family F when every member of F is the
    union of a k1 member and a k2 member, that is when F is a subfamily
    of the pairwise-union product k1 v k2.  So with V the product table
    of the maximal families and M their membership matrix over the
    subset slots, the splits (a1, a2) that some pair holding a1 and a2
    makes of F are the nonzero entries of M^T [F & ~V == 0] M.  Families
    go in batches and V in row blocks, so that no intermediate array
    holds much more than PAIR_BLOCK * m entries.  The witness is the
    first unsplittable split in family, member set and
    ``_two_part_splits`` order.
    """
    u, m = c.universe, c.slots
    tops = np.asarray(c.maximal_keys(), dtype=np.int64)
    n = tops.size
    member = (tops[:, None] >> np.arange(m) & 1).astype(np.float32)
    img = bo.vee_images(tops, m)
    rows = max(1, bo.PAIR_BLOCK // n)
    batch = max(1, bo.PAIR_BLOCK * m // (min(rows, n) * n))
    split_a, split_1, split_2 = _split_table(m)
    for f0 in range(0, n, batch):
        fams = tops[f0 : f0 + batch]
        held = np.zeros((fams.size, m, m), dtype=bool)
        for i0 in range(0, n, rows):
            covers = (fams[:, None, None] & ~bo.vee_block(tops[i0 : i0 + rows], img)) == 0
            held |= member[i0 : i0 + rows].T @ (covers @ member) > 0
        bad = (fams[:, None] >> split_a & 1 == 1) & ~held[:, split_1, split_2]
        if bad.any():
            f, s = divmod(int(bad.argmax()), bad.shape[1])
            return False, {
                "family": _family_str(u, int(fams[f])),
                "part1": _subset_str(u, int(split_1[s])),
                "part2": _subset_str(u, int(split_2[s])),
            }
    return True, None


@functools.cache
def _split_table(m: int) -> tuple[np.ndarray, ...]:
    """Columns (a, a1, a2) of every two-part split of every subset slot a,
    in ascending a and ``_two_part_splits`` order."""
    splits = [(a, a1, a2) for a in range(m) for a1, a2 in _two_part_splits(a)]
    return tuple(np.array(col, dtype=np.int64) for col in zip(*splits))


def _two_part_splits(a: int) -> Iterator[tuple[int, int]]:
    """Ordered pairs of nonempty masks whose union is ``a``."""
    for a1 in bo.submasks(a):
        if a1 == 0:
            continue
        rest = a & ~a1
        for extra in bo.submasks(a1):
            a2 = rest | extra
            if a2:
                yield a1, a2


def is_a_lsr(c: ExplicitLSR) -> tuple[bool, dict | None]:
    """Regular and determined by two-element member families: every
    subfamily of a block of the pairwise-alike relation is a member.
    The witness is the largest missing subfamily of the first block
    that misses one.

    Assumes the collection passes the core axioms, which make the
    pairwise-alike relation an equivalence on subsets.
    """
    regular, witness = is_ls_regular(c)
    if not regular:
        return False, {"reason": "not-ls-regular", **(witness or {})}
    table = c.table()
    for block in _pair_relation_blocks(c):
        subfamilies = bo.fold_or(block.bit_count(), [1 << s for s in bo.bits(block)])
        missing = subfamilies[~table[subfamilies]]
        if missing.size:
            return False, {
                "reason": "not-two-determined",
                "family": _family_str(c.universe, int(missing[-1])),
            }
    return True, None


def _pair_relation_blocks(c: ExplicitLSR) -> list[int]:
    """Blocks of the relation 'some member family holds both subsets'.

    For an axiom-respecting collection this is an equivalence: compute
    its classes as masks over subset slots.
    """
    m = c.slots
    parent = list(range(m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, t in itertools.combinations(range(m), 2):
        if bo.masks_to_key([s, t]) in c.keys:
            parent[find(s)] = find(t)
    blocks: dict[int, int] = {}
    for s in range(m):
        blocks.setdefault(find(s), 0)
        blocks[find(s)] |= 1 << s
    return list(blocks.values())


def lsr_lambda_blocks(c: ExplicitLSR) -> list[int]:
    """Subset-equivalence blocks induced by a regular collection."""
    regular, witness = is_ls_regular(c)
    if not regular:
        raise ValueError(f"collection is not regular: witness {witness}")
    return _pair_relation_blocks(c)


# ---------------------------------------------------------------------------
# Nearness
# ---------------------------------------------------------------------------


def discrete_closure(universe: Universe) -> tuple[int, ...]:
    return tuple(range(1 << universe.size))


def validate_closure_table(universe: Universe, table: tuple[int, ...]) -> None:
    """A closure operator must fix the empty set, be extensive,
    idempotent, and distribute over unions."""
    m = 1 << universe.size
    if len(table) != m:
        raise ValueError("closure table must cover every subset")
    if table[0] != 0:
        raise ValueError("closure must fix the empty set")
    for a in range(m):
        if a & ~table[a]:
            raise ValueError(f"closure must contain its argument: {a}")
        if table[table[a]] != table[a]:
            raise ValueError(f"closure must be idempotent at {a}")
    for a in range(m):
        for b in range(m):
            if table[a | b] != table[a] | table[b]:
                raise ValueError(f"closure must distribute over unions: {a}, {b}")


class ExplicitNearness:
    """Materialized near collections plus a closure operator."""

    def __init__(
        self,
        universe: Universe,
        near_keys: Iterable[int],
        closure: tuple[int, ...] | None = None,
    ):
        self.universe = universe
        self.slots = _slots(universe)
        self.closure = closure if closure is not None else discrete_closure(universe)
        validate_closure_table(universe, self.closure)
        self.keys = frozenset(near_keys)
        t = np.zeros(1 << self.slots, dtype=bool)
        t[list(self.keys)] = True
        self._table = t

    @classmethod
    def from_predicate(
        cls,
        universe: Universe,
        near: Callable[[int], bool],
        closure: tuple[int, ...] | None = None,
    ) -> "ExplicitNearness":
        m = _slots(universe)
        keys = [key for key in range(1 << m) if near(key)]
        return cls(universe, keys, closure)

    def is_near_key(self, key: int) -> bool:
        return bool(self._table[key])

    def is_near(self, fam: Family) -> bool:
        return self.is_near_key(fam.mask_key())

    def table(self) -> np.ndarray:
        return self._table


def topological_nearness(
    universe: Universe, closure: tuple[int, ...] | None = None
) -> ExplicitNearness:
    """Near iff the members' closures have a common point."""
    cl = closure if closure is not None else discrete_closure(universe)
    m = _slots(universe)
    closed = [cl[s] for s in range(m)]
    inter = bo.fold_and(m, closed, (1 << universe.size) - 1)
    keys = [int(k) for k in np.nonzero(inter != 0)[0]]
    return ExplicitNearness(universe, keys, cl)


def check_nearness_axioms(n: ExplicitNearness) -> CheckReport:
    """The four near-collection axioms, with the growth axiom checked
    through upward closures and the product axiom through minimal
    non-member pairs."""
    u, m = n.universe, n.slots
    table = n.table()
    results = []

    # axiom: families with a common point are near (empty family included,
    # its intersection being the whole universe)
    inter = bo.fold_and(m, list(range(m)), (1 << u.size) - 1)
    must = inter != 0
    bad = np.nonzero(must & ~table)[0]
    results.append(
        AxiomResult("common-point", bad.size == 0)
        if bad.size == 0
        else AxiomResult("common-point", False, {"family": _family_str(u, int(bad[0]))})
    )

    # axiom: growing every member keeps the family near
    upset = upset_table(m)
    nonmember_sub = bo.or_has_submask(~table, m)
    bad_growth = None
    for key in np.nonzero(table)[0]:
        if nonmember_sub[upset[key]]:
            grown = _find_flagged_submask(~table, int(upset[key]), m)
            bad_growth = (int(key), grown)
            break
    results.append(
        AxiomResult("growth", bad_growth is None)
        if bad_growth is None
        else AxiomResult(
            "growth",
            False,
            {
                "near": _family_str(u, bad_growth[0]),
                "grown_not_near": _family_str(u, bad_growth[1]),
            },
        )
    )

    # axiom: no near family holds the empty set
    holds = [k for k in np.nonzero(table)[0] if int(k) & 1]
    results.append(
        AxiomResult("no-empty-member", not holds)
        if not holds
        else AxiomResult("no-empty-member", False, {"family": _family_str(u, int(holds[0]))})
    )

    # axiom: the pairwise-union product of two non-near families is not near
    down_closed = bad_growth is None and _is_down_closed(table, m)
    if down_closed:
        pool = np.flatnonzero(bo.minimal_keys(~table, m))
    else:
        if (1 << m) > 512:
            raise CapExceeded(
                "product axiom needs a downward-closed near collection at this size"
            )
        pool = np.flatnonzero(~table)
    img = bo.vee_images(pool, m)
    bad_pair = _first_pair(pool, lambda i0, i1: table[bo.vee_block(pool[i0:i1], img[:, i0:])])
    results.append(
        AxiomResult("product", bad_pair is None)
        if bad_pair is None
        else AxiomResult(
            "product",
            False,
            {
                "left": _family_str(u, bad_pair[0]),
                "right": _family_str(u, bad_pair[1]),
                "near_product": _family_str(u, bo.vee_key(*bad_pair)),
            },
        )
    )
    return CheckReport("nearness axioms", tuple(results))


def upset_table(m: int) -> np.ndarray:
    """upset[F]: key of every superset of some member of the family F."""
    return bo.fold_or(m, [_superset_slots(s, m) for s in range(m)])


def _superset_slots(s: int, m: int) -> int:
    return sum(1 << sup for sup in range(m) if s & ~sup == 0)


def _is_down_closed(table: np.ndarray, m: int) -> bool:
    return np.array_equal(table, bo.down_closure(np.flatnonzero(table), m))


def _find_flagged_submask(flag: np.ndarray, start: int, m: int) -> int:
    """Descend from ``start`` to a flagged submask; requires one to exist."""
    has = bo.or_has_submask(flag, m)
    if not has[start]:
        raise ValueError("no flagged submask below start")
    cur = start
    while not flag[cur]:
        for t in bo.bits(cur):
            if has[cur ^ (1 << t)]:
                cur ^= 1 << t
                break
        else:
            raise AssertionError("flag lookup and descent disagree")
    return cur


def is_h_nearness(n: ExplicitNearness) -> tuple[bool, dict | None]:
    """Does nearness of the closure family force nearness of the family?"""
    table = n.table()
    closure_family = bo.fold_or(n.slots, [1 << c for c in n.closure])
    bad = np.flatnonzero(table[closure_family] & ~table)
    if bad.size == 0:
        return True, None
    key = int(bad[0])
    return False, {
        "family": _family_str(n.universe, key),
        "closure_family": _family_str(n.universe, int(closure_family[key])),
    }


# ---------------------------------------------------------------------------
# Bunches
# ---------------------------------------------------------------------------


def is_bunch(candidate_key: int, n: ExplicitNearness) -> bool:
    """Nonempty near collection, union-prime, and closed under de-closure."""
    if candidate_key == 0:
        return False
    if not n.is_near_key(candidate_key):
        return False
    for a in range(n.slots):
        for b in range(n.slots):
            in_union = candidate_key >> (a | b) & 1
            in_parts = (candidate_key >> a & 1) or (candidate_key >> b & 1)
            if bool(in_union) != bool(in_parts):
                return False
    for a in range(n.slots):
        if candidate_key >> n.closure[a] & 1 and not candidate_key >> a & 1:
            return False
    return True


def enumerate_bunches(n: ExplicitNearness) -> list[int]:
    return [key for key in _up_closed_keys(n.slots) if is_bunch(key, n)]


def _up_closed_keys(m: int) -> list[int]:
    """Keys of up-closed families (cheap precheck for union-prime collections)."""
    keys = np.arange(1 << m)
    return np.flatnonzero((upset_table(m) & ~keys) == 0).tolist()


# ---------------------------------------------------------------------------
# Subset equivalences
# ---------------------------------------------------------------------------


class ExplicitASR:
    """Equivalence relation on the subsets of a small universe."""

    def __init__(self, universe: Universe, block_ids: tuple[int, ...]):
        self.universe = universe
        self.slots = _slots(universe)
        if len(block_ids) != self.slots:
            raise ValueError("need one block id per subset")
        self.block_ids = tuple(block_ids)

    @classmethod
    def identity(cls, universe: Universe) -> "ExplicitASR":
        return cls(universe, tuple(range(_slots(universe))))

    @classmethod
    def one_block(cls, universe: Universe) -> "ExplicitASR":
        return cls(universe, tuple(0 for _ in range(_slots(universe))))

    @classmethod
    def from_blocks(cls, universe: Universe, blocks: list[list[int]]) -> "ExplicitASR":
        ids = [-1] * _slots(universe)
        for i, block in enumerate(blocks):
            for mask in block:
                ids[mask] = i
        if -1 in ids:
            raise ValueError("blocks must cover every subset")
        return cls(universe, tuple(ids))

    def alike(self, a: int, b: int) -> bool:
        return self.block_ids[a] == self.block_ids[b]

    def blocks(self) -> list[int]:
        out: dict[int, int] = {}
        for mask, bid in enumerate(self.block_ids):
            out.setdefault(bid, 0)
            out[bid] |= 1 << mask
        return sorted(out.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExplicitASR):
            return NotImplemented
        return self.universe == other.universe and self.blocks() == other.blocks()

    def __hash__(self) -> int:
        return hash((self.universe, tuple(self.blocks())))


def check_asr_axioms(l: ExplicitASR) -> CheckReport:
    """Union compatibility and decomposition along nonempty parts."""
    u, m = l.universe, l.slots
    results = []

    bad = None
    pairs = [(a, b) for a in range(m) for b in range(m) if l.alike(a, b)]
    for (a1, b1) in pairs:
        for (a2, b2) in pairs:
            if not l.alike(a1 | a2, b1 | b2):
                bad = (a1, b1, a2, b2)
                break
        if bad:
            break
    results.append(
        AxiomResult("union-compatible", bad is None)
        if bad is None
        else AxiomResult(
            "union-compatible",
            False,
            {
                "pair1": f"{_subset_str(u, bad[0])}~{_subset_str(u, bad[1])}",
                "pair2": f"{_subset_str(u, bad[2])}~{_subset_str(u, bad[3])}",
                "unions": f"{_subset_str(u, bad[0] | bad[2])} vs {_subset_str(u, bad[1] | bad[3])}",
            },
        )
    )

    bad = None
    for a1 in range(1, m):
        for a2 in range(1, m):
            for b in range(1, m):
                if not l.alike(a1 | a2, b):
                    continue
                if not any(
                    b1 and b2 and l.alike(a1, b1) and l.alike(a2, b2)
                    for b1 in bo.submasks(b)
                    for b2 in bo.submasks(b)
                    if b1 | b2 == b
                ):
                    bad = (a1, a2, b)
                    break
            if bad:
                break
        if bad:
            break
    results.append(
        AxiomResult("decomposition", bad is None)
        if bad is None
        else AxiomResult(
            "decomposition",
            False,
            {
                "part1": _subset_str(u, bad[0]),
                "part2": _subset_str(u, bad[1]),
                "alike_set": _subset_str(u, bad[2]),
            },
        )
    )
    return CheckReport("subset-equivalence axioms", tuple(results))


# ---------------------------------------------------------------------------
# Coarse relation families
# ---------------------------------------------------------------------------


class ExplicitCoarse:
    """Relation family on a small universe, generated by explicit relations.

    A relation is stored as row masks: ``rel[i]`` is the mask of points
    related to element ``i``.
    """

    def __init__(self, universe: Universe, generators: tuple[tuple[int, ...], ...]):
        self.universe = universe
        n = universe.size
        for rel in generators:
            if len(rel) != n:
                raise ValueError("relation rows must cover the universe")
        self.generators = generators

    @classmethod
    def from_pairs(
        cls, universe: Universe, pair_lists: list[list[tuple[str, str]]]
    ) -> "ExplicitCoarse":
        n = universe.size
        gens = []
        for pairs in pair_lists:
            rows = [0] * n
            for x, y in pairs:
                rows[universe.index(x)] |= 1 << universe.index(y)
            gens.append(tuple(rows))
        return cls(universe, tuple(gens))

    def closure_max(self) -> tuple[int, ...]:
        """Fixpoint of diagonal + generators under union, inverse, composition."""
        n = self.universe.size
        rows = [1 << i for i in range(n)]
        for rel in self.generators:
            rows = [rows[i] | rel[i] for i in range(n)]
        changed = True
        while changed:
            changed = False
            inv = [0] * n
            for i in range(n):
                for j in bo.bits(rows[i]):
                    inv[j] |= 1 << i
            comp = [0] * n
            for i in range(n):
                for z in bo.bits(rows[i]):
                    comp[i] |= rows[z]
            for i in range(n):
                new = rows[i] | inv[i] | comp[i]
                if new != rows[i]:
                    rows[i] = new
                    changed = True
        return tuple(rows)


def check_coarse(c: ExplicitCoarse) -> tuple[tuple[int, ...], CheckReport]:
    """Compute the maximal relation and confirm the family is its down-set."""
    n = c.universe.size
    m_rel = c.closure_max()
    results = []

    refl = all(m_rel[i] >> i & 1 for i in range(n))
    results.append(AxiomResult("reflexive", refl, {} if refl else {"missing": "diagonal"}))

    sym_bad = next(
        ((i, j) for i in range(n) for j in bo.bits(m_rel[i]) if not m_rel[j] >> i & 1),
        None,
    )
    results.append(
        AxiomResult("symmetric", sym_bad is None)
        if sym_bad is None
        else AxiomResult("symmetric", False, {"pair": str(sym_bad)})
    )

    trans_bad = None
    for i in range(n):
        reach = 0
        for z in bo.bits(m_rel[i]):
            reach |= m_rel[z]
        if reach & ~m_rel[i]:
            trans_bad = i
            break
    results.append(
        AxiomResult("transitive", trans_bad is None)
        if trans_bad is None
        else AxiomResult("transitive", False, {"element": c.universe.elements[trans_bad]})
    )

    gen_bad = next(
        (
            (gi, i)
            for gi, rel in enumerate(c.generators)
            for i in range(n)
            if rel[i] & ~m_rel[i]
        ),
        None,
    )
    results.append(
        AxiomResult("generators-below-max", gen_bad is None)
        if gen_bad is None
        else AxiomResult("generators-below-max", False, {"generator": str(gen_bad)})
    )
    return m_rel, CheckReport("coarse relation closure", tuple(results))


def partition_from_relation(universe: Universe, rows: tuple[int, ...]) -> list[int]:
    """Blocks (element masks) of an equivalence given by row masks."""
    seen: set[int] = set()
    blocks = []
    for i in range(universe.size):
        if rows[i] not in seen:
            seen.add(rows[i])
            blocks.append(rows[i])
    return sorted(blocks)


# ---------------------------------------------------------------------------
# Proximity
# ---------------------------------------------------------------------------


class ExplicitProximity:
    """Relation on subset pairs, stored as per-subset row masks."""

    def __init__(self, universe: Universe, rows: tuple[int, ...]):
        self.universe = universe
        self.slots = _slots(universe)
        if len(rows) != self.slots:
            raise ValueError("need one row per subset")
        self.rows = tuple(rows)

    @classmethod
    def from_predicate(cls, universe: Universe, near: Callable[[int, int], bool]):
        m = _slots(universe)
        rows = []
        for a in range(m):
            row = 0
            for b in range(m):
                if near(a, b):
                    row |= 1 << b
            rows.append(row)
        return cls(universe, tuple(rows))

    @classmethod
    def discrete(cls, universe: Universe) -> "ExplicitProximity":
        return cls.from_predicate(universe, lambda a, b: a & b != 0)

    def near(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)


def check_proximity_axioms(p: ExplicitProximity) -> CheckReport:
    u, m = p.universe, p.slots
    results = []

    bad = next(
        ((a, b) for a in range(m) for b in range(m) if p.near(a, b) != p.near(b, a)),
        None,
    )
    results.append(
        AxiomResult("symmetric", bad is None)
        if bad is None
        else AxiomResult("symmetric", False, {"pair": _pair_str(u, bad)})
    )

    bad = None
    for a in range(m):
        for b in range(m):
            for cmask in range(m):
                if p.near(a, b | cmask) != (p.near(a, b) or p.near(a, cmask)):
                    bad = (a, b, cmask)
                    break
            if bad:
                break
        if bad:
            break
    results.append(
        AxiomResult("union-distributive", bad is None)
        if bad is None
        else AxiomResult(
            "union-distributive",
            False,
            {"triple": f"{_subset_str(u, bad[0])}, {_subset_str(u, bad[1])}, {_subset_str(u, bad[2])}"},
        )
    )

    bad = next(
        ((a, b) for a in range(m) for b in range(m) if p.near(a, b) and (a == 0 or b == 0)),
        None,
    )
    results.append(
        AxiomResult("nonempty-arguments", bad is None)
        if bad is None
        else AxiomResult("nonempty-arguments", False, {"pair": _pair_str(u, bad)})
    )

    full = m - 1
    bad = None
    for a in range(m):
        for b in range(m):
            if p.near(a, b):
                continue
            if not any(
                not p.near(a, d) and not p.near(full & ~d, b) for d in range(m)
            ):
                bad = (a, b)
                break
        if bad:
            break
    results.append(
        AxiomResult("separating-set", bad is None)
        if bad is None
        else AxiomResult("separating-set", False, {"pair": _pair_str(u, bad)})
    )
    return CheckReport("proximity axioms", tuple(results))


def _pair_str(u: Universe, pair: tuple[int, int]) -> str:
    return f"{_subset_str(u, pair[0])}, {_subset_str(u, pair[1])}"


def enumerate_clusters(p: ExplicitProximity) -> list[int]:
    """All maximal mutually-near collections, by exhaustive search over
    up-closed candidates (union-primeness forces upward closure)."""
    m = p.slots
    out = []
    for key in _up_closed_keys(m):
        if key == 0:
            continue
        members = list(bo.bits(key))
        if any(not p.near(a, b) for a in members for b in members):
            continue
        if any(
            bool(key >> (a | b) & 1) != bool(key >> a & 1 or key >> b & 1)
            for a in range(m)
            for b in range(m)
        ):
            continue
        if any(
            all(p.near(a, b) for b in members) and not key >> a & 1 for a in range(m)
        ):
            continue
        out.append(key)
    return out


def proximal_nearness(p: ExplicitProximity) -> ExplicitNearness:
    """Near iff all members are pairwise near in the proximity."""

    def near(key: int) -> bool:
        members = list(bo.bits(key))
        return all(p.near(a, b) for a in members for b in members)

    return ExplicitNearness.from_predicate(p.universe, near)
