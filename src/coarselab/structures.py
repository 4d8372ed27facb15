"""Explicit finite structures and exhaustive axiom checkers.

Each structure class materializes one of the axiom systems on a small
universe: alike-in-large-scale collections (ExplicitLSR), near
collections (ExplicitNearness), subset equivalences (ExplicitASR),
relation families closed under composition (ExplicitCoarse), and
nearness relations on subset pairs (ExplicitProximity).  Checkers
return per-axiom verdicts with concrete violating witnesses.

An exhaustive check is one boolean table over the slot tuples its axiom
quantifies over, True where the axiom fails; ``_first`` reads off the
first violation in ascending slot-tuple (row-major) order, which is the
order of the nested loops the table replaces, and ``_axiom`` turns it
into a pass or a failure with its witness.  Tables stay within 16^4
entries, since the checkers take at most ``CHECKER_UNIVERSE_CAP``
points.  One witness is not in slot order: the downward-closure scan of
``check_lsr_axioms`` takes the member keys in the iteration order of the
collection's key set.

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


def _first(flag) -> tuple[int, ...] | None:
    """Index tuple of the first True entry of a boolean table in row-major
    order, or None when there is none."""
    flag = np.asarray(flag)
    if flag.size:
        i = int(flag.argmax())
        if flag.flat[i]:
            return tuple(int(x) for x in np.unravel_index(i, flag.shape))
    return None


def _axiom(name: str, bad: tuple | None, witness: Callable[..., dict]) -> AxiomResult:
    """Pass when ``bad`` is None, else fail with ``witness(*bad)``."""
    return AxiomResult(name, True) if bad is None else AxiomResult(name, False, witness(*bad))


def _members(keys: np.ndarray, m: int) -> np.ndarray:
    """has[i, s]: bit s of keys[i] is set (family keys over subset slots,
    or relation rows over points)."""
    return np.asarray(keys, dtype=np.int64)[:, None] >> np.arange(m) & 1 == 1


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

    @functools.cached_property
    def _maximal(self) -> list[int]:
        return np.flatnonzero(bo.maximal_keys(self.table(), self.slots)).tolist()

    def maximal_keys(self) -> list[int]:
        return list(self._maximal)

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
        # each point of y goes to its rank in y; families that hold a point
        # outside y are not kept, so those points may go anywhere
        ranks = [
            1 << (y.mask & (1 << i) - 1).bit_count() if y.mask >> i & 1 else 0
            for i in range(self.universe.size)
        ]
        image = bo.image_keys(ranks)
        return ExplicitLSR(Universe(y.labels()), image[self.table() & (outside == 0)].tolist())


def check_lsr_axioms(c: ExplicitLSR) -> CheckReport:
    """Per-axiom verdicts: singletons, downward closure, intersecting
    unions, and closure under the pairwise-union product.  The
    downward-closure witness is the first member key, in the iteration
    order of ``c.keys``, and its first slot whose removal leaves the
    collection."""
    u, m = c.universe, c.slots
    table = c.table()
    fam = functools.partial(_family_str, u)
    results = [
        _axiom(
            "singletons",
            _first(~table[1 << np.arange(m)]),
            lambda s: {"missing": _subset_str(u, s)},
        )
    ]

    if _is_down_closed(table, m):
        gap = None
        tops = np.array(c.maximal_keys(), dtype=np.int64)
    else:
        if len(c.keys) > 4096:
            raise CapExceeded("closure axioms need a downward-closed collection at this size")
        keys = np.fromiter(c.keys, dtype=np.int64, count=len(c.keys))
        gap = _first(_members(keys, m) & ~table[keys[:, None] ^ 1 << np.arange(m)])
        tops = np.flatnonzero(table)
    results.append(
        _axiom(
            "downward-closure",
            gap,
            lambda i, t: {
                "family": fam(int(keys[i])),
                "missing_subfamily": fam(int(keys[i]) ^ 1 << t),
            },
        )
    )

    def union_gap(i0, i1):
        f, g = tops[i0:i1, None], tops[None, i0:]
        return (f & g != 0) & ~table[f | g]

    results.append(
        _axiom(
            "intersecting-union",
            _first_pair(tops, union_gap),
            lambda f, g: {"left": fam(f), "right": fam(g), "missing_union": fam(f | g)},
        )
    )
    img = bo.vee_images(tops, m)
    results.append(
        _axiom(
            "union-product",
            _first_pair(tops, lambda i0, i1: ~table[bo.vee_block(tops[i0:i1], img[:, i0:])]),
            lambda f, g: {
                "left": fam(f),
                "right": fam(g),
                "missing_product": fam(bo.vee_key(f, g)),
            },
        )
    )
    return CheckReport("large-scale resemblance axioms", tuple(results))


def _first_pair(keys: np.ndarray, bad) -> tuple[int, int] | None:
    """First pair (keys[i], keys[j]), i <= j, in combinations_with_replacement
    order that ``bad`` flags; bad(i0, i1) flags the row block keys[i0:i1]
    against the columns keys[i0:]."""
    for i0, i1, upper in bo.pair_blocks(len(keys)):
        hit = _first(upper & bad(i0, i1))
        if hit is not None:
            return int(keys[i0 + hit[0]]), int(keys[i0 + hit[1]])
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
        bad = _first((fams[:, None] >> split_a & 1 == 1) & ~held[:, split_1, split_2])
        if bad is not None:
            f, s = bad
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
    """A closure operator must map subsets to subsets, fix the empty set,
    be extensive, idempotent, and distribute over unions.  Each error
    names the first failing subset, or pair of subsets."""
    m = 1 << universe.size
    if len(table) != m:
        raise ValueError("closure table must cover every subset")
    if table[0] != 0:
        raise ValueError("closure must fix the empty set")
    t, s = np.asarray(table), np.arange(m)
    bad = _first((t < 0) | (t >= m))
    if bad is not None:
        raise ValueError(f"closure must map to subsets: {bad[0]}")
    bad = _first(np.column_stack((s & ~t != 0, t[t] != t)))
    if bad is not None:
        a, idempotence = bad
        if idempotence:
            raise ValueError(f"closure must be idempotent at {a}")
        raise ValueError(f"closure must contain its argument: {a}")
    bad = _first(t[s[:, None] | s] != t[:, None] | t)
    if bad is not None:
        raise ValueError("closure must distribute over unions: {}, {}".format(*bad))


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
    _slots(universe)  # refuses a universe past the cap before any table is built
    cl = closure if closure is not None else discrete_closure(universe)
    return ExplicitNearness(universe, np.flatnonzero(common_point_table(cl)).tolist(), cl)


def common_point_table(closure: tuple[int, ...]) -> np.ndarray:
    """near[F]: the closures of the members of F share a point (the empty
    family included, its intersection being the whole universe)."""
    m = len(closure)
    return bo.fold_and(m, list(closure), m - 1) != 0


def check_nearness_axioms(n: ExplicitNearness) -> CheckReport:
    """The four near-collection axioms, with the growth axiom checked
    through upward closures and the product axiom through minimal
    non-member pairs."""
    u, m = n.universe, n.slots
    table = n.table()
    fam = functools.partial(_family_str, u)
    # families with a common point are near
    common = _first(common_point_table(discrete_closure(u)) & ~table)
    # growing every member keeps a near family near
    upset = upset_table(m)
    growth = _first(table & bo.or_has_submask(~table, m)[upset])
    # no near family holds the empty set, which the odd keys hold
    empty = _first(table[1::2])

    # the pairwise-union product of two non-near families is not near
    if growth is None and _is_down_closed(table, m):
        pool = np.flatnonzero(bo.minimal_keys(~table, m))
    else:
        if (1 << m) > 512:
            raise CapExceeded(
                "product axiom needs a downward-closed near collection at this size"
            )
        pool = np.flatnonzero(~table)
    img = bo.vee_images(pool, m)
    product = _first_pair(pool, lambda i0, i1: table[bo.vee_block(pool[i0:i1], img[:, i0:])])

    results = (
        _axiom("common-point", common, lambda k: {"family": fam(k)}),
        _axiom(
            "growth",
            growth,
            lambda k: {
                "near": fam(k),
                "grown_not_near": fam(_find_flagged_submask(~table, int(upset[k]), m)),
            },
        ),
        _axiom("no-empty-member", empty, lambda i: {"family": fam(2 * i + 1)}),
        _axiom(
            "product",
            product,
            lambda f, g: {"left": fam(f), "right": fam(g), "near_product": fam(bo.vee_key(f, g))},
        ),
    )
    return CheckReport("nearness axioms", results)


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
    bad = _first(table[closure_family] & ~table)
    if bad is None:
        return True, None
    key = bad[0]
    return False, {
        "family": _family_str(n.universe, key),
        "closure_family": _family_str(n.universe, int(closure_family[key])),
    }


# ---------------------------------------------------------------------------
# Bunches
# ---------------------------------------------------------------------------


def is_bunch(candidate_key: int, n: ExplicitNearness) -> bool:
    """Nonempty near collection, union-prime, and closed under de-closure."""
    return bool(_bunches(np.array([candidate_key]), n)[0])


def enumerate_bunches(n: ExplicitNearness) -> list[int]:
    keys = _up_closed_keys(n.slots)
    return keys[_bunches(keys, n)].tolist()


def _bunches(keys: np.ndarray, n: ExplicitNearness) -> np.ndarray:
    """Which of the family keys are bunches of ``n``."""
    has = _members(keys, n.slots)
    # a subset whose closure is a member is a member
    declosed = (has | ~has[:, np.asarray(n.closure)]).all(axis=1)
    return (keys != 0) & n.table()[keys] & _union_prime(has) & declosed


def _union_prime(has: np.ndarray) -> np.ndarray:
    """Per row of a membership matrix: the union of two subsets is a
    member exactly when one of them is."""
    s = np.arange(has.shape[1])
    return (has[:, s[:, None] | s] == has[:, :, None] | has[:, None, :]).all(axis=(1, 2))


def _up_closed_keys(m: int) -> np.ndarray:
    """Keys of up-closed families, ascending; union-prime families are
    up-closed, so they hold every bunch and every cluster."""
    keys = np.arange(1 << m)
    return np.flatnonzero((upset_table(m) & ~keys) == 0)


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


def _alike(l: ExplicitASR) -> np.ndarray:
    """alike[a, b]: the subsets a and b are in one block."""
    ids = np.asarray(l.block_ids)
    return ids[:, None] == ids


def check_asr_axioms(l: ExplicitASR) -> CheckReport:
    """Union compatibility over every two alike pairs a1 ~ b1, a2 ~ b2,
    and decomposition over every nonempty a1, a2 and b."""
    u, m = l.universe, l.slots
    sub = functools.partial(_subset_str, u)
    alike, s = _alike(l), np.arange(m)
    union = s[:, None] | s
    # [a1, b1, a2, b2]: a1 ~ b1 and a2 ~ b2, but a1 | a2 and b1 | b2 are not alike
    unions_apart = ~alike[union[:, None, :, None], union[None, :, None, :]]
    # [b1, b2, b]: b is the union of the nonempty parts b1 and b2
    parts = (union[:, :, None] == s) & (s[:, None, None] > 0) & (s[:, None] > 0)
    # [a1, a2, b]: b splits into parts alike a1 and a2
    splits = np.einsum("ix,jy,xyb->ijb", alike, alike, parts, optimize=True)
    nonempty = (s[:, None, None] > 0) & (s[:, None] > 0) & (s > 0)
    results = (
        _axiom(
            "union-compatible",
            _first(alike[:, :, None, None] & alike & unions_apart),
            lambda a1, b1, a2, b2: {
                "pair1": f"{sub(a1)}~{sub(b1)}",
                "pair2": f"{sub(a2)}~{sub(b2)}",
                "unions": f"{sub(a1 | a2)} vs {sub(b1 | b2)}",
            },
        ),
        _axiom(
            "decomposition",
            _first(nonempty & alike[union] & ~splits),
            lambda a1, a2, b: {"part1": sub(a1), "part2": sub(a2), "alike_set": sub(b)},
        ),
    )
    return CheckReport("subset-equivalence axioms", results)


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
    rel = _members(m_rel, n)
    gens = np.array(c.generators, dtype=np.int64).reshape(-1, n)
    results = (
        _axiom("reflexive", _first(~rel.diagonal()), lambda i: {"missing": "diagonal"}),
        _axiom("symmetric", _first(rel & ~rel.T), lambda i, j: {"pair": str((i, j))}),
        _axiom(
            "transitive",
            _first((rel @ rel & ~rel).any(axis=1)),
            lambda i: {"element": c.universe.elements[i]},
        ),
        _axiom(
            "generators-below-max",
            _first(gens & ~np.array(m_rel) != 0),
            lambda g, i: {"generator": str((g, i))},
        ),
    )
    return m_rel, CheckReport("coarse relation closure", results)


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
    """Symmetry, union distributivity, empty arguments and separating
    sets, on the table near[a, b] of every pair of subsets."""
    u, m = p.universe, p.slots
    sub = functools.partial(_subset_str, u)
    near, s = _members(p.rows, m), np.arange(m)
    # [a, b, c]: near(a, b | c) differs from near(a, b) or near(a, c)
    undistributed = near[:, s[:, None] | s] != near[:, :, None] | near[:, None, :]
    # [a, b]: some set d is not near a while its complement is not near b
    separated = ~near @ ~near[(m - 1) ^ s]

    def pair(a, b):
        return {"pair": f"{sub(a)}, {sub(b)}"}

    results = (
        _axiom("symmetric", _first(near != near.T), pair),
        _axiom(
            "union-distributive",
            _first(undistributed),
            lambda a, b, c: {"triple": f"{sub(a)}, {sub(b)}, {sub(c)}"},
        ),
        _axiom("nonempty-arguments", _first(near & ((s[:, None] == 0) | (s == 0))), pair),
        _axiom("separating-set", _first(~near & ~separated), pair),
    )
    return CheckReport("proximity axioms", results)


def enumerate_clusters(p: ExplicitProximity) -> list[int]:
    """All maximal mutually-near collections, by exhaustive search over
    up-closed candidates (union-primeness forces upward closure)."""
    keys = _up_closed_keys(p.slots)
    has, far = _members(keys, p.slots), ~_members(p.rows, p.slots)
    mutual = ~(has @ far & has).any(axis=1)
    # no subset near every member stays outside
    maximal = ~(~(has @ far.T) & ~has).any(axis=1)
    return keys[(keys != 0) & mutual & _union_prime(has) & maximal].tolist()


def proximal_nearness(p: ExplicitProximity) -> ExplicitNearness:
    """Near iff all members are pairwise near in the proximity: a family
    is far exactly when it holds the key {a, b} of a pair that is not near
    (a = b included)."""
    m = p.slots
    s = np.arange(m)
    far = np.zeros(1 << m, dtype=bool)
    far[(1 << s[:, None] | 1 << s)[~_members(p.rows, m)]] = True
    return ExplicitNearness(p.universe, np.flatnonzero(~bo.or_has_submask(far, m)).tolist())
