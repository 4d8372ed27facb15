"""Independent brute-force oracles used to validate the production engines.

These deliberately avoid the library's own window-bound reasoning: they
scan wide windows with plain bisect arithmetic so that agreement with
the exact engines is meaningful.  The finite-tier oracles work on Python
sets of family keys, one key and one pair at a time; the reference for
the packed-word sweep kernels of ``_bitops`` is their byte-table form,
one bool byte per key, with bit pairs read as word views.  The module ends
with helpers that are not oracles: test-side constructors and the
seeded map sweeps of acceptance criterion 7.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left
from math import lcm
from typing import Callable, Iterable

import numpy as np

from coarselab import _bitops as bo
from coarselab.backends import MetricLineBackend, NearnessQuery, PartitionCoarseBackend, nearness_of
from coarselab import lineset as ls
from coarselab.lineset import PeriodicSet, _cushion, _distances_to, _padded_window
from coarselab.maps import ExplicitMap, LineMap, displacement_bound, is_ls_equivalence
from coarselab.mining import all_partitions, universe_of_size
from coarselab.nearness_lab import BunchObstruction, ObstructionBudgetExhausted, ScaleCheck
from coarselab.setcore import Family, Subset, Universe
from coarselab.structures import ExplicitASR, ExplicitLSR, ExplicitNearness, _two_part_splits
from coarselab.verdict import TriVerdict


def nearest_distance(sorted_elems: list[int], x: int) -> int:
    i = bisect_left(sorted_elems, x)
    best = None
    if i < len(sorted_elems):
        best = sorted_elems[i] - x
    if i > 0:
        d = x - sorted_elems[i - 1]
        best = d if best is None else min(best, d)
    return best


def last_within_reference(dists: np.ndarray, scales) -> np.ndarray:
    """For each scale ``k``, the last index ``i`` with ``dists[i] <= k``, or
    -1, from one running min of the whole array taken from the right."""
    tail_min = np.minimum.accumulate(dists[::-1])[::-1]
    return np.searchsorted(tail_min, scales, "right") - 1


def brute_hausdorff(a: PeriodicSet, b: PeriodicSet) -> int:
    """Directed sups over [0, W] with W = 10 * (N0 + 2L), exact point distances."""
    n0 = max(a.stabilization_base(), b.stabilization_base())
    period = lcm(a.period(), b.period())
    w = 10 * (n0 + 2 * period)
    pad = w + 10 * (n0 + 2 * period)
    ea, eb = a.window(pad), b.window(pad)
    sup_ab = max(nearest_distance(eb, x) for x in ea if x <= w)
    sup_ba = max(nearest_distance(ea, x) for x in eb if x <= w)
    return max(sup_ab, sup_ba)


def _draw_periodic(rng: random.Random, allow_finite: bool) -> tuple[tuple, tuple, tuple]:
    """(finite part, progressions, removals) of a seeded periodic set; the
    removals come from the set body up to 40."""
    randint = rng.randint
    aps = [(randint(0, 25), randint(1, 9)) for _ in range(randint(0 if allow_finite else 1, 2))]
    fin = [randint(0, 30) for _ in range(randint(0, 3))]
    k = randint(0, 2)
    cand = sorted(set(fin).union(*(range(s, 41, p) for s, p in aps))) if k else []
    return tuple(fin), tuple(aps), tuple(rng.sample(cand, min(len(cand), k)))


def random_periodic(rng: random.Random, allow_finite: bool = False) -> PeriodicSet:
    return PeriodicSet(*_draw_periodic(rng, allow_finite))


def line_product_pairs(rng: random.Random, count: int):
    """``count`` pairs of families of one or two seeded nonempty periodic
    sets, neither family near on its own.

    Each pair is drawn as a family of ``random_periodic`` sets, then
    another; draws with an empty set or a one-member family are skipped
    before any set is built.  A nonempty one-member family is always
    near, by the common-point clause, so the pairs kept are the same as
    if every draw were built and queried.
    """
    backend = MetricLineBackend()

    def near(sets):
        return nearness_of(NearnessQuery(backend, sets)).is_yes

    kept = 0
    while kept < count:
        drawn = [[_draw_periodic(rng, True) for _ in range(rng.randint(1, 2))] for _ in range(2)]
        if any(len(fam) == 1 for fam in drawn):
            continue
        if any(not aps and set(fin) <= set(rem) for fam in drawn for fin, aps, rem in fam):
            continue
        a, b = ([PeriodicSet(*t) for t in fam] for fam in drawn)
        if near(a) or near(b):
            continue
        kept += 1
        yield a, b


def bunch_families(rng: random.Random, count: int):
    """``count`` seeded families of two to four residue classes of one even
    modulus from 4 to 12: pairwise disjoint, near, infinite exact sets."""
    for _ in range(count):
        modulus = 2 * rng.randint(2, 6)
        residues = rng.sample(range(modulus), rng.randint(2, min(4, modulus)))
        yield [ls.arithmetic(r, modulus) for r in residues]


def reference_sides(pivot, window: int):
    """The pivot's window, padded, and for each side of the normality split
    of its sparsify halves: the side's points in ``[0, window]`` with their
    distances to the pivot.  Every point of ``[0, window]`` is measured
    against each half by ``searchsorted``.  None when a half has no point
    in its padded window."""
    halves = [_padded_window(h, window) for h in ls.sparsify_split(pivot)]
    if any(h.size == 0 for h in halves):
        return None
    lw = pivot.window_array(window + _cushion(pivot, window))
    pts = np.arange(window + 1, dtype=np.int64)
    da, db = (_distances_to(pts, h) for h in halves)
    return lw, [(sw, _distances_to(sw, lw)) for sw in (pts[da >= db], pts[db >= da])]


def scale_checks_reference(family, budget: int, window: int):
    """The scale checks of ``bunch_obstruction(family, budget, window)`` by
    whole-window passes: each candidate is masked from its whole side, and
    every guarded pivot point is measured against the whole candidate.

    Returns the checks up to the first one the window cannot decide, and
    that check's failure message, or None when all are decided."""
    sides = reference_sides(family[0], window)
    if sides is None:
        return (), "window too small for the pivot member"
    lw, sides = sides
    checks = []
    for side, (sw, d_side) in enumerate(sides):
        for k in range(budget + 1):
            candidate = sw[d_side <= k]
            witnesses = lw[lw <= window - k]
            if candidate.size == 0:
                if witnesses.size == 0:
                    return tuple(checks), "window too small for the pivot member"
                checks.append(ScaleCheck(k, side, int(witnesses[0]), None))
                continue
            dists = _distances_to(witnesses, candidate)
            far = np.flatnonzero(dists > k)
            if far.size == 0:
                return tuple(checks), (
                    f"scale check failed: side {side} holds a candidate within "
                    f"{k} of every member point up to the window"
                )
            checks.append(ScaleCheck(k, side, int(witnesses[far[0]]), int(dists[far[0]])))
    return tuple(checks), None


def _chunks(n: int):
    """``(start, stop)`` bounds of the chunks of 64, 128, 256, ... entries
    that cover ``range(n)``."""
    start, size = 0, 64
    while start < n:
        yield start, min(start + size, n)
        start += size
        size *= 2


def _first_far(points, side, d_side, k):
    """The first of the sorted ``points`` farther than ``k`` from the
    nonempty candidate ``side[d_side <= k]``, with its distance, or None,
    scanned chunk by chunk against the candidate points up to the chunk's
    last point plus ``k`` and the first candidate point past them."""
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


def bunch_obstruction_reference(family, budget: int, window: int) -> BunchObstruction:
    """``bunch_obstruction`` for a valid family as it was built over the
    whole window: the three distance fields over ``[0, window]``, the
    coverage evidence of all of it, and a ``_first_far`` scan per check.
    Raises ``ObstructionBudgetExhausted`` as the build does."""
    pivot = family[0]
    half1, half2 = ls.sparsify_split(pivot)
    lw_pad, field, field1, field2 = ls._sparsify_fields(pivot, window)
    if field1 is None or field2 is None:
        raise ObstructionBudgetExhausted("window too small for the pivot member")
    scales = (1, 2, 4, 8, 16, 32)
    in1, in2 = field1 >= field2, field2 >= field1
    last_a = last_within_reference(np.where(in1, field1, ls._FAR), scales).tolist()
    last_b = last_within_reference(np.where(in2, field2, ls._FAR), scales).tolist()
    evidence = [
        {"scale": k, "last_near_a": a, "last_near_b": b}
        for k, a, b in zip(scales, last_a, last_b)
    ]
    checks = []
    for side_idx, sw in enumerate((np.flatnonzero(in1), np.flatnonzero(in2))):
        d_side = field[sw]
        nearest = int(d_side.min()) if sw.size else None
        for k in range(budget + 1):
            witnesses = lw_pad[: np.searchsorted(lw_pad, window - k, "right")]
            if nearest is None or nearest > k:
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
    worst = max(
        ls.hausdorff_distance(a, b).value for a, b in itertools.combinations(family, 2)
    )
    sides = [ls.BlocksSet("nearer-side", (s,), (half1, half2), ("divergent",)) for s in (0, 1)]
    return BunchObstruction(
        family=tuple(family),
        refiner_scale=worst,
        pivot=pivot,
        half1=half1,
        half2=half2,
        side1=sides[0],
        side2=sides[1],
        coverage=TriVerdict.yes(window=window, scales=evidence),
        scale_checks=tuple(checks),
        scale_budget=budget,
        window=window,
    )


def revalidate_reference(cert) -> bool:
    """``BunchObstruction.revalidate`` as it was before it checked the
    certificate from the pivot's derived fields: each stored half is
    probed point by point, each stored side's window is built and
    measured against the pivot, and each scale check masks its
    candidate from its whole side.  It trusts the stored halves, and
    raises ``LineSetError`` when a check claims a distance to an empty
    candidate.

    Each stored side's window, and its distances to the pivot, are
    built once and shared by all the scale checks of that side.
    """
    if not cert.complete or cert.window < 0:
        return False
    for half in (cert.half1, cert.half2):
        probe = half.window(4096)
        if any(not cert.pivot.contains(x) for x in probe):
            return False
        if len(probe) < 8:
            return False
    windows = (cert.side1.window_array(cert.window), cert.side2.window_array(cert.window))
    # window_array(hi) holds points of [0, hi] only, so a table covers it
    covered = np.zeros(cert.window + 1, dtype=bool)
    covered[np.concatenate(windows)] = True
    if not covered.all():
        return False
    lw = cert.pivot.window_array(cert.window + _cushion(cert.pivot, cert.window))
    sides = [(w, _distances_to(w, lw) if w.size else w) for w in windows]
    for check in cert.scale_checks:
        sw, d_side = sides[0] if check.side == 0 else sides[1]
        k = check.scale
        near = sw[d_side <= k]
        l = check.member_point
        if not cert.pivot.contains(l) or l > cert.window - k:
            return False
        if check.distance_to_candidate is None:
            if near.size:
                return False
            continue
        d = int(_distances_to(np.asarray([l]), near)[0])
        if d != check.distance_to_candidate or d <= k:
            return False
    return True


def halves(a: np.ndarray, m: int):
    """For each bit t < m, word views (lo, hi) of the contiguous bool
    array ``a`` over the keys without and with bit t, paired by
    ``key ^ (1 << t)``: the table read as 2^k-byte words, k = min(t, 3),
    holds 2^k consecutive keys per word, and OR on words is OR on the
    0/1 bytes inside them."""
    for t in range(m):
        k = min(t, 3)
        v = a.view(f"u{1 << k}").reshape(-1, 2, 1 << (t - k))
        yield v[:, 0], v[:, 1]


def or_has_submask_bytes(flag: np.ndarray, m: int) -> np.ndarray:
    """``_bitops.or_has_submask`` on the byte table: every hi |= lo."""
    g = np.ascontiguousarray(flag).copy()
    for lo, hi in halves(g, m):
        hi |= lo
    return g


def down_closure_bytes(keys, m: int) -> np.ndarray:
    """``_bitops.down_closure`` on the byte table: every lo |= hi."""
    table = np.zeros(1 << m, dtype=bool)
    table[keys] = True
    for lo, hi in halves(table, m):
        lo |= hi
    return table


def maximal_keys_bytes(member: np.ndarray, m: int) -> np.ndarray:
    """``_bitops.maximal_keys`` on the byte table: one lo |= hi step per bit."""
    member = np.ascontiguousarray(member)
    dominated = np.zeros_like(member)
    for (lo, _), (_, bigger) in zip(halves(dominated, m), halves(member, m)):
        lo |= bigger
    return member & ~dominated


def minimal_keys_bytes(flag: np.ndarray, m: int) -> np.ndarray:
    """``_bitops.minimal_keys`` on the byte table: one hi |= lo step per bit."""
    flag = np.ascontiguousarray(flag)
    dominated = np.zeros_like(flag)
    for (_, hi), (smaller, _) in zip(halves(dominated, m), halves(flag, m)):
        hi |= smaller
    return flag & ~dominated


def _members(key: int) -> list[int]:
    return [s for s in range(key.bit_length()) if key >> s & 1]


def unbounded_refiners(table, n: int) -> list[tuple[int, list[int]]]:
    """(key, members), ascending, of the nonempty member families without
    a bounded member; a set s is bounded when some family {s, {x}} is a
    member."""

    def bounded(s: int) -> bool:
        return s == 0 or any(table[1 << s | 1 << (1 << x)] for x in range(n))

    out = []
    for wit in range(1, len(table)):
        if table[wit]:
            members = _members(wit)
            if not any(bounded(s) for s in members):
                out.append((wit, members))
    return out


def bounded_reference(backend, s: Subset) -> TriVerdict:
    """``FiniteBackend.bounded`` as a loop over the points, one family
    {s, {x}} looked up at a time."""
    if s.is_empty:
        return TriVerdict.yes(reason="empty")
    table = backend.member_table()
    for x in range(backend.universe.size):
        if table[bo.masks_to_key([s.mask, 1 << x])]:
            return TriVerdict.yes(point=backend.universe.elements[x])
    return TriVerdict.no(set=str(s))


def is_connected_reference(backend) -> TriVerdict:
    """``FiniteBackend.is_connected`` as a loop over the point pairs."""
    table = backend.member_table()
    n = backend.universe.size
    for i, j in itertools.combinations(range(n), 2):
        if not table[bo.masks_to_key([1 << i, 1 << j])]:
            return TriVerdict.no(pair=(backend.universe.elements[i], backend.universe.elements[j]))
    return TriVerdict.yes(pairs=n * (n - 1) // 2)


def preimage_mask_reference(f: ExplicitMap, mask: int) -> int:
    """The domain points that the map sends into the codomain subset ``mask``."""
    out = 0
    for i, t in enumerate(f.table):
        if mask >> t & 1:
            out |= 1 << i
    return out


# The fixed pool of exact line sets that the sampled line-map checks draw
# their member families from.
LINE_SAMPLE_POOL = (
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


def _sampled_member_families(max_size: int):
    """Member families of the metric line drawn from ``LINE_SAMPLE_POOL``,
    of 1 to ``max_size`` sets."""
    backend = MetricLineBackend()
    for r in range(1, max_size + 1):
        for fam in itertools.combinations(LINE_SAMPLE_POOL, r):
            if backend.member(list(fam)).is_yes:
                yield list(fam)


def sampled_is_lsr_map(f: LineMap) -> TriVerdict:
    """A line map's structure-map check by sampling: No for a zero slope,
    else No at the first sampled member family of up to 3 sets whose
    image family is not a member."""
    num, den = f.slope()
    if num == 0:
        return TriVerdict.no(
            reason="unbounded-preimage",
            bounded_set=[f.apply(0)],
            note="constant map pulls a point back to the whole line",
        )
    backend = MetricLineBackend()
    checked = 0
    for fam in _sampled_member_families(3):
        images = [f.image_of(s) for s in fam]
        if not backend.member(images).is_yes:
            return TriVerdict.no(
                reason="image-not-member",
                family=[s.to_json() for s in fam],
                image=[s.to_json() for s in images],
            )
        checked += 1
    return TriVerdict.yes(sampled_families=checked, slope=f"{num}/{den}")


def sampled_is_ls_equivalence(f: LineMap, g: LineMap) -> TriVerdict:
    """A line-map equivalence check by sampling: both maps pass
    ``sampled_is_lsr_map``, both round trips have a displacement bound,
    and each round trip absorbs every sampled member family of up to 2
    sets into the union with its image."""
    for reason, h in (("forward-not-structure-map", f), ("backward-not-structure-map", g)):
        v = sampled_is_lsr_map(h)
        if not v.is_yes:
            return TriVerdict.no(reason=reason, inner=dict(v.witness))
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
        for fam in _sampled_member_families(2):
            if not backend.member(fam + [comp.image_of(s) for s in fam]).is_yes:
                return TriVerdict.no(reason="roundtrip-not-absorbed", family=[s.to_json() for s in fam])
            checked += 1
    return TriVerdict.yes(**bounds, sampled_families=checked)


def first_refiner(refiners: list[tuple[int, list[int]]], key: int) -> int | None:
    """First refiner with a member inside each member of the family ``key``."""
    sets = _members(key)
    for wit, members in refiners:
        if all(any(b & ~a == 0 for b in members) for a in sets):
            return wit
    return None


def close_lsr_reference(universe: Universe, generator_keys, cap: int = 8192) -> ExplicitLSR | None:
    """``mining.close_lsr`` by its set-based definition: every submask of
    every new key goes into a Python set, and each round pairs the
    maximal keys one pair at a time.  None once the set outgrows the cap."""
    m = 1 << universe.size
    keys: set[int] = {0} | {1 << s for s in range(m)}
    for gen in generator_keys:
        keys.update(bo.submasks(gen))
    changed = True
    while changed:
        changed = False
        table = np.zeros(1 << m, dtype=bool)
        table[list(keys)] = True
        tops = [int(k) for k in np.flatnonzero(maximal_keys_bytes(table, m))]
        for f, g in itertools.combinations_with_replacement(tops, 2):
            new = [f | g] if f & g else []
            new.append(bo.vee_key(f, g))
            for key in new:
                if key not in keys:
                    keys.update(bo.submasks(key))
                    changed = True
            if len(keys) > cap:
                return None
    return ExplicitLSR(universe, keys)


def is_ls_regular_reference(c: ExplicitLSR) -> tuple[bool, dict | None]:
    """``structures.is_ls_regular`` by its defining scan: for each maximal
    family, member set and two-part split in turn, look for a pair of
    maximal families holding the two parts whose pairwise unions give
    every member of the family, one member and one submask at a time."""
    u = c.universe
    tops = c.maximal_keys()
    for fam_key in tops:
        for a in bo.bits(fam_key):
            for a1, a2 in _two_part_splits(a):
                if not any(
                    _covers(k1, k2, fam_key)
                    for k1 in tops
                    if k1 >> a1 & 1
                    for k2 in tops
                    if k2 >> a2 & 1
                ):
                    return False, {
                        "family": str(Family.from_mask_key(u, fam_key)),
                        "part1": str(Subset(u, a1)),
                        "part2": str(Subset(u, a2)),
                    }
    return True, None


def _covers(k1: int, k2: int, fam_key: int) -> bool:
    """Every member of fam_key is a union of a k1 member and a k2 member."""
    for cmask in bo.bits(fam_key):
        ok = False
        for u1 in bo.bits(k1):
            if u1 & ~cmask:
                continue
            need = cmask & ~u1
            for extra in bo.submasks(cmask & u1):
                if k2 >> (need | extra) & 1:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


# ---------------------------------------------------------------------------
# Test-side constructors and the equivalence sweeps
# ---------------------------------------------------------------------------


def full_subset(universe: Universe) -> Subset:
    """The subset that holds every element of ``universe``."""
    return universe.subset_from_mask((1 << universe.size) - 1)


def one_block_asr(universe: Universe) -> ExplicitASR:
    """The equivalence with all subsets of ``universe`` in one block."""
    return ExplicitASR(universe, (0,) * (1 << universe.size))


def partition_from_relation(universe: Universe, rows: tuple[int, ...]) -> list[int]:
    """Blocks (element masks) of an equivalence given by row masks."""
    return sorted(set(rows[: universe.size]))


def partition_backend(universe: Universe, blocks: Iterable[Iterable[str]]) -> PartitionCoarseBackend:
    """The partition backend whose blocks are given as lists of labels."""
    return PartitionCoarseBackend(universe, [universe.subset(b).mask for b in blocks])


def nearness_from_predicate(
    universe: Universe, near: Callable[[int], bool], closure: tuple[int, ...] | None = None
) -> ExplicitNearness:
    """The explicit nearness whose near family keys are those ``near`` accepts."""
    keys = [key for key in range(1 << (1 << universe.size)) if near(key)]
    return ExplicitNearness(universe, keys, closure)


def enumerated_equivalences(max_size: int):
    """(d, c) once for each pair of table maps f: d -> c and g: c -> d that
    verifies as an equivalence, d and c partition backends of 1 to
    ``max_size`` points."""
    for n1 in range(1, max_size + 1):
        for n2 in range(1, max_size + 1):
            u1, u2 = universe_of_size(n1), universe_of_size(n2)
            for b1 in all_partitions(u1):
                for b2 in all_partitions(u2):
                    d = PartitionCoarseBackend(u1, b1)
                    c = PartitionCoarseBackend(u2, b2)
                    for t1 in itertools.product(range(n2), repeat=n1):
                        for t2 in itertools.product(range(n1), repeat=n2):
                            if is_ls_equivalence(ExplicitMap(d, c, t1), ExplicitMap(c, d, t2)).is_yes:
                                yield d, c


def random_equivalences(rng: random.Random, universe: Universe, count: int):
    """(d, c) for each seeded permutation d -> c whose inverse makes it an
    equivalence, d and c seeded partition backends of ``universe``; at
    most ``count`` pairs within 4000 draws."""
    n = universe.size
    parts = list(all_partitions(universe))
    verified = 0
    for _ in range(4000):
        if verified == count:
            return
        d = PartitionCoarseBackend(universe, parts[rng.randrange(len(parts))])
        c = PartitionCoarseBackend(universe, parts[rng.randrange(len(parts))])
        perm = list(range(n))
        rng.shuffle(perm)
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        if is_ls_equivalence(ExplicitMap(d, c, tuple(perm)), ExplicitMap(c, d, tuple(inv))).is_yes:
            verified += 1
            yield d, c
