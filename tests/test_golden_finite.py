"""Golden digest of the finite tier.

Each record is the JSON of one finite-tier result on a fixed input grid:
bounded sets, subspace restrictions, asymptotic dimension and induced
nearness queries per backend, the H-nearness check per closure table,
the map and equivalence checks per map pair, seeded closures with
their axiom reports (passing, not closed, and not downward closed),
and the regularity verdicts, two-determination verdicts and
regularizations of the backends' collections and the seeded closures.
``golden/finite.sha256`` holds one sha256 per record, in ``sha256sum``
layout; a faster implementation must reproduce every record byte for
byte.  A digest may change only together with a CHANGES.md line that
says why.

Regenerate with ``PYTHONPATH=src python tests/test_golden_finite.py``.
"""

from __future__ import annotations

import collections
import itertools
import random

import numpy as np

from coarselab.backends import (
    ExplicitBackend,
    NearnessQuery,
    PartitionCoarseBackend,
    induced_nearness,
    nearness_of,
    regularize,
)
from coarselab.dimension import asdim_explicit
from coarselab.maps import ExplicitMap, is_ls_equivalence, is_lsr_map
from coarselab.mining import all_partitions, close_lsr, random_lsr, universe_of_size
from coarselab.setcore import Family, Subset
from coarselab.structures import (
    ExplicitLSR,
    ExplicitNearness,
    bounded_mask,
    check_lsr_axioms,
    check_nearness_axioms,
    is_a_lsr,
    is_h_nearness,
    is_ls_regular,
)

from digests import GOLDEN_DIR, assert_golden, canonical, write_golden

GOLDEN = GOLDEN_DIR / "finite.sha256"


def _backends():
    for n in range(1, 5):
        u = universe_of_size(n)
        for blocks in all_partitions(u):
            yield f"partition{n}:{blocks}", PartitionCoarseBackend(u, blocks)
    for n, seeds in ((3, range(8)), (4, range(3))):
        u = universe_of_size(n)
        for seed in seeds:
            yield f"random{n}:{seed}", ExplicitBackend(random_lsr(u, random.Random(seed)))
    u = universe_of_size(3)  # pairwise meeting and unbounded: reaches the refiner clause
    yield "triangle3", ExplicitBackend(close_lsr(u, [u.family(["ab", "bc", "ac"]).mask_key()]))


def _random_closure(n: int, rng: random.Random) -> tuple[int, ...]:
    """Closure of a seeded preorder: cl(A) is everything reachable from A."""
    reach = [1 << x | rng.getrandbits(n) & rng.getrandbits(n) for x in range(n)]
    for _ in range(n):
        reach = [r | _union(reach, r) for r in reach]
    return tuple(_union(reach, a) for a in range(1 << n))


def _union(reach: list[int], a: int) -> int:
    out = 0
    for x, r in enumerate(reach):
        if a >> x & 1:
            out |= r
    return out


def _backend_records(label, b):
    n = b.universe.size
    m = 1 << n
    table = b.member_table()
    yield f"{label} bounded_mask", bounded_mask(table, n)
    yield f"{label} restrict", [
        sorted(b.to_explicit().restrict(Subset(b.universe, y)).keys) for y in range(1, m)
    ]
    yield f"{label} asdim_explicit", asdim_explicit(b).to_json()
    if n <= 3:
        keys = range(1 << m)
    else:  # half of the sample from the near keys, where the clauses differ
        rng = random.Random(label)
        near = np.flatnonzero(induced_nearness(b).table()).tolist()
        keys = rng.sample(range(1 << m), 24) + rng.sample(near, 24)
    yield f"{label} nearness_of", [
        nearness_of(NearnessQuery(b, Family.from_mask_key(b.universe, k))).to_json()
        for k in keys
    ]


def _nearness_records():
    for n in (2, 3, 4):
        u = universe_of_size(n)
        pb = PartitionCoarseBackend(u, [(1 << n) - 1])
        for seed in range(6):
            rng = random.Random(seed)
            cl = _random_closure(n, rng)
            yield f"h-nearness induced{n}:{seed}", is_h_nearness(induced_nearness(pb, closure=cl))
            keys = [k for k in range(1 << (1 << n)) if rng.random() < 0.5]
            yield f"h-nearness random{n}:{seed}", is_h_nearness(ExplicitNearness(u, keys, cl))


def _map_records():
    small = [(label, b) for label, b in _backends() if b.universe.size <= 2]
    for (dl, d), (cl, c) in itertools.product(small, repeat=2):
        n1, n2 = d.universe.size, c.universe.size
        for t1 in itertools.product(range(n2), repeat=n1):
            f = ExplicitMap(d, c, t1)
            yield f"map {dl} -> {cl} {t1}", is_lsr_map(f).to_json()
            for t2 in itertools.product(range(n1), repeat=n2):
                g = ExplicitMap(c, d, t2)
                yield f"equivalence {dl} <-> {cl} {t1} {t2}", is_ls_equivalence(f, g).to_json()
    large = [(label, b) for label, b in _backends() if b.universe.size >= 3]
    rng = random.Random(60)
    for i in range(60):
        dl, d = rng.choice(large)
        n1 = d.universe.size
        if i % 2:
            cl, c = rng.choice(large)
            n2 = c.universe.size
            t1 = tuple(rng.randrange(n2) for _ in range(n1))
            t2 = tuple(rng.randrange(n1) for _ in range(n2))
        else:  # a relabelling and its inverse, so that some pairs pass
            cl, c = rng.choice([(label, b) for label, b in large if b.universe.size == n1])
            perm = list(range(n1))
            rng.shuffle(perm)
            t1, t2 = tuple(perm), tuple(perm.index(y) for y in range(n1))
        f, g = ExplicitMap(d, c, t1), ExplicitMap(c, d, t2)
        yield f"map {dl} -> {cl} {t1}", is_lsr_map(f).to_json()
        yield f"equivalence {dl} <-> {cl} {t1} {t2}", is_ls_equivalence(f, g).to_json()


def _report(report):
    return [[r.axiom, r.passed, r.witness] for r in report.results]


def _random_keys(m: int, rng: random.Random, count: int) -> list[int]:
    return [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(count)]


def _seeded_closures():
    """(label, collection) of 80 seeded closures; None over the cap."""
    for n, seeds in ((2, range(10)), (3, range(40)), (4, range(30))):
        u = universe_of_size(n)
        for seed in seeds:
            rng = random.Random(1000 * n + seed)
            lsr = random_lsr(u, rng, extra=1 + seed % 3, cap=(2000, 8192)[seed % 2])
            yield f"closure{n}:{seed}", lsr


def _closure_records():
    """Seeded closures (None over the cap) with both axiom reports, then
    generator down-closures that miss the union axioms and key sets that
    are not downward closed."""
    for label, lsr in _seeded_closures():
        yield f"{label} random_lsr", None if lsr is None else sorted(lsr.keys)
        if lsr is not None:
            yield f"{label} check_lsr_axioms", _report(check_lsr_axioms(lsr))
            near = induced_nearness(ExplicitBackend(lsr))
            yield f"{label} check_nearness_axioms", _report(check_nearness_axioms(near))
    for n, seeds in ((2, range(6)), (3, range(12)), (4, range(12))):
        u = universe_of_size(n)
        m = 1 << n
        for seed in seeds:
            rng = random.Random(5000 * n + seed)
            gens = [Family.from_mask_key(u, k) for k in _random_keys(m, rng, 1 + seed % 4)]
            c = ExplicitLSR.from_generators(u, gens)
            yield f"generated{n}:{seed} check_lsr_axioms", _report(check_lsr_axioms(c))
            keys = _random_keys(m, rng, 3 + seed % 2 * 12)
            c = ExplicitLSR(u, keys)
            yield f"scattered{n}:{seed} check_lsr_axioms", _report(check_lsr_axioms(c))


def _regularity_subjects():
    """The collections of the backends (23 partitions and the seeded
    closures), the seeded closures within the cap, then the down-closures
    of the two-member families of three or four seeded sets, which are
    often regular but not two-determined."""
    for label, b in _backends():
        yield label, b.to_explicit()
    for label, lsr in _seeded_closures():
        if lsr is not None:
            yield label, lsr
    for n in (2, 3):
        u = universe_of_size(n)
        for seed in range(8):
            sets = random.Random(seed).sample(range(1 << n), 3 + seed % 2)
            pairs = itertools.combinations(sets, 2)
            gens = [Family.from_mask_key(u, 1 << s | 1 << t) for s, t in pairs]
            yield f"pairs{n}:{seed}", ExplicitLSR.from_generators(u, gens)


def _regularize(lsr):
    try:
        return sorted(regularize(lsr).keys)
    except ValueError as e:
        return {"ValueError": str(e)}


def _regularity_records():
    for label, lsr in _regularity_subjects():
        yield f"{label} is_ls_regular", list(is_ls_regular(lsr))
        yield f"{label} is_a_lsr", list(is_a_lsr(lsr))
        yield f"{label} regularize", _regularize(lsr)


def finite_records():
    """(label, canonical JSON) for every record of the grid, in order."""
    for label, b in _backends():
        for name, value in _backend_records(label, b):
            yield name, canonical(value)
    records = (_nearness_records(), _map_records(), _closure_records(), _regularity_records())
    for name, value in itertools.chain(*records):
        yield name, canonical(value)


def test_finite_golden_digest():
    assert_golden(GOLDEN, finite_records())


def test_regularity_grid_has_each_outcome():
    """The regularity records hold irregular collections, whose
    regularization raises, and regular ones that are not two-determined.
    Counted as (regular, two-determined, regularize raised)."""
    outcomes = collections.Counter()
    for _, lsr in _regularity_subjects():
        raised = isinstance(_regularize(lsr), dict)
        outcomes[is_ls_regular(lsr)[0], is_a_lsr(lsr)[0], raised] += 1
    assert outcomes == {(True, True, False): 75, (False, False, True): 44, (True, False, False): 6}


if __name__ == "__main__":
    write_golden(GOLDEN, finite_records())
