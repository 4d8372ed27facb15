"""Golden digest of the finite tier.

Each record is the JSON of one finite-tier result on a fixed input grid:
bounded sets, subspace restrictions, asymptotic dimension and induced
nearness queries per backend, the H-nearness check per closure table,
the map and equivalence checks per map pair, seeded closures with
their axiom reports (passing, not closed, and not downward closed),
the regularity verdicts, two-determination verdicts and
regularizations of the backends' collections and the seeded closures,
and the remaining exhaustive checkers (subset equivalences, proximities,
closure tables, bunches and clusters, coarse relation families,
asymptotic normality, relation neighbourhoods, uniform boundedness and
the sampled line suite) on seeded inputs that fail each axiom.
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
    LSRBackend,
    MetricLineBackend,
    NearnessQuery,
    PartitionCoarseBackend,
    TopoTraceBackend,
    asymptotically_disjoint_explicit,
    induced_nearness,
    is_asymptotically_normal,
    lambda_of,
    n_e_of_l,
    nearness_of,
    proximity_of,
    regularize,
    sampled_line_axiom_report,
)
from coarselab.dimension import asdim_explicit, asr_uniformly_bounded
from coarselab.maps import ExplicitMap, is_ls_equivalence, is_lsr_map
from coarselab.mining import all_partitions, close_lsr, random_lsr, universe_of_size
from coarselab.nearness_lab import bunch_exists_explicit, cluster_extension_contrast
from coarselab.setcore import Family, Subset
from coarselab.structures import (
    ExplicitASR,
    ExplicitCoarse,
    ExplicitLSR,
    ExplicitNearness,
    ExplicitProximity,
    bounded_mask,
    check_asr_axioms,
    check_coarse,
    check_lsr_axioms,
    check_nearness_axioms,
    check_proximity_axioms,
    enumerate_bunches,
    enumerate_clusters,
    is_a_lsr,
    is_bunch,
    is_h_nearness,
    is_ls_regular,
    proximal_nearness,
    topological_nearness,
    validate_closure_table,
)
from coarselab.verdict import TriVerdict

from digests import GOLDEN_DIR, assert_golden, canonical, write_golden
from oracles import one_block_asr

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


# ---------------------------------------------------------------------------
# The remaining exhaustive checkers
# ---------------------------------------------------------------------------


def _error(f, *args):
    """``f(*args)``, or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as e:
        return {type(e).__name__: str(e)}


def _asrs():
    """(label, ExplicitASR): identity and one block; the projections
    s ~ t iff s & y == t & y, which are union-compatible and miss the
    decomposition axiom when y is a proper part; seeded block ids; and the
    induced equivalences of the regular backends over up to 3 points."""
    for n in (1, 2, 3, 4):
        u = universe_of_size(n)
        m = 1 << n
        yield f"identity{n}", ExplicitASR.identity(u)
        yield f"one-block{n}", one_block_asr(u)
        for y in range(m) if n < 4 else (0b0011, 0b0110):
            yield f"projection{n}:{y}", ExplicitASR(u, tuple(s & y for s in range(m)))
        for seed in range(6 if n < 4 else 2):
            rng = random.Random(7000 * n + seed)
            blocks = rng.randint(2, 4)
            ids = tuple(rng.randrange(blocks) for _ in range(m))
            yield f"random-asr{n}:{seed}", ExplicitASR(u, ids)
    for label, b in _backends():
        if b.universe.size <= 3:
            asr = _error(lambda_of, b)
            if isinstance(asr, ExplicitASR):
                yield f"lambda {label}", asr


def _normality_subjects():
    """(label, ExplicitASR, bounded mask) over up to 3 points: the induced
    equivalences with their backends' bounded sets, and every equivalence
    above with only the empty set bounded and with a seeded bounded mask."""
    for label, b in _backends():
        if b.universe.size <= 3:
            asr = _error(lambda_of, b)
            if isinstance(asr, ExplicitASR):
                yield label, asr, b.bounded_mask()
    for label, asr in _asrs():
        if asr.universe.size <= 3:
            yield label, asr, 1
            yield label, asr, 1 | random.Random(label).getrandbits(asr.slots)


def _proximities():
    """(label, ExplicitProximity): the discrete proximities, the induced
    proximities of the backends over up to 3 points, and seeded relations,
    symmetric on nonempty sets or with a few one-way pairs added."""
    for n in (1, 2, 3, 4):
        yield f"discrete{n}", ExplicitProximity.discrete(universe_of_size(n))
    for label, b in _backends():
        if b.universe.size <= 3:
            p = _error(proximity_of, b, None, False)
            if isinstance(p, ExplicitProximity):
                yield f"induced {label}", p
    for n in (1, 2, 3):
        u = universe_of_size(n)
        m = 1 << n
        for seed in range(8):
            rng = random.Random(8000 * n + seed)
            rows = [0] * m
            for a, b in itertools.combinations_with_replacement(range(1, m), 2):
                if a & b or rng.random() < 0.3:
                    rows[a] |= 1 << b
                    rows[b] |= 1 << a
            for _ in range(seed % 2 * 2):
                rows[rng.randrange(m)] |= 1 << rng.randrange(m)
            yield f"random-proximity{n}:{seed}", ExplicitProximity(u, tuple(rows))


def _nearnesses():
    """(label, ExplicitNearness) over up to 3 points: topological, induced
    and seeded near collections under seeded closures, the induced near
    collections of the backends, and the proximal near collections."""
    for n in (1, 2, 3):
        u = universe_of_size(n)
        m = 1 << n
        for seed in range(4):
            rng = random.Random(9000 * n + seed)
            cl = _random_closure(n, rng)
            yield f"topological{n}:{seed}", topological_nearness(u, cl)
            connected = PartitionCoarseBackend(u, [m - 1])
            yield f"induced{n}:{seed}", induced_nearness(connected, closure=cl)
            keys = [k for k in range(1 << m) if rng.random() < 0.5]
            yield f"random-near{n}:{seed}", ExplicitNearness(u, keys, cl)
    for label, b in _backends():
        if b.universe.size <= 3:
            yield f"induced {label}", induced_nearness(b)
    for label, p in _proximities():
        if p.universe.size <= 3:
            yield f"proximal {label}", proximal_nearness(p)


class _GivenMax(ExplicitCoarse):
    """A relation family whose maximal relation is given rather than
    computed, so that each axiom of ``check_coarse`` can fail."""

    def __init__(self, universe, generators, rows):
        super().__init__(universe, generators)
        self.rows = rows

    def closure_max(self):
        return self.rows


class _CoinBackend(LSRBackend):
    """A seeded coin per family, so that each axiom of the sampled line
    suite can fail."""

    space = "nat-line"

    def __init__(self, seed: int):
        self.seed = seed

    def member(self, sets) -> TriVerdict:
        coin = random.Random(canonical([self.seed, *(s.to_json() for s in sets)])).random()
        return TriVerdict.yes(coin=1) if coin < 0.7 else TriVerdict.no(coin=0)


def _checker_records():
    for label, asr in _asrs():
        u = asr.universe
        yield f"{label} check_asr_axioms", _report(check_asr_axioms(asr))
        rng = random.Random(label)
        for i in range(3):
            members = [Subset(u, rng.randrange(1, 1 << u.size)) for _ in range(rng.randint(1, 3))]
            yield f"{label} {i} asr_uniformly_bounded", list(asr_uniformly_bounded(asr, members))
    for label, asr, bmask in _normality_subjects():
        m = asr.slots
        yield f"{label} {bmask} asymptotically_disjoint_explicit", [
            [asymptotically_disjoint_explicit(asr, bmask, a, b) for b in range(m)] for a in range(m)
        ]
        normal = is_asymptotically_normal(asr, bmask)
        yield f"{label} {bmask} is_asymptotically_normal", list(normal)
    for label, b in _backends():
        rng = random.Random(label)
        cl = _random_closure(b.universe.size, rng)
        if b.universe.size <= 3:
            for closure in (None, cl):
                p = _error(proximity_of, b, closure)
                yield f"{label} proximity_of", getattr(p, "rows", p)
        else:  # the normality check is the slow part at 4 points
            p = _error(proximity_of, b, cl, False)
            yield f"{label} proximity_of", getattr(p, "rows", p)
    for label, p in _proximities():
        yield f"{label} check_proximity_axioms", _report(check_proximity_axioms(p))
        yield f"{label} enumerate_clusters", enumerate_clusters(p)
        contrast = cluster_extension_contrast(p)
        yield f"{label} cluster_extension_contrast", [
            contrast.pairs_checked, contrast.all_extended, contrast.failures
        ]
        if p.universe.size <= 3 or label == "discrete4":  # 65536 keys at 4 points
            yield f"{label} proximal_nearness", sorted(proximal_nearness(p).keys)
    for label, near in _nearnesses():
        m = near.slots
        yield f"{label} check_nearness_axioms", _report(check_nearness_axioms(near))
        yield f"{label} enumerate_bunches", enumerate_bunches(near)
        yield f"{label} is_bunch", [is_bunch(k, near) for k in range(1 << m)]
        rng = random.Random(label)
        near_keys = np.flatnonzero(near.table()).tolist()
        keys = rng.sample(near_keys, min(8, len(near_keys))) + [rng.randrange(1 << m)]
        families = [Family.from_mask_key(near.universe, k) for k in keys]
        yield f"{label} bunch_exists_explicit", [
            _error(lambda f: bunch_exists_explicit(f, near).to_json(), f) for f in families
        ]
    for n in (1, 2, 3, 4):
        u = universe_of_size(n)
        m = 1 << n
        for seed in range(12 if n < 4 else 6):
            rng = random.Random(9500 * n + seed)
            table = list(_random_closure(n, rng))
            edit = seed % 6
            a = rng.randrange(1, m)
            if edit == 1:  # shrink one entry
                table[a] &= ~(1 << rng.choice(list(_bits(a))))
            elif edit == 2:
                table = table[:-1]
            elif edit == 3:
                table[0] = a
            elif edit == 4:  # grow one entry
                table[a] |= rng.randrange(m)
            elif edit == 5:  # every entry extensive, nothing else
                table = [0] + [s | rng.getrandbits(n) for s in range(1, m)]
            yield f"closure-table{n}:{seed} validate_closure_table", _error(
                validate_closure_table, u, tuple(table)
            )
        for seed in range(4):
            rng = random.Random(9700 * n + seed)
            rows = tuple(rng.getrandbits(n) | (seed % 2) << x for x in range(n))
            yield f"relation{n}:{seed} n_e_of_l", [
                n_e_of_l(u, rows, Subset(u, l)).mask_key() for l in range(m)
            ]
            gens = tuple(tuple(rng.getrandbits(n) for _ in range(n)) for _ in range(seed % 3))
            m_rel, report = check_coarse(ExplicitCoarse(u, gens))
            yield f"coarse{n}:{seed} check_coarse", [m_rel, _report(report)]
            rows = tuple(rng.getrandbits(n) | (seed % 2) << x for x in range(n))
            m_rel, report = check_coarse(_GivenMax(u, gens + (rows,) * (seed % 2), rows[::-1]))
            yield f"given-max{n}:{seed} check_coarse", [m_rel, _report(report)]
    u = universe_of_size(2)
    yield "short relation n_e_of_l", _error(n_e_of_l, u, (1,), Subset(u, 1))
    backends = {
        "metric": MetricLineBackend(8, 500),
        "topo": TopoTraceBackend(500),
        "coin0": _CoinBackend(0),
        "coin1": _CoinBackend(1),
    }
    for label, backend in backends.items():
        for seed in (0, 1):
            report = sampled_line_axiom_report(backend, seed=seed, samples=40)
            yield f"{label}:{seed} sampled_line_axiom_report", [report.subject, _report(report)]


def _bits(mask: int):
    return (t for t in range(mask.bit_length()) if mask >> t & 1)


def finite_records():
    """(label, canonical JSON) for every record of the grid, in order."""
    for label, b in _backends():
        for name, value in _backend_records(label, b):
            yield name, canonical(value)
    records = (
        _nearness_records(),
        _map_records(),
        _closure_records(),
        _regularity_records(),
        _checker_records(),
    )
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


def test_checker_grid_has_each_outcome():
    """Each axiom of the checkers in ``_checker_records`` fails on some
    subject and passes on another, each tuple-valued check answers both
    ways, and each error text of ``validate_closure_table`` occurs."""
    seen = collections.defaultdict(set)
    for label, value in _checker_records():
        name = label.rsplit(" ", 1)[-1]
        if name in ("check_coarse", "sampled_line_axiom_report"):
            value = value[1]
        if name.startswith("check_") or name == "sampled_line_axiom_report":
            for axiom, passed, _ in value:
                seen[name, axiom].add(passed)
        elif name in ("asr_uniformly_bounded", "is_asymptotically_normal"):
            seen[name].add(value[0])
        elif name == "cluster_extension_contrast":
            seen[name].add(value[1])
        elif name == "bunch_exists_explicit":
            seen[name] |= {v.get("outcome", "ValueError") for v in value}
        elif name == "validate_closure_table":
            seen[name].add(value and value["ValueError"].split(":")[0].split(" at ")[0])
    assert len(seen) == 22
    for key, outcomes in seen.items():
        if key == "bunch_exists_explicit":
            assert outcomes == {"yes", "no", "ValueError"}
        elif key == "validate_closure_table":
            assert len(outcomes) == 6, outcomes  # five error texts and None
        else:
            assert outcomes == {True, False}, key


if __name__ == "__main__":
    write_golden(GOLDEN, finite_records())
