"""Single-layer timings at fixed sizes.  Informational: they gate nothing.

Each probe times one call on fixed inputs (independent of the run's
seed) and reports the median over a few repetitions, in milliseconds.
"""

from __future__ import annotations

import random
from time import perf_counter

import numpy as np

from coarselab import _bitops, lineset, maps, mining, nearness_lab
from coarselab.backends import ExplicitBackend
from coarselab.structures import ExplicitLSR

from workloads import relabel_keys

PROBE_SEED = 20260805
M = 16  # subset slots of a 4-point universe
W5 = 10**5
W4 = 10**4


def _time_ms(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        samples.append((perf_counter() - t0) * 1000.0)
    return float(np.median(samples))


def probe_generators() -> list[int]:
    """Seeded 4-point generator keys whose closure stays within the cap."""
    rng = random.Random(PROBE_SEED)
    while True:
        gens = [sum(1 << rng.randrange(M) for _ in range(3)) for _ in range(2)]
        if mining.close_lsr(mining.universe_of_size(4), gens) is not None:
            return gens


def probe_names() -> list[str]:
    return [
        "probe._bitops.or_has_submask.m16_ms",
        "probe._bitops.maximal_keys.m16_ms",
        "probe._bitops.fold_or.m16_ms",
        "probe.lineset.PeriodicSet.window_array.w1e5_ms",
        "probe.lineset._distances_to.w1e5_ms",
        "probe.mining.close_lsr.u4_ms",
        "probe.maps.is_lsr_map.u4_ms",
        "probe.nearness_lab.bunch_obstruction.evens_odds_w1e5_ms",
        "probe.nearness_lab.revalidate.evens_odds_w1e4_ms",
    ]


def run_probes() -> dict[str, float]:
    rng = np.random.default_rng(PROBE_SEED)
    flag = rng.random(1 << M) < 0.01
    member = rng.random(1 << M) < 0.5
    values = [int(v) for v in rng.integers(0, 1 << M, size=M)]

    evens, odds = lineset.evens(), lineset.odds()
    points = np.arange(W5 + 1, dtype=np.int64)
    elems = odds.window_array(W5 + lineset._cushion(odds, W5))

    u4 = mining.universe_of_size(4)
    gens = probe_generators()
    lsr = mining.close_lsr(u4, gens)
    perm = [1, 2, 3, 0]
    dom = ExplicitBackend(lsr)
    cod = ExplicitBackend(ExplicitLSR(u4, relabel_keys(lsr.keys, perm)))
    relabel = maps.ExplicitMap(dom, cod, tuple(perm))

    cert = nearness_lab.bunch_obstruction([evens, odds], 32, W4).to_json()

    names = probe_names()
    timings = [
        _time_ms(lambda: _bitops.or_has_submask(flag, M), 7),
        _time_ms(lambda: _bitops.maximal_keys(member, M), 7),
        _time_ms(lambda: _bitops.fold_or(M, values), 7),
        _time_ms(lambda: evens.window_array(W5), 5),
        _time_ms(lambda: lineset._distances_to(points, elems), 5),
        _time_ms(lambda: mining.close_lsr(u4, gens), 5),
        _time_ms(lambda: maps.is_lsr_map(relabel), 5),
        _time_ms(lambda: nearness_lab.bunch_obstruction([evens, odds], 32, W5), 3),
        _time_ms(lambda: nearness_lab.BunchObstruction.from_json(cert).revalidate(), 3),
    ]
    return dict(zip(names, timings))
