"""Counterexample mining over small explicit structures.

Exhaustive enumeration where the space allows it (two-point universes
for whole collections, partition sweeps up to four points), seeded
random closure-generated instances elsewhere.  All output is
reproducible from the seed.
"""

from __future__ import annotations

import random

import numpy as np
from dataclasses import dataclass

from . import _bitops as bo
from .backends import PartitionCoarseBackend, induced_nearness
from .setcore import CapExceeded, Universe
from .structures import (
    ExplicitLSR,
    check_lsr_axioms,
    check_nearness_axioms,
    is_ls_regular,
)

LETTERS = "abcdefghijklmnop"


def universe_of_size(n: int) -> Universe:
    return Universe(tuple(LETTERS[:n]))


def all_partitions(universe: Universe):
    """Every partition of the universe, as lists of element masks."""

    def parts(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for p in parts(rest):
            for i in range(len(p)):
                yield p[:i] + [p[i] | first] + p[i + 1 :]
            yield p + [first]

    yield from parts([1 << i for i in range(universe.size)])


def enumerate_lsrs(universe: Universe):
    """All valid collections on a universe small enough to exhaust.

    Candidates are supersets of the forced base (the empty family and
    all singleton families); each must pass the four axioms.
    """
    m = 1 << universe.size
    if m > 4:
        raise CapExceeded("whole-collection enumeration needs a universe of two points")
    base = [0] + [1 << s for s in range(m)]
    free = [key for key in range(1 << m) if key not in base]
    for pick in range(1 << len(free)):
        keys = set(base)
        for i in bo.bits(pick):
            keys.add(free[i])
        lsr = ExplicitLSR(universe, keys)
        if lsr.keys != frozenset(keys):
            continue  # construction padded the base; already covered elsewhere
        if check_lsr_axioms(lsr).passed:
            yield lsr


def close_lsr(
    universe: Universe, generator_keys, cap: int = 8192
) -> ExplicitLSR | None:
    """Smallest valid collection containing the given family keys:
    closes under subfamilies, intersecting unions, and the pairwise
    union product.  None when the closure outgrows the cap.

    Each round pairs the maximal keys of a 2^m-entry member table, one
    block of pairs at a time, and adds the down-closure of the unions and
    products not yet in it.  The cap is checked after every block, so a
    closure that runs away to all 2^m keys stops in its first large block."""
    m = 1 << universe.size
    base = [0] + [1 << s for s in range(m)]
    table = bo.down_closure(base + list(generator_keys), m)
    size = int(np.count_nonzero(table))
    changed = True
    while changed:
        changed = False
        tops = np.flatnonzero(bo.maximal_keys(table, m))
        img = bo.vee_images(tops, m)
        for i0, i1, upper in bo.pair_blocks(len(tops)):
            f, g = tops[i0:i1, None], tops[None, i0:]
            new = np.concatenate(
                [(f | g)[upper & (f & g != 0)], bo.vee_block(tops[i0:i1], img[:, i0:])[upper]]
            )
            new = new[~table[new]]
            if new.size:
                table |= bo.down_closure(new, m)
                size = int(np.count_nonzero(table))
                changed = True
            if size > cap:
                return None
    lsr = ExplicitLSR(universe, np.flatnonzero(table).tolist())
    assert check_lsr_axioms(lsr).passed
    return lsr


def random_lsr(
    universe: Universe, rng: random.Random, extra: int = 2, cap: int = 8192
) -> ExplicitLSR | None:
    """Seeded valid collection: random generator families closed under
    the axioms."""
    m = 1 << universe.size
    gens = []
    for _ in range(extra):
        gen = 0
        for _ in range(rng.randint(2, 3)):
            gen |= 1 << rng.randrange(m)
        gens.append(gen)
    return close_lsr(universe, gens, cap)


@dataclass(frozen=True)
class Finding:
    target: str
    description: str
    details: dict

    def to_json(self) -> dict:
        return {"target": self.target, "description": self.description, "details": self.details}


def mine_non_ls_regular(max_size: int = 3, seed: int = 0, samples: int = 50) -> list[Finding]:
    """Smallest collections that fail the splitting property.

    Sizes one and two are exhausted; larger universes are sampled from
    the seeded random generator.  The first finding is the canonical
    (enumeration-least) witness.
    """
    for n in range(1, max_size + 1):
        u = universe_of_size(n)
        if n <= 2:
            candidates = enumerate_lsrs(u)
        else:
            rng = random.Random(seed + n)
            candidates = (random_lsr(u, rng) for _ in range(samples))
        for lsr in candidates:
            if lsr is None:
                continue
            regular, witness = is_ls_regular(lsr)
            if not regular:
                details = {"universe_size": n, "families": sorted(lsr.keys), "witness": witness}
                description = f"collection on {n} points failing the split property"
                return [Finding("non-ls-regular", description, details)]
    return []


def mine_nearness_product_failures(max_size: int = 4) -> list[Finding]:
    """Partition backends whose induced near collection breaks the
    product axiom; the disconnected two-blocks-of-two shape is the
    smallest such."""
    findings = []
    for n in range(1, max_size + 1):
        universe = universe_of_size(n)
        for blocks in all_partitions(universe):
            backend = PartitionCoarseBackend(universe, blocks)
            report = check_nearness_axioms(induced_nearness(backend))
            if not report.passed:
                failure = report.failures()[0]
                findings.append(
                    Finding(
                        "nearness-product-failure",
                        f"partition backend on {n} points with a failing near axiom",
                        {
                            "universe_size": n,
                            "blocks": sorted(blocks),
                            "axiom": failure.axiom,
                            "witness": dict(failure.witness),
                        },
                    )
                )
    return findings
