"""``mining.close_lsr`` against its set-based definition.

The table closure must return the same keys as the one-pair-at-a-time
reference in ``oracles``, or None exactly where the reference does, and
its cap must hold at the edges: a cap equal to the closure's size keeps
it, one less refuses it, and generators already over the cap are
refused.
"""

import random

import pytest

from coarselab.mining import close_lsr, universe_of_size
from oracles import close_lsr_reference


def random_generators(rng: random.Random, m: int) -> list[int]:
    """One to three generator families of one to three members each."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        gen = 0
        for _ in range(rng.randint(1, 3)):
            gen |= 1 << rng.randrange(m)
        gens.append(gen)
    return gens


@pytest.mark.parametrize("cap", [8192, 2000])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_close_lsr_matches_reference(n, cap):
    u = universe_of_size(n)
    rng = random.Random(1000 * n + cap)
    outcomes = set()
    for _ in range(40):
        gens = random_generators(rng, 1 << n)
        got, want = close_lsr(u, gens, cap), close_lsr_reference(u, gens, cap)
        assert (got is None) == (want is None), gens
        if got is not None:
            assert got.keys == want.keys, gens
        outcomes.add(got is None)
    if n == 4:
        assert outcomes == {False, True}  # both sides of the cap were reached


@pytest.mark.parametrize("n, seed", [(3, 0), (3, 1), (4, 2), (4, 3)])
def test_cap_edges(n, seed):
    u = universe_of_size(n)
    gens = random_generators(random.Random(seed), 1 << n)
    full = close_lsr(u, gens, cap=1 << (1 << n))
    size = len(full.keys)
    assert close_lsr(u, gens, cap=size).keys == full.keys
    assert close_lsr(u, gens, cap=size - 1) is None
    assert close_lsr_reference(u, gens, cap=size - 1) is None


def test_generators_over_the_cap():
    u = universe_of_size(3)
    gens = [(1 << 8) - 1]  # every subset: its subfamilies are all 256 keys
    assert close_lsr(u, gens, cap=255) is None
    assert close_lsr_reference(u, gens, cap=255) is None
    assert len(close_lsr(u, gens, cap=256).keys) == 256
