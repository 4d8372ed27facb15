"""The bit-sweep kernels against their per-key definitions and their
byte-table reference.

Each kernel is run on seeded random tables over m = 0..8 and 12 slots
and compared, key by key, with a direct reading of its docstring.
Inputs are also passed as strided views, and must come back unchanged.
The packed-word kernels are also compared whole with the byte-table
kernels of ``oracles`` at every m = 0..16: below m = 6 the table is one
padded word, bits 0 to 5 pair keys inside a word, and asdim and the
4-point closures sweep 15 and 16 slots.  The pairwise-union blocks are
compared with the scalar ``vee_key`` for m = 1..16.
"""

import itertools
import random

import numpy as np
import pytest

from coarselab import _bitops as bo

import oracles

SLOTS = [*range(9), 12]


def one_bit_neighbours(key: int, m: int):
    """(t, key with bit t flipped) for every bit t < m."""
    return [(t, key ^ (1 << t)) for t in range(m)]


def is_submask(v: int, u: int) -> bool:
    return v & ~u == 0


def submasks_of(u: int) -> list[int]:
    """Every submask of u, built bit by bit."""
    out = [0]
    for t in range(u.bit_length()):
        if u >> t & 1:
            out += [v | 1 << t for v in out]
    return out


def random_flags(m: int, seed: int, density: float, strided: bool) -> np.ndarray:
    rng = np.random.default_rng(seed)
    flags = rng.random(2 << m) < density
    return flags[::2] if strided else flags[: 1 << m].copy()


@pytest.mark.parametrize("m", SLOTS)
def test_fold_or(m):
    rng = np.random.default_rng(m)
    values = [int(v) for v in rng.integers(0, 1 << 16, size=m)]
    out = bo.fold_or(m, values)
    assert out.dtype == np.int64
    for key in range(1 << m):
        want = 0
        for t in range(m):
            if key >> t & 1:
                want |= values[t]
        assert out[key] == want, key


@pytest.mark.parametrize("m", SLOTS)
def test_fold_and(m):
    rng = np.random.default_rng(100 + m)
    values = [int(v) for v in rng.integers(0, 1 << 16, size=m)]
    init = (1 << 16) - 1
    out = bo.fold_and(m, values, init)
    assert out.dtype == np.int64
    for key in range(1 << m):
        want = init
        for t in range(m):
            if key >> t & 1:
                want &= values[t]
        assert out[key] == want, key


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("density", [0.05, 0.5])
@pytest.mark.parametrize("m", SLOTS)
def test_or_has_submask(m, density, strided):
    flag = random_flags(m, 200 + m, density, strided)
    before = flag.copy()
    out = bo.or_has_submask(flag, m)
    assert np.array_equal(flag, before)
    for u in range(1 << m):
        want = any(flag[v] for v in submasks_of(u))
        assert out[u] == want, u


@pytest.mark.parametrize("count", [0, 1, 4])
@pytest.mark.parametrize("m", SLOTS)
def test_down_closure(m, count):
    rng = np.random.default_rng(300 + m)
    keys = [int(k) for k in rng.integers(0, 1 << m, size=count)]
    out = bo.down_closure(keys, m)
    assert out.dtype == bool and out.shape == (1 << m,)
    for v in range(1 << m):
        assert out[v] == any(is_submask(v, k) for k in keys), v


@pytest.mark.parametrize("m", [4, 12])
def test_down_closure_takes_strided_keys(m):
    keys = np.random.default_rng(350 + m).integers(0, 1 << m, size=8)[::2]
    before = keys.copy()
    out = bo.down_closure(keys, m)
    assert np.array_equal(keys, before)
    assert np.array_equal(out, bo.down_closure([int(k) for k in keys], m))


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("density", [0.05, 0.5])
@pytest.mark.parametrize("m", SLOTS)
def test_maximal_keys(m, density, strided):
    member = random_flags(m, 400 + m, density, strided)
    before = member.copy()
    out = bo.maximal_keys(member, m)
    assert np.array_equal(member, before)
    for key in range(1 << m):
        bigger = [k for t, k in one_bit_neighbours(key, m) if not key >> t & 1]
        want = bool(member[key]) and not any(member[k] for k in bigger)
        assert out[key] == want, key


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("density", [0.05, 0.5])
@pytest.mark.parametrize("m", SLOTS)
def test_minimal_keys(m, density, strided):
    flag = random_flags(m, 500 + m, density, strided)
    before = flag.copy()
    out = bo.minimal_keys(flag, m)
    assert np.array_equal(flag, before)
    for key in range(1 << m):
        smaller = [k for t, k in one_bit_neighbours(key, m) if key >> t & 1]
        want = bool(flag[key]) and not any(flag[k] for k in smaller)
        assert out[key] == want, key


SWEEPS = [
    (bo.or_has_submask, oracles.or_has_submask_bytes),
    (bo.maximal_keys, oracles.maximal_keys_bytes),
    (bo.minimal_keys, oracles.minimal_keys_bytes),
]


@pytest.mark.parametrize("strided", [False, True])
@pytest.mark.parametrize("m", range(17))
def test_packed_kernels_match_byte_tables(m, strided):
    for density in (0.02, 0.3, 0.9):
        flag = random_flags(m, 700 + m, density, strided)
        before = flag.copy()
        for kernel, reference in SWEEPS:
            out = kernel(flag, m)
            assert out.dtype == bool and out.shape == (1 << m,)
            assert np.array_equal(out, reference(flag, m)), (kernel.__name__, density)
            assert np.array_equal(flag, before)
    rng = np.random.default_rng(800 + m)
    for count in (0, 1, 5, 40):
        keys = rng.integers(0, 1 << m, size=2 * count)
        keys = keys[::2] if strided else keys[:count]
        assert np.array_equal(bo.down_closure(keys, m), oracles.down_closure_bytes(keys, m)), count


def test_fold_needs_one_value_per_slot():
    with pytest.raises(ValueError):
        bo.fold_or(3, [1, 2])


@pytest.mark.parametrize("m", range(1, 17))
def test_vee_block_matches_vee_key(m):
    rng = random.Random(600 + m)
    fs = [rng.getrandbits(m) & rng.getrandbits(m) for _ in range(9)] + [0, (1 << m) - 1]
    gs = [rng.getrandbits(m) for _ in range(13)] + [0, 1 << (m - 1)]
    img = bo.vee_images(gs, m)
    assert img.shape == (m, len(gs)) and img.dtype == np.int64
    for s in range(m):
        assert img[s].tolist() == [bo.vee_key(1 << s, g) for g in gs], s
    out = bo.vee_block(fs, img)
    assert out.tolist() == [[bo.vee_key(f, g) for g in gs] for f in fs]


@pytest.mark.parametrize("block", [1, 7, 64, 1 << 16])
@pytest.mark.parametrize("n", [0, 1, 5, 30])
def test_pair_blocks_walk_combinations_in_order(n, block, monkeypatch):
    monkeypatch.setattr(bo, "PAIR_BLOCK", block)
    walked = []
    for i0, i1, upper in bo.pair_blocks(n):
        assert upper.shape == (i1 - i0, n - i0)
        rows, cols = np.nonzero(upper)
        walked += [(i0 + r, i0 + c) for r, c in zip(rows.tolist(), cols.tolist())]
    assert walked == list(itertools.combinations_with_replacement(range(n), 2))
