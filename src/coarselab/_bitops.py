"""Vectorized helpers for collections of subset-families encoded as bit keys.

A subset of an n-element universe is a mask in [0, 2^n); a family of
subsets is a key in [0, 2^(2^n)) whose bit ``s`` says that the subset
with mask ``s`` is a member.  For n <= 4 whole collections of families
fit in arrays of 65536 entries over m = 2^n subset slots.

Every gathering pass over such an array is one sweep: for each bit t,
``_halves`` pairs each key without bit t (``lo``) with the key that adds
it (``hi``), as two views of the same array.  Pushing ``lo`` into ``hi``
over all bits is the subset-sum (zeta) transform of Yates (1937), which
gathers over submasks (``or_has_submask``); pushing ``hi`` into ``lo``
is its mirror, which gathers over supermasks (``down_closure``).  One
step in either direction compares a key with its one-bit neighbours
(``maximal_keys``, ``minimal_keys``).  Folding a value per bit over a
key's members (``fold_or``, ``fold_and``) needs no pairing: it fills
the table in doubling blocks, each key from the key without its top bit.
"""

from __future__ import annotations

import numpy as np


def _halves(a: np.ndarray, m: int):
    """For each bit t < m, views (lo, hi) of ``a`` over the keys without
    and with bit t, paired by ``key ^ (1 << t)``.  Kernels write only
    into arrays they allocated, so the views always alias ``a``."""
    for t in range(m):
        v = a.reshape(-1, 2, 1 << t)
        yield v[:, 0], v[:, 1]


def fold_or(m: int, values: list[int]) -> np.ndarray:
    """out[F] = OR of values[t] over bits t of F (0 for F = 0)."""
    return _fold(np.bitwise_or, m, values, 0)


def fold_and(m: int, values: list[int], init: int) -> np.ndarray:
    """out[F] = AND of values[t] over bits t of F (init for F = 0)."""
    return _fold(np.bitwise_and, m, values, init)


def _fold(op, m: int, values: list[int], init: int) -> np.ndarray:
    """The keys with top bit t are the keys below 2^t plus bit t, so each
    bit fills the next block of the table from the blocks before it."""
    if len(values) != m:
        raise ValueError(f"{len(values)} values for {m} slots")
    out = np.empty(1 << m, dtype=np.int64)
    out[0] = init
    for t, value in enumerate(values):
        op(out[: 1 << t], value, out=out[1 << t : 2 << t])
    return out


def or_has_submask(flag: np.ndarray, m: int) -> np.ndarray:
    """g[U] = any(flag[V] for V submask of U), by the subset-sum sweep."""
    g = flag.copy()
    for lo, hi in _halves(g, m):
        hi |= lo
    return g


def down_closure(keys, m: int) -> np.ndarray:
    """Boolean table of every submask of the given keys."""
    table = np.zeros(1 << m, dtype=bool)
    table[keys] = True
    for lo, hi in _halves(table, m):
        lo |= hi
    return table


def maximal_keys(member: np.ndarray, m: int) -> np.ndarray:
    """Boolean mask of members with no one-bit-larger member."""
    dominated = np.zeros_like(member)
    for (lo, _), (_, bigger) in zip(_halves(dominated, m), _halves(member, m)):
        lo |= bigger
    return member & ~dominated


def minimal_keys(flag: np.ndarray, m: int) -> np.ndarray:
    """Boolean mask of flagged keys with no one-bit-smaller flagged key."""
    dominated = np.zeros_like(flag)
    for (_, hi), (smaller, _) in zip(_halves(dominated, m), _halves(flag, m)):
        hi |= smaller
    return flag & ~dominated


def submasks(mask: int):
    """All submasks of ``mask``, descending, including mask and 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def bits(mask: int):
    """Indices of set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def vee_key(f: int, g: int) -> int:
    """Key of the pairwise-union family of the families with keys f and g."""
    out = 0
    for s in bits(f):
        for t in bits(g):
            out |= 1 << (s | t)
    return out


def masks_to_key(masks) -> int:
    out = 0
    for s in masks:
        out |= 1 << s
    return out
