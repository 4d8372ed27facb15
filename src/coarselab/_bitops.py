"""Vectorized helpers for collections of subset-families encoded as bit keys.

A subset of an n-element universe is a mask in [0, 2^n); a family of
subsets is a key in [0, 2^(2^n)) whose bit ``s`` says that the subset
with mask ``s`` is a member.  For n <= 4 whole collections of families
fit in arrays of 65536 entries over m = 2^n subset slots.

Every gathering pass over such an array is one sweep: for each bit t,
``_halves`` pairs each key without bit t (``lo``) with the key that adds
it (``hi``), as two views of the same array.  The views pair whole
machine words: a bool table read as 2^k-byte words (k = min(t, 3))
holds 2^k consecutive keys per word, so bits 0 to 3 pair neighbouring
1-, 2-, 4- or 8-byte words and no row is shorter than one word; OR on
words is OR on the 0/1 bytes inside them.  Pushing ``lo`` into ``hi``
over all bits is the subset-sum (zeta) transform of Yates (1937), which
gathers over submasks (``or_has_submask``); pushing ``hi`` into ``lo``
is its mirror, which gathers over supermasks (``down_closure``).  One
step in either direction compares a key with its one-bit neighbours
(``maximal_keys``, ``minimal_keys``).  Folding a value per bit over a
key's members (``fold_or``, ``fold_and``) needs no pairing: it fills
the table in doubling blocks, each key from the key without its top bit.

The pairwise-union product of two families is computed a block of pairs
at a time: ``vee_images`` gives, per slot s, the product of {s} with each
family of a list, and ``vee_block`` ORs those images over the slots of
each left family.  ``pair_blocks`` walks the pairs i <= j of a list in
``combinations_with_replacement`` order, in row blocks of about
``PAIR_BLOCK`` pairs.
"""

from __future__ import annotations

import numpy as np


PAIR_BLOCK = 1 << 16


def _halves(a: np.ndarray, m: int):
    """For each bit t < m, word views (lo, hi) of the contiguous bool
    array ``a`` over the keys without and with bit t, paired by
    ``key ^ (1 << t)``.  Kernels write only into arrays they allocated,
    so the views always alias ``a``."""
    for t in range(m):
        k = min(t, 3)
        v = a.view(f"u{1 << k}").reshape(-1, 2, 1 << (t - k))
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
    member = np.ascontiguousarray(member)
    dominated = np.zeros_like(member)
    for (lo, _), (_, bigger) in zip(_halves(dominated, m), _halves(member, m)):
        lo |= bigger
    return member & ~dominated


def minimal_keys(flag: np.ndarray, m: int) -> np.ndarray:
    """Boolean mask of flagged keys with no one-bit-smaller flagged key."""
    flag = np.ascontiguousarray(flag)
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


def vee_images(gs, m: int) -> np.ndarray:
    """img[s, j]: key of {s | t : t in gs[j]}, the pairwise-union product
    of the one-member family {s} with the family gs[j].  Like ``_fold``,
    the rows with top bit b come from the rows below 2^b: OR-ing b into
    every member keeps the members with b and moves each other member t
    to t + 2^b.  Members s | t stay below the power of two that bounds
    the slots."""
    gs = np.asarray(gs, dtype=np.int64)
    img = np.empty((m, gs.size), dtype=np.int64)
    img[:1] = gs
    n = (m - 1).bit_length()
    for b in range(n):
        with_b = masks_to_key(t for t in range(1 << n) if t >> b & 1)
        out = img[1 << b : 2 << b]
        prev = img[: len(out)]
        out[:] = prev & with_b | (prev & ~with_b) << (1 << b)
    return img


def vee_block(fs, img: np.ndarray) -> np.ndarray:
    """out[i, j] = vee_key(fs[i], gs[j]) for img = vee_images(gs, m): the
    OR of img[s, j] over the slots s of fs[i]."""
    fs = np.asarray(fs, dtype=np.int64)
    has = (fs[:, None] >> np.arange(len(img)) & 1).astype(bool)
    out = np.zeros((fs.size, img.shape[1]), dtype=np.int64)
    for s, row in enumerate(img):
        np.bitwise_or(out, row, out=out, where=has[:, s, None])
    return out


def pair_blocks(n: int):
    """Row blocks of the pairs (i, j), i <= j < n: (i0, i1, upper) for
    rows i0..i1-1 against columns i0..n-1, upper[r, c] saying that
    j = i0 + c is not before i = i0 + r.  Row-major order inside a block
    and block order together give combinations_with_replacement order."""
    step = max(1, PAIR_BLOCK // max(n, 1))
    for i0 in range(0, n, step):
        i1 = min(n, i0 + step)
        yield i0, i1, np.arange(i0, n) >= np.arange(i0, i1)[:, None]


def masks_to_key(masks) -> int:
    out = 0
    for s in masks:
        out |= 1 << s
    return out
