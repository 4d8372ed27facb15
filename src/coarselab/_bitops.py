"""Vectorized helpers for collections of subset-families encoded as bit keys.

A subset of an n-element universe is a mask in [0, 2^n); a family of
subsets is a key in [0, 2^(2^n)) whose bit ``s`` says that the subset
with mask ``s`` is a member.  For n <= 4 whole collections of families
fit in arrays of 65536 entries over m = 2^n subset slots.

The sweep kernels work on the table packed 64 keys to a word: key k is
bit k % 64 of ``uint64`` word k // 64 (``np.packbits`` in little bit
order, viewed as little-endian words), and a table of fewer than 64
keys is zero-padded into one word.  A gathering pass over such a table
is one sweep: for each bit t it pairs each key without bit t (``lo``)
with the key that adds it (``hi``).  For t < 6 both keys sit in the
same word, 2^t bit positions apart, so one shift and the constant mask
of the positions without bit t (``0x5555...`` for t = 0, ``0x3333...``
for t = 1, up to ``0x00000000FFFFFFFF`` for t = 5) line each ``hi`` bit
up with its ``lo`` bit.  For t >= 6 the pairs are whole words, read as
two views of the word array.  Pushing ``lo`` into ``hi`` over all bits
is the subset-sum (zeta) transform of Yates (1937), which gathers over
submasks (``or_has_submask``); pushing ``hi`` into ``lo`` is its
mirror, which gathers over supermasks (``down_closure``).  One step in
either direction compares a key with its one-bit neighbours
(``maximal_keys``, ``minimal_keys``).  The kernels take and return bool
tables, packing on the way in and unpacking on the way out, and never
write into their input.  Folding a value per bit over a key's members
(``fold_or``, ``fold_and``) needs no pairing: it fills an ``int64``
table in doubling blocks, each key from the key without its top bit.
Two folds give the family keys under a point map: with
``point_images[i]`` the mask that point i goes to, ``image_keys`` folds
them into the image mask of every subset, then folds the one-member
families of those images into the image key of every family.

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


# (shift, mask of the bit positions without bit t) for the bits t < 6
# that pair keys inside one word
_IN_WORD = [
    (np.uint64(1 << t), np.uint64(sum(1 << p for p in range(64) if not p >> t & 1)))
    for t in range(6)
]


def _pack(table: np.ndarray) -> np.ndarray:
    """The bool table as uint64 words, 64 keys to a word, at least one word."""
    packed = np.packbits(table, bitorder="little")
    if packed.size < 8:
        packed = np.concatenate([packed, np.zeros(8 - packed.size, np.uint8)])
    return packed.view("<u8")


def _unpack(words: np.ndarray, m: int) -> np.ndarray:
    return np.unpackbits(words.view(np.uint8), count=1 << m, bitorder="little").view(bool)


def _push_up(dst: np.ndarray, src: np.ndarray, m: int) -> None:
    """For t = 0..m-1 in turn, dst[hi] |= src[lo] over the pairs of bit t."""
    for t in range(m):
        if t < 6:
            shift, lo = _IN_WORD[t]
            dst |= (src & lo) << shift
        else:
            half = 1 << (t - 6)
            d, v = dst.reshape(-1, 2 * half), src.reshape(-1, 2 * half)
            d[:, half:] |= v[:, :half]


def _push_down(dst: np.ndarray, src: np.ndarray, m: int) -> None:
    """For t = 0..m-1 in turn, dst[lo] |= src[hi] over the pairs of bit t."""
    for t in range(m):
        if t < 6:
            shift, lo = _IN_WORD[t]
            dst |= (src >> shift) & lo
        else:
            half = 1 << (t - 6)
            d, v = dst.reshape(-1, 2 * half), src.reshape(-1, 2 * half)
            d[:, :half] |= v[:, half:]


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


def image_keys(point_images) -> np.ndarray:
    """out[F]: key of the family {image of s : s in F}, the image of a
    subset s being the OR of point_images[i] over the points i of s."""
    n = len(point_images)
    return fold_or(1 << n, 1 << fold_or(n, point_images))


def or_has_submask(flag: np.ndarray, m: int) -> np.ndarray:
    """g[U] = any(flag[V] for V submask of U), by the subset-sum sweep."""
    g = _pack(flag)
    _push_up(g, g, m)
    return _unpack(g, m)


def down_closure(keys, m: int) -> np.ndarray:
    """Boolean table of every submask of the given keys."""
    table = np.zeros(1 << m, dtype=bool)
    table[keys] = True
    closed = _pack(table)
    _push_down(closed, closed, m)
    return _unpack(closed, m)


def maximal_keys(member: np.ndarray, m: int) -> np.ndarray:
    """Boolean mask of members with no one-bit-larger member."""
    words = _pack(member)
    dominated = np.zeros_like(words)
    _push_down(dominated, words, m)
    return _unpack(words & ~dominated, m)


def minimal_keys(flag: np.ndarray, m: int) -> np.ndarray:
    """Boolean mask of flagged keys with no one-bit-smaller flagged key."""
    words = _pack(flag)
    dominated = np.zeros_like(words)
    _push_up(dominated, words, m)
    return _unpack(words & ~dominated, m)


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
