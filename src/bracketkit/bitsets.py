"""Word-parallel bitset primitives.

Ranges are stored as Python ints used as bitmasks over element indices
(bit i set = element i present).  Bulk subset tests and symmetric-difference
counts are routed through numpy uint64 matrices, which is what makes the
greedy packings and verifiers fast enough at a few hundred points.

Re-indexing between a universe and its local index space is PEXT/PDEP over
Python ints.  For a universe U with set positions u_0 < u_1 < ... < u_{k-1}:

- ``compress(masks, U)`` (PEXT) maps each mask M to the local mask with bit
  j set iff bit u_j of M is set.  Bits of M outside U are dropped.
- ``expand(local, U)`` (PDEP) maps each local mask L to the mask with bit
  u_j set iff bit j of L is set, for j < k.  Bits of L at k and above are
  dropped.

So ``expand(compress(ms, U), U)`` is ``[m & U for m in ms]``, and
``compress(expand(ls, U), U)`` is ``[l & (2**k - 1) for l in ls]``.  Both
work a byte of U at a time through 256-entry tables, one lookup per non-zero
byte of U per mask.
"""

from functools import cache, lru_cache

import numpy as np

_WORD = 64
# Cells of one subset_matrix block: its uint64 temporaries take 8 bytes each.
_SUBSET_BLOCK_CELLS = 1 << 16


def indices_from_mask(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@cache
def _byte_tables():
    """PEXT[u][b] and PDEP[u][c] for every universe byte u, built on first use.

    PEXT[u][b] packs the bits of byte b at u's set positions into the low
    bits; PDEP[u][c] scatters the low popcount(u) bits of c onto them.  A
    PEXT entry extends the entry without b's lowest bit, and PDEP[u] is the
    inverse of PEXT[u] on the subsets of u.
    """
    pext = []
    pdep = []
    for u in range(256):
        row = [0] * 256
        for b in range(1, 256):
            low = b & -b
            row[b] = row[b ^ low] | ((1 << (u & (low - 1)).bit_count()) if u & low else 0)
        inverse = [0] * (1 << u.bit_count())
        for b in range(256):
            inverse[row[b]] = b & u
        pext.append(row)
        pdep.append(inverse)
    return pext, pdep


@lru_cache(maxsize=1)
def _layout(universe):
    """Byte count of the universe, and for each non-zero byte of it the
    PEXT plan (byte index, table row, local offset) and the PDEP plan
    (byte index, table row, local offset, local bit mask).

    The cache has one slot, kept for a ``compress`` and the ``expand`` that
    undoes it on the same universe.  It often misses: the seed-2 n=256
    protocol context build missed 20,892 of 30,498 lookups.  More slots help
    little, since that build touches about 14,000 distinct universes (64
    slots still missed 14,218 of the 39,618 lookups that it made before
    one-member bootstrap groups stopped re-indexing).
    """
    pext, pdep = _byte_tables()
    data = universe.to_bytes((universe.bit_length() + 7) // 8, "little")
    pext_plan = []
    pdep_plan = []
    offset = 0
    for k, u in enumerate(data):
        if u:
            pext_plan.append((k, pext[u], offset))
            pdep_plan.append((k, pdep[u], offset, len(pdep[u]) - 1))
            offset += u.bit_count()
    return len(data), tuple(pext_plan), tuple(pdep_plan)


def compress(masks, universe):
    """PEXT: each mask's bits at the universe's set positions, packed low."""
    width, plan, _ = _layout(universe)
    out = []
    for mask in masks:
        data = (mask & universe).to_bytes(width, "little")
        local = 0
        for k, row, offset in plan:
            local |= row[data[k]] << offset
        out.append(local)
    return out


def expand(local, universe):
    """PDEP: each local mask's low bits scattered onto the universe's set positions."""
    width, _, plan = _layout(universe)
    out = []
    for mask in local:
        data = bytearray(width)
        for k, row, offset, low in plan:
            data[k] = row[mask >> offset & low]
        out.append(int.from_bytes(data, "little"))
    return out


def words_needed(n):
    return max(1, (n + _WORD - 1) // _WORD)


def pack_masks(masks, n):
    """Pack int masks over n elements into a read-only (len(masks), words)
    uint64 array, least significant word first."""
    w = words_needed(n)
    data = b"".join(mask.to_bytes(8 * w, "little") for mask in masks)
    return np.frombuffer(data, "<u8").reshape(len(masks), w)


def bit_matrix(masks, n):
    """Masks over n elements as a (len(masks), n) bool membership matrix:
    entry [j, i] is bit i of masks[j], unpacked from the ``pack_masks`` rows."""
    packed = pack_masks(masks, n).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def subset_matrix(packed_small, packed_big):
    """Boolean matrix S[i, j] = small_i is a subset of big_j.

    It runs over blocks of small rows of at most ``_SUBSET_BLOCK_CELLS``
    cells (at least one row), so the uint64 temporaries of a word's AND
    stay within the block while the result is 1 byte a cell.
    """
    rows, cols = packed_small.shape[0], packed_big.shape[0]
    ok = np.ones((rows, cols), dtype=bool)
    step = max(1, _SUBSET_BLOCK_CELLS // max(1, cols))
    for start in range(0, rows, step):
        block = ok[start : start + step]
        for k in range(packed_small.shape[1]):
            col = packed_small[start : start + step, k][:, None]
            block &= (col & packed_big[:, k][None, :]) == col
    return ok


def symdiff_counts(packed_a, packed_b):
    """Integer matrix D[i, j] = |a_i symdiff b_j|.

    It sums in the narrowest unsigned type that holds the width's bit count
    and reads b a word at a time from one contiguous copy of its columns.
    """
    columns = np.ascontiguousarray(packed_b.T)
    acc = np.zeros((packed_a.shape[0], packed_b.shape[0]), np.min_scalar_type(_WORD * packed_a.shape[1]))
    for k in range(packed_a.shape[1]):
        acc += np.bitwise_count(packed_a[:, k][:, None] ^ columns[k])
    return acc.astype(np.int64)
