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

from functools import cache

import numpy as np

_WORD = 64


def mask_from_indices(indices):
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


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


def _plan(universe, rows):
    """Byte count of the universe, and (byte index, table row, local offset)
    for each non-zero byte of it."""
    data = universe.to_bytes((universe.bit_length() + 7) // 8, "little")
    plan = []
    offset = 0
    for k, u in enumerate(data):
        if u:
            plan.append((k, rows[u], offset))
            offset += u.bit_count()
    return len(data), plan


def compress(masks, universe):
    """PEXT: each mask's bits at the universe's set positions, packed low."""
    width, plan = _plan(universe, _byte_tables()[0])
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
    width, plan = _plan(universe, _byte_tables()[1])
    plan = [(k, row, offset, len(row) - 1) for k, row, offset in plan]
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
    """Pack int masks into an (len(masks), words) uint64 array."""
    w = words_needed(n)
    out = np.zeros((len(masks), w), dtype=np.uint64)
    full = (1 << _WORD) - 1
    for row, mask in enumerate(masks):
        for k in range(w):
            out[row, k] = (mask >> (k * _WORD)) & full
    return out


def subset_matrix(packed_small, packed_big):
    """Boolean matrix S[i, j] = small_i is a subset of big_j."""
    if packed_small.shape[0] == 0 or packed_big.shape[0] == 0:
        return np.zeros((packed_small.shape[0], packed_big.shape[0]), dtype=bool)
    ok = np.ones((packed_small.shape[0], packed_big.shape[0]), dtype=bool)
    for k in range(packed_small.shape[1]):
        col = packed_small[:, k][:, None]
        ok &= (col & packed_big[:, k][None, :]) == col
    return ok


def symdiff_counts(packed_one, packed_many):
    """Integer vector v[j] = |one symdiff many_j|."""
    if packed_many.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    acc = np.zeros(packed_many.shape[0], dtype=np.int64)
    for k in range(packed_one.shape[0]):
        acc += np.bitwise_count(packed_many[:, k] ^ packed_one[k]).astype(np.int64)
    return acc
