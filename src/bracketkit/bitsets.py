"""Word-parallel bitset primitives.

Ranges are stored as Python ints used as bitmasks over element indices
(bit i set = element i present).  Bulk subset tests and symmetric-difference
counts are routed through numpy uint64 matrices, which is what makes
``base_mnet``'s serving matrix and the greedy packings fast enough at a few
hundred points; the verifiers stay pure Python.
"""

from itertools import repeat

import numpy as np

_WORD = 64
# Cells of one block of uint64 temporaries (8 bytes a cell), for
# subset_matrix's row blocks and the greedy packing's distance matrices.
_BLOCK_CELLS = 1 << 16


def indices_from_mask(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def pack_masks(masks, n):
    """Pack int masks over n elements into a read-only (len(masks), words)
    uint64 array of at least one word, least significant word first."""
    w = max(1, (n + _WORD - 1) // _WORD)
    data = b"".join(mask.to_bytes(8 * w, "little") for mask in masks)
    return np.frombuffer(data, "<u8").reshape(len(masks), w)


def unpack_masks(packed):
    """The int masks of ``pack_masks`` rows, as a list.  A view of each row
    as one fixed-width byte string hands the rows to Python in one call; it
    drops trailing zero bytes, which are the high bytes, so no value changes."""
    rows = np.ascontiguousarray(packed, "<u8")
    return list(map(int.from_bytes, rows.view(f"S{8 * rows.shape[1]}").ravel().tolist(), repeat("little")))


def bit_matrix(masks, n):
    """Masks over n elements as a (len(masks), n) bool membership matrix:
    entry [j, i] is bit i of masks[j], unpacked from the ``pack_masks`` rows."""
    packed = pack_masks(masks, n).view(np.uint8)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)


def subset_matrix(packed_small, packed_big):
    """Boolean matrix S[i, j] = small_i is a subset of big_j.

    It runs over blocks of small rows of at most ``_BLOCK_CELLS``
    cells (at least one row), so the uint64 temporaries of a word's AND
    stay within the block while the result is 1 byte a cell.
    """
    rows, cols = packed_small.shape[0], packed_big.shape[0]
    ok = np.ones((rows, cols), dtype=bool)
    step = max(1, _BLOCK_CELLS // max(1, cols))
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
