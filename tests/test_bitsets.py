"""pack_masks against a per-word reference loop, subset_matrix against a
per-pair one, and the matrix kernels on no masks."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketkit import bitsets
from bracketkit.bitsets import pack_masks, subset_matrix, symdiff_counts, unpack_masks


def naive_pack(masks, n):
    words = max(1, (n + 63) // 64)
    out = np.zeros((len(masks), words), dtype=np.uint64)
    for row, mask in enumerate(masks):
        for k in range(words):
            out[row, k] = (mask >> (64 * k)) & ((1 << 64) - 1)
    return out


PACK_WIDTHS = (1, 63, 64, 65, 128, 256)


@pytest.mark.parametrize("n", PACK_WIDTHS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pack_masks_matches_per_word_reference(n, data):
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    masks += [0, (1 << n) - 1, 1 << (n - 1)]
    got = pack_masks(masks, n)
    want = naive_pack(masks, n)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", PACK_WIDTHS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_unpack_masks_inverts_pack_masks(n, data):
    # Masks with high zero bytes and zero words, which the byte view drops.
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1) | st.integers(0, 255), max_size=12))
    assert unpack_masks(pack_masks(masks + [0, (1 << n) - 1], n)) == masks + [0, (1 << n) - 1]
    assert unpack_masks(pack_masks([], n)) == []


@pytest.mark.parametrize("n", PACK_WIDTHS)
def test_pack_masks_of_no_masks(n):
    got = pack_masks([], n)
    want = naive_pack([], n)
    assert got.dtype == want.dtype and got.shape == want.shape


@pytest.mark.parametrize("n", PACK_WIDTHS)
def test_matrix_kernels_on_no_masks(n):
    none = pack_masks([], n)
    some = pack_masks([0, (1 << n) - 1, 1], n)
    for small, big in ((none, some), (some, none), (none, none)):
        got = subset_matrix(small, big)
        assert got.dtype == bool and got.shape == (len(small), len(big))
        counts = symdiff_counts(small, big)
        assert counts.dtype == np.int64 and counts.shape == (len(small), len(big))
    counts = symdiff_counts(some[:1], none)[0]
    assert counts.dtype == np.int64 and counts.shape == (0,)


@pytest.mark.parametrize("n", PACK_WIDTHS)
def test_symdiff_counts_reach_the_full_width(n):
    # A mask against its complement differs in all n bits, the largest
    # count the narrow accumulator must hold.
    full = (1 << n) - 1
    rows = pack_masks([0, full, 1], n)
    counts = symdiff_counts(rows, rows)
    assert counts.dtype == np.int64
    assert counts.tolist() == [[0, n, 1], [n, 0, n - 1], [1, n - 1, 0]]


@pytest.mark.parametrize("words", (1, 2, 5))
@pytest.mark.parametrize("block_rows", (None, 1, 3))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_subset_matrix_matches_per_pair_reference(words, block_rows, data):
    # block_rows None keeps the module's cell budget; 1 runs a row a block,
    # and 3 a last block that is shorter, since the row count is no
    # multiple of 3.
    n = 64 * words
    masks = st.integers(0, (1 << n) - 1)
    subsets = st.lists(st.integers(0, n - 1), max_size=3).map(lambda bits: sum(1 << i for i in set(bits)))
    small = data.draw(st.lists(st.one_of(masks, subsets), min_size=1, max_size=10))
    if len(small) % 3 == 0:
        small.append(0)
    big = data.draw(st.lists(masks, min_size=1, max_size=8))
    big += [s | b for s, b in zip(small, big)]
    with pytest.MonkeyPatch.context() as patch:
        if block_rows is not None:
            patch.setattr(bitsets, "_BLOCK_CELLS", block_rows * len(big))
        got = subset_matrix(pack_masks(small, n), pack_masks(big, n))
    want = [[(s & b) == s for b in big] for s in small]
    assert got.dtype == bool and got.tolist() == want


def test_subset_matrix_peak_memory_stays_near_its_result():
    # 2,048 x 1,024 cells: the result takes 1 byte a cell, and one word's
    # uint64 temporaries over the whole matrix would take 8 more.
    rng = random.Random(5)
    small = pack_masks([rng.getrandbits(64) & rng.getrandbits(64) for _ in range(2048)], 64)
    big = pack_masks([rng.getrandbits(64) | rng.getrandbits(64) for _ in range(1024)], 64)
    tracemalloc.start()
    try:
        got = subset_matrix(small, big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (2048, 1024) and got.any()
    assert peak < 4 * got.size
