"""compress (PEXT) and expand (PDEP) against a per-bit reference loop,
pack_masks against a per-word one, subset_matrix against a per-pair one,
and the matrix kernels on no masks."""

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketkit import bitsets
from bracketkit.bitsets import compress, expand, pack_masks, subset_matrix, symdiff_counts

WIDTHS = (1, 8, 63, 64, 65, 128, 256)


def naive_compress(masks, universe):
    positions = [i for i in range(universe.bit_length()) if universe >> i & 1]
    out = []
    for mask in masks:
        local = 0
        for j, i in enumerate(positions):
            if mask >> i & 1:
                local |= 1 << j
        out.append(local)
    return out


def naive_expand(local, universe):
    positions = [i for i in range(universe.bit_length()) if universe >> i & 1]
    out = []
    for mask in local:
        full = 0
        for j, i in enumerate(positions):
            if mask >> j & 1:
                full |= 1 << i
        out.append(full)
    return out


@st.composite
def universe_and_masks(draw):
    n = draw(st.sampled_from(WIDTHS))
    universe = draw(st.integers(0, (1 << n) - 1))
    # Masks reach past both n and the universe, so dropped bits are exercised.
    masks = draw(st.lists(st.integers(0, (1 << (n + 9)) - 1), max_size=12))
    return universe, masks


def test_empty_universe_and_empty_list():
    assert compress([0b1011, 0, 1 << 300], 0) == [0, 0, 0]
    assert expand([0b1011, 0, 1 << 300], 0) == [0, 0, 0]
    assert compress([], 0b1101) == []
    assert expand([], 0b1101) == []


def test_examples():
    assert compress([0b1001, 0b0110, 0b1111], 0b1010) == [0b10, 0b01, 0b11]
    assert expand([0b10, 0b01, 0b11, 0b111], 0b1010) == [0b1000, 0b0010, 0b1010, 0b1010]


@pytest.mark.parametrize("n", WIDTHS)
def test_full_universe_is_identity(n):
    full = (1 << n) - 1
    masks = [0, full, 0b1010101 & full, 1 << (n - 1), full << 3]
    assert compress(masks, full) == [m & full for m in masks]
    assert expand(masks, full) == [m & full for m in masks]


@given(universe_and_masks())
@settings(max_examples=300, deadline=None)
def test_compress_matches_naive(case):
    universe, masks = case
    assert compress(masks, universe) == naive_compress(masks, universe)


@given(universe_and_masks())
@settings(max_examples=300, deadline=None)
def test_expand_matches_naive(case):
    universe, local = case
    assert expand(local, universe) == naive_expand(local, universe)


@given(universe_and_masks())
@settings(max_examples=300, deadline=None)
def test_round_trips(case):
    universe, masks = case
    assert expand(compress(masks, universe), universe) == [m & universe for m in masks]
    low = (1 << universe.bit_count()) - 1
    assert compress(expand(masks, universe), universe) == [m & low for m in masks]


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
            patch.setattr(bitsets, "_SUBSET_BLOCK_CELLS", block_rows * len(big))
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
