"""compress (PEXT) and expand (PDEP) against a per-bit reference loop."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bracketkit.bitsets import compress, expand

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
