import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketkit as bk
from bracketkit.bitsets import bit_matrix, indices_from_mask, pack_masks, symdiff_counts, unpack_masks
from bracketkit.setsystem import canonical_order, canonical_rows, canonical_sort, index_lists_json, size_band

from conftest import mask_from_indices, masks_as_sets, system_from_sets
from naive_checks import naive_compress


def _by_definition(masks):
    # Canonical order: size descending, ties by ascending lex of sorted lists.
    return sorted(masks, key=lambda m: (-bin(m).count("1"), tuple(i for i in range(m.bit_length()) if m >> i & 1)))


def test_canonical_order_matches_tuple_definition():
    n = 6
    masks = list(range(1 << n))
    assert canonical_sort(masks) == _by_definition(masks)


@given(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 65, 256]), st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_sort_matches_tuple_definition(n, data):
    # Masks of up to n + 9 bits, so the byte keys take the widest mask's
    # bytes; the small sets make many ties in size.  Duplicates are allowed.
    small = st.sets(st.integers(0, n + 8), max_size=3).map(lambda s: sum(1 << i for i in s))
    masks = data.draw(st.lists(st.one_of(st.integers(0, (1 << (n + 9)) - 1), small), max_size=40))
    assert canonical_sort(masks) == _by_definition(masks)


@given(st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_order_of_packed_rows_matches_canonical_sort(words, data):
    # Besides random masks: the empty and full masks, single bits at the
    # word and byte edges, and equal-size masks that agree on word 0 and
    # first differ in a high word, where only the later lexsort keys decide.
    n = 64 * words
    full = (1 << n) - 1
    edges = [0, full] + [1 << i for i in (0, 7, 8, 63, 64, 127, 128, 255) if i < n]
    low = data.draw(st.integers(0, (1 << 64) - 1))
    high_ties = [low | 1 << i for i in range(64, n, 37)]
    drawn = data.draw(st.lists(st.integers(0, full), max_size=60))
    masks = data.draw(st.permutations(list(dict.fromkeys(edges + high_ties + drawn))))
    order = canonical_order(pack_masks(masks, n))
    assert [masks[i] for i in order] == canonical_sort(masks)


def test_canonical_order_of_no_rows_is_empty():
    assert canonical_order(pack_masks([], 64)).tolist() == []


@given(st.integers(1, 4), st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_rows_are_the_distinct_rows_in_canonical_order(words, data):
    # Rows repeat, next to each other or apart, among the edge masks of the
    # canonical order test and random masks.
    n = 64 * words
    full = (1 << n) - 1
    edges = [0, full] + [1 << i for i in (0, 7, 8, 63, 64, 127, 128, 255) if i < n]
    pool = edges + data.draw(st.lists(st.integers(0, full), max_size=30))
    masks = data.draw(st.lists(st.sampled_from(pool), max_size=80))
    rows = canonical_rows(pack_masks(masks, n))
    assert rows.shape == (len(set(masks)), words)
    assert unpack_masks(rows) == canonical_sort(set(masks))


def test_canonical_rows_of_no_rows_are_none():
    assert canonical_rows(pack_masks([], 64)).shape == (0, 1)


@given(st.integers(1, 10), st.data())
@settings(max_examples=50, deadline=None)
def test_dedup_and_membership(n, data):
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=30))
    system = bk.SetSystem.from_masks(n, masks)
    assert len(set(system.ranges)) == len(system.ranges)
    assert set(system.ranges) == set(masks)


def test_range_outside_ground_set_rejected():
    with pytest.raises(bk.InputError):
        bk.SetSystem.from_masks(2, [0b100])


def test_project_identity(collinear4):
    _, system = collinear4
    proj = bk.project(system, mask_from_indices(range(system.n)))
    assert proj == system


def test_project_empty(collinear4):
    _, system = collinear4
    proj = bk.project(system, mask_from_indices(()))
    assert proj.n == 0
    assert proj.ranges == (0,)


def test_project_collinear4_pair(collinear4):
    _, system = collinear4
    proj = bk.project(system, mask_from_indices((0, 3)))
    got = set(masks_as_sets(proj.ranges, 2))
    assert got == {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}


def test_project_idempotent_on_own_ground_set(collinear4):
    _, system = collinear4
    proj = bk.project(system, mask_from_indices((0, 1, 3)))
    again = bk.project(proj, mask_from_indices(range(proj.n)))
    assert again == proj


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_project_matches_the_per_bit_reference(data):
    # Ground sets of one and of several words, and masks over all of them.
    n = data.draw(st.sampled_from([1, 8, 63, 64, 65, 128, 256]))
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
    system = bk.SetSystem.from_masks(n, masks)
    mask = data.draw(st.sampled_from([0, (1 << n) - 1]) | st.integers(0, (1 << n) - 1))
    expected = bk.SetSystem.from_masks(mask.bit_count(), naive_compress(system.ranges, mask))
    assert bk.project(system, mask) == expected


def test_a_range_outside_the_ground_mask_is_refused():
    # The ground mask is (1 << n) - 1; a negative mask has elements past
    # every n.
    assert bk.SetSystem.from_masks(3, [0b101, 0b110]).full_mask == 0b111
    for bad in (0b1000, 0b100000, -0b10):
        with pytest.raises(bk.InputError, match="outside the ground set"):
            bk.SetSystem.from_masks(3, [0b100, bad])


def test_project_bad_index(collinear4):
    _, system = collinear4
    for mask in (1 << 7, -1):
        with pytest.raises(bk.InputError):
            bk.project(system, mask)


def test_complement_trivial():
    system = system_from_sets(4, [()])
    comp = bk.complement_family(system)
    assert masks_as_sets(comp.ranges, 4) == [frozenset({0, 1, 2, 3})]


def test_complement_involution_and_count(collinear4):
    _, system = collinear4
    comp = bk.complement_family(system)
    assert len(comp.ranges) == len(system.ranges)
    assert bk.complement_family(comp) == system
    # prefix <-> suffix swap keeps the family size at 8
    assert len(comp.ranges) == 8


@given(st.integers(0, 70), st.data())
@settings(max_examples=200, deadline=None)
def test_complement_family_equals_from_masks(n, data):
    full = (1 << n) - 1
    masks = data.draw(st.lists(st.integers(0, full), max_size=40))
    comp = bk.complement_family(bk.SetSystem.from_masks(n, masks))
    assert comp == bk.SetSystem.from_masks(n, [full ^ m for m in masks])


def test_filter_by_size_whole_and_empty(collinear4):
    _, system = collinear4
    assert bk.filter_by_size(system, upper=system.n) == system
    assert bk.filter_by_size(system, upper=Fraction(1, 2)).ranges == (0,)


def test_filter_by_size_example(collinear4):
    _, system = collinear4
    low = bk.filter_by_size(system, upper=Fraction(5, 2))
    got = set(masks_as_sets(low.ranges, 4))
    assert got == {
        frozenset(),
        frozenset({0}),
        frozenset({3}),
        frozenset({0, 1}),
        frozenset({2, 3}),
    }


def test_filter_by_size_inverted(collinear4):
    _, system = collinear4
    with pytest.raises(bk.InputError):
        bk.filter_by_size(system, upper=Fraction(-1, 2))
    with pytest.raises(bk.InputError):
        bk.filter_by_size(system, upper=99)


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 130])
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_bool_matrix_matches_per_bit_reference(n, data):
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=10))
    for system in (bk.SetSystem.from_masks(n, masks), bk.SetSystem.from_masks(n, masks + [0, (1 << n) - 1])):
        want = np.zeros((len(system.ranges), n), dtype=bool)
        for row, mask in enumerate(system.ranges):
            for i in range(n):
                want[row, i] = bool(mask >> i & 1)
        got = bit_matrix(system.ranges, n)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@given(st.integers(0, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_size_filters_match_a_per_range_reference(n, data):
    system = bk.SetSystem.from_masks(n, data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=24)))
    upper = data.draw(st.one_of(st.none(), st.integers(0, n), st.fractions(0, n, max_denominator=6)))
    hi = n if upper is None else upper
    expected = tuple(m for m in system.ranges if m.bit_count() <= hi)
    assert bk.filter_by_size(system, hi) == bk.SetSystem(n, expected)
    lo_int, hi_int = data.draw(st.integers(-2, n + 2)), data.draw(st.integers(-2, n + 2))
    band = size_band(system.ranges, lo_int, hi_int)
    assert band == tuple(m for m in system.ranges if lo_int <= m.bit_count() <= hi_int)


def test_sym_diff_size():
    # |A symdiff B| is bitsets.symdiff_counts over pack_masks rows.
    sets = [(0, 1), (1, 2), (0, 1, 2, 3), ()]
    rows = pack_masks([mask_from_indices(s) for s in sets], 4)
    assert symdiff_counts(rows[:1], rows[:1])[0].tolist() == [0]
    assert symdiff_counts(rows[:1], rows[1:2])[0].tolist() == [2]
    assert symdiff_counts(rows[2:3], rows[3:])[0].tolist() == [4]
    assert symdiff_counts(pack_masks([0b0011], 4), pack_masks([0b0110], 4))[0].tolist() == [2]
    assert symdiff_counts(rows, rows).tolist() == [[len(set(a) ^ set(b)) for b in sets] for a in sets]


def _naive_shattered(system, subset):
    traces = {tuple((mask >> i) & 1 for i in subset) for mask in system.ranges}
    return len(traces) == 1 << len(subset)


def _naive_vc(system):
    from itertools import combinations

    best = -1 if not system.ranges else 0
    for k in range(1, system.n + 1):
        hit = False
        for subset in combinations(range(system.n), k):
            if _naive_shattered(system, subset):
                best = k
                hit = True
                break
        if not hit:
            break
    return best


def test_vc_singletons():
    system = system_from_sets(3, [(0,), (1,), (2,)])
    res = bk.vc_dimension_exact(system, 3)
    assert res.value == 1 and res.exact
    assert _naive_vc(system) == 1


def test_vc_power_set():
    system = bk.SetSystem.from_masks(3, range(8))
    res = bk.vc_dimension_exact(system, 3)
    assert res.value == 3


def test_vc_collinear4(collinear4):
    _, system = collinear4
    res = bk.vc_dimension_exact(system, 4)
    assert res.value == 2 and res.exact
    assert _naive_vc(system) == 2


def test_vc_cap_marker(collinear4):
    _, system = collinear4
    res = bk.vc_dimension_exact(system, 1)
    assert res.value == 1 and not res.exact


def test_vc_empty_family():
    system = bk.SetSystem.from_masks(3, [])
    assert bk.vc_dimension_exact(system, 2).value == -1


@given(st.integers(0, 400))
@settings(max_examples=25, deadline=None)
def test_vc_random_matches_naive(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(1, 6)
    masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 12))]
    system = bk.SetSystem.from_masks(n, masks)
    assert bk.vc_dimension_exact(system, n).value == _naive_vc(system)


def test_sauer_shelah_power_set():
    system = bk.SetSystem.from_masks(3, range(8))
    rep = bk.sauer_shelah_check(system, 3)
    assert rep.range_count == 8 and rep.binomial_sum == 8 and rep.passed


def test_sauer_shelah_collinear4(collinear4):
    _, system = collinear4
    rep = bk.sauer_shelah_check(system, 2)
    assert rep.range_count == 8
    assert rep.binomial_sum == 1 + 4 + 6
    assert rep.passed


def test_sauer_holds_at_exact_vc(collinear4, triangle):
    for _, system in (collinear4, triangle):
        d0 = bk.vc_dimension_exact(system, system.n).value
        assert bk.sauer_shelah_check(system, d0).passed


def test_projection_counts_respect_sauer(collinear4):
    from itertools import combinations

    _, system = collinear4
    d0 = bk.vc_dimension_exact(system, 4).value
    for k in range(system.n + 1):
        for subset in combinations(range(system.n), k):
            proj = bk.project(system, mask_from_indices(subset))
            bound = sum(math.comb(k, i) for i in range(min(d0, k) + 1))
            assert len(proj.ranges) <= bound


def test_shallow_cell_profile(collinear4):
    # The cells of size <= cap on a prefix sample, as the packing bound
    # report counts them.
    _, system = collinear4
    full = bk.project(system, mask_from_indices(range(4)))
    counts = [len(size_band(full.ranges, 0, cap)) for cap in (4, 0, 1)]
    assert counts[0] == len(system.ranges) == 8
    assert counts[1] == 1  # empty set is a projection
    assert counts[2] == 3  # {}, {0}, {3}
    assert Fraction(counts[2], full.n) == Fraction(3, 4)


def test_json_roundtrip(collinear4):
    _, system = collinear4
    again = bk.SetSystem.from_json(system.to_json())
    assert again == system


def _index_lists_by_definition(masks):
    return json.dumps([list(indices_from_mask(m)) for m in masks])


@pytest.mark.parametrize("block_cells", [bk.bitsets._BLOCK_CELLS, 130])
def test_index_lists_json_is_json_dumps_of_the_index_lists(monkeypatch, block_cells):
    # At 130 cells a block holds two rows of up to five words, or fewer
    # masks than that when their indices pass 130, so block edges fall
    # inside each list, and a mask of more than 130 bits is a block alone.
    monkeypatch.setattr(bk.bitsets, "_BLOCK_CELLS", block_cells)
    rng = random.Random(48)
    dense = [rng.getrandbits(64 * rng.randint(1, 5)) for _ in range(150)]
    sparse = [sum(1 << rng.randrange(64 * rng.randint(1, 5)) for _ in range(rng.randint(0, 4))) for _ in range(150)]
    mixed = dense + sparse
    rng.shuffle(mixed)
    for masks in (mixed, [], [0], [0, 0b101, 0], (1 << 65535, (1 << 65535) | 1, 0)):
        assert index_lists_json(masks, "test JSON") == _index_lists_by_definition(masks)
    for system in (bk.SetSystem.from_masks(0, []), bk.SetSystem.from_masks(0, [0]), bk.SetSystem.from_masks(320, mixed)):
        expected = json.dumps({"n": system.n, "ranges": json.loads(_index_lists_by_definition(system.ranges))})
        assert system.to_json() == expected
