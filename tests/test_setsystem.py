import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketkit as bk
from bracketkit.bitsets import mask_from_indices, pack_masks, symdiff_counts
from bracketkit.setsystem import _reversed_mask, canonical_key, size_band

from conftest import masks_as_sets


def test_canonical_order_matches_tuple_definition():
    # Canonical order: size descending, ties by ascending lex of sorted lists.
    n = 6
    masks = list(range(1 << n))
    by_key = sorted(masks, key=lambda m: canonical_key(m, n))
    by_def = sorted(masks, key=lambda m: (-bin(m).count("1"), tuple(sorted(i for i in range(n) if m >> i & 1))))
    assert by_key == by_def


def _reversed_mask_by_string(mask, n):
    if n == 0:
        return 0
    return int(format(mask, f"0{n}b")[::-1], 2) if mask else 0


@given(st.sampled_from([0, 1, 7, 8, 9, 64, 65, 256]), st.data())
@settings(max_examples=200, deadline=None)
def test_reversed_mask_matches_string_reversal(n, data):
    # Masks may reach 9 bits past n: the string form then widens to the mask.
    mask = data.draw(st.integers(0, (1 << (n + 9)) - 1))
    assert _reversed_mask(mask, n) == _reversed_mask_by_string(mask, n)


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
    proj = bk.project(system, range(system.n))
    assert proj.system == system


def test_project_empty(collinear4):
    _, system = collinear4
    proj = bk.project(system, ())
    assert proj.system.n == 0
    assert proj.system.ranges == (0,)


def test_project_collinear4_pair(collinear4):
    _, system = collinear4
    proj = bk.project(system, (0, 3))
    got = set(masks_as_sets(proj.system.ranges, 2))
    assert got == {frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}
    assert proj.original_indices == (0, 3)
    assert proj.lift_mask(0b11) == 0b1001


def test_project_idempotent_on_own_ground_set(collinear4):
    _, system = collinear4
    proj = bk.project(system, (0, 1, 3))
    again = bk.project(proj.system, range(proj.system.n))
    assert again.system == proj.system


def test_project_bad_index(collinear4):
    _, system = collinear4
    with pytest.raises(bk.InputError):
        bk.project(system, (7,))


def test_complement_trivial():
    system = bk.SetSystem.from_sets(4, [()])
    comp = bk.complement_family(system)
    assert masks_as_sets(comp.ranges, 4) == [frozenset({0, 1, 2, 3})]


def test_complement_involution_and_count(collinear4):
    _, system = collinear4
    comp = bk.complement_family(system)
    assert len(comp.ranges) == len(system.ranges)
    assert bk.complement_family(comp) == system
    # prefix <-> suffix swap keeps the family size at 8
    assert len(comp.ranges) == 8


def test_filter_by_size_whole_and_empty(collinear4):
    _, system = collinear4
    assert bk.filter_by_size(system, upper=system.n) == system
    empty = bk.filter_by_size(system, lower=2, upper=2, include_lower=False, include_upper=False)
    assert empty.ranges == ()


def test_filter_by_size_example(collinear4):
    _, system = collinear4
    mid = bk.filter_by_size(system, lower=2, upper=3)
    got = set(masks_as_sets(mid.ranges, 4))
    assert got == {
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({0, 1, 2}),
        frozenset({1, 2, 3}),
    }


def test_filter_by_size_inverted(collinear4):
    _, system = collinear4
    with pytest.raises(bk.InputError):
        bk.filter_by_size(system, lower=3, upper=2)
    with pytest.raises(bk.InputError):
        bk.filter_by_size(system, upper=99)


@given(st.integers(0, 8), st.data())
@settings(max_examples=300, deadline=None)
def test_size_filters_match_a_per_range_reference(n, data):
    system = bk.SetSystem.from_masks(n, data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=24)))
    bound = st.one_of(st.none(), st.integers(0, n), st.fractions(0, n, max_denominator=6))
    lower, upper = data.draw(bound), data.draw(bound)
    if lower is not None and upper is not None and lower > upper:
        lower, upper = upper, lower
    include_lower, include_upper = data.draw(st.booleans()), data.draw(st.booleans())
    lo = 0 if lower is None else lower
    hi = n if upper is None else upper
    expected = tuple(
        m for m in system.ranges
        if (m.bit_count() >= lo if include_lower else m.bit_count() > lo)
        and (m.bit_count() <= hi if include_upper else m.bit_count() < hi)
    )
    kept = bk.filter_by_size(system, lower, upper, include_lower=include_lower, include_upper=include_upper)
    assert kept == bk.SetSystem(n, expected)
    lo_int, hi_int = data.draw(st.integers(-2, n + 2)), data.draw(st.integers(-2, n + 2))
    band = size_band(system.ranges, lo_int, hi_int)
    assert band == tuple(m for m in system.ranges if lo_int <= m.bit_count() <= hi_int)


def test_sym_diff_size():
    # |A symdiff B| is bitsets.symdiff_counts over pack_masks rows.
    rows = pack_masks([mask_from_indices(s) for s in [(0, 1), (1, 2), (0, 1, 2, 3), ()]], 4)
    assert symdiff_counts(rows[0], rows[:1]).tolist() == [0]
    assert symdiff_counts(rows[0], rows[1:2]).tolist() == [2]
    assert symdiff_counts(rows[2], rows[3:]).tolist() == [4]
    assert symdiff_counts(pack_masks([0b0011], 4)[0], pack_masks([0b0110], 4)).tolist() == [2]


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
    system = bk.SetSystem.from_sets(3, [(0,), (1,), (2,)])
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
            proj = bk.project(system, subset)
            bound = sum(math.comb(k, i) for i in range(min(d0, k) + 1))
            assert len(proj.system.ranges) <= bound


def test_shallow_cell_profile(collinear4):
    _, system = collinear4
    full = tuple(range(4))
    profiles = bk.shallow_cell_profile(system, [full], [4, 0, 1])
    assert profiles[0].distinct_count == len(system.ranges)
    assert profiles[1].distinct_count == 1  # empty set is a projection
    assert profiles[2].distinct_count == 3  # {}, {0}, {3}
    assert profiles[2].psi_hat == Fraction(3, 4)


def test_json_roundtrip(collinear4):
    _, system = collinear4
    again = bk.SetSystem.from_json(system.to_json())
    assert again == system
