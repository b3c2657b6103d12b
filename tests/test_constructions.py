import functools
import math
import operator
import random
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketkit as bk
from bracketkit import constructions, trace
from bracketkit.setsystem import canonical_rows, canonical_sort, size_band
from bracketkit.verify import find_cover, verify_family

from conftest import criterion1_instance, general_position_points, mask_set, system_from_sets
from naive_checks import _reference_bootstrap, naive_bracket_ok, naive_container_ok, naive_expand, naive_mnet_ok


def test_base_mnet_examples(collinear4):
    _, system = collinear4
    fam = bk.base_mnet(system, Fraction(1, 2), Fraction(1, 2))
    assert bk.verify_mnet(fam).passed
    heavy_count = sum(1 for m in system.ranges if m.bit_count() >= 2)
    assert len(fam.pieces) <= heavy_count
    assert naive_mnet_ok(system, fam.pieces, fam.lam, fam.eps)
    empty = bk.base_mnet(system, Fraction(1, 2), Fraction(3, 2))
    assert empty.pieces == ()


def test_base_mnet_heaviness_one(collinear4):
    _, system = collinear4
    fam = bk.base_mnet(system, Fraction(1), Fraction(1, 2))
    assert bk.verify_mnet(fam).passed


def test_base_mnet_at_tiny_heaviness():
    # At this lam, lam.numerator * |R| compared in int64 would overflow.
    lam = Fraction(1, 1 << 30)
    _, system = general_position_points(2, 8, 4)
    fam = bk.base_mnet(system, lam, Fraction(1, 4))
    assert fam.lam == lam
    assert naive_mnet_ok(system, fam.pieces, lam, Fraction(1, 4))


@st.composite
def abstract_systems(draw):
    """A random set system on one to three mask words.  Each range is a
    random mask, or the meet or join of two, so range sizes spread around
    n/4, n/2 and 3n/4."""
    n = draw(st.integers(1, 130))
    word = st.integers(0, (1 << n) - 1)
    ranges = []
    for _ in range(draw(st.integers(0, 24))):
        a, b = draw(word), draw(word)
        ranges.append(draw(st.sampled_from([a, a & b, a | b])))
    return bk.SetSystem.from_masks(n, ranges)


@st.composite
def abstract_mnet_inputs(draw):
    """An ``abstract_systems`` draw with lam and eps."""
    system = draw(abstract_systems())
    lam = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    eps = draw(st.sampled_from([Fraction(1, 8), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    return system, lam, eps


@given(abstract_mnet_inputs())
@settings(max_examples=200, deadline=None)
def test_base_mnet_serves_every_heavy_range_from_its_candidates(inputs):
    # Every heavy range is a candidate that serves itself (lam <= 1), so the
    # greedy cover serves each one from the candidates, with no other path.
    system, lam, eps = inputs
    fam = bk.base_mnet(system, lam, eps)
    heavy = size_band(system.ranges, math.ceil(eps * system.n), system.n)
    capped = heavy[: constructions.PAIR_CAP]
    candidates = set(heavy) | {a & b for a in capped for b in capped}
    assert set(fam.witness) == set(heavy)
    for mask, piece in fam.witness.items():
        assert piece in candidates and piece in fam.pieces
        assert piece & ~mask == 0
        assert piece.bit_count() >= lam * mask.bit_count()
    assert naive_mnet_ok(system, fam.pieces, lam, eps)


def _reference_greedy_cover(system, lam, eps):
    """The witness map of a greedy cover with the special cases that
    ``base_mnet`` no longer has: a return before any work when no range is
    heavy, and the pruning of candidates that serve no heavy range, on a
    dense serving matrix of plain Python subset and size tests."""
    n = system.n
    heavy = size_band(system.ranges, math.ceil(eps * n), n)
    if not heavy:
        return {}
    return _reference_greedy_witness(heavy, lam)


def _reference_greedy_witness(heavy, lam):
    """``_reference_greedy_cover`` on a non-empty canonical list of the
    ranges to serve, as ``_greedy_assignment`` takes it."""
    cands = canonical_sort(constructions._candidates(heavy))
    serves = np.array([[c & r == c and c.bit_count() >= lam * r.bit_count() for r in heavy] for c in cands])
    keep = serves.any(axis=1)
    cands = [c for c, k in zip(cands, keep) if k]
    serves = serves[keep]
    assignment = {}
    uncovered = np.ones(len(heavy), dtype=bool)
    counts = serves.sum(axis=1)
    while uncovered.any():
        best = int(np.argmax(counts))
        newly = serves[best] & uncovered
        for j in np.flatnonzero(newly):
            assignment[heavy[j]] = cands[best]
        uncovered &= ~newly
        counts = counts - serves[:, newly].sum(axis=1)
    return assignment


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_base_mnet_matches_the_reference_greedy_cover(data):
    # eps above 1 leaves no range heavy (unless n = 0); lam = 1/2**30 lets
    # almost every candidate inside a range serve it.
    n = data.draw(st.integers(0, 70), label="n")
    word = st.integers(0, (1 << n) - 1)
    ranges = []
    for _ in range(data.draw(st.integers(0, 24), label="ranges")):
        a, b = data.draw(word), data.draw(word)
        ranges.append(data.draw(st.sampled_from([a, a & b, a | b])))
    system = bk.SetSystem.from_masks(n, ranges)
    lam = data.draw(st.sampled_from([Fraction(1, 1 << 30), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4), 1]))
    eps = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), 1, Fraction(5, 4), 2]))
    expected = _reference_greedy_cover(system, lam, eps)
    # Both greedy loops meet the reference on the same draw: the numpy loop
    # with no int cells, the int loop with cells to spare.
    for int_cells in (0, 1 << 30):
        with mock.patch.object(constructions, "_INT_CELLS", int_cells):
            fam = bk.base_mnet(system, lam, eps)
        assert fam.witness == expected
        assert fam.pieces == tuple(canonical_sort(set(expected.values())))


@pytest.fixture(scope="module")
def circle40_boost_inputs():
    """Every greedy cover that boosting runs on circle-40 at eps = 1/5,
    eta = 1/2, as base_mnet inputs (system, lam, eps): a member P's heavy
    traces as a plain system of the parent's n = 40 at eps = ceil(|P|/2)/n,
    which slices out that heavy list in the member's one mask word.  P is
    the first heavy trace, since every trace lies inside it."""
    calls = []
    original = constructions._greedy_assignment

    def recording(heavy, lam, width):
        calls.append((heavy, lam))
        return original(heavy, lam, width)

    with mock.patch.object(constructions, "_greedy_assignment", recording):
        bk.boost_epsilon(_circle(40), bk.default_provider(), Fraction(1, 5), HALF)
    return [(bk.SetSystem.from_masks(40, heavy), lam, Fraction((heavy[0].bit_count() + 1) // 2, 40))
            for heavy, lam in calls]


def _heavy_and_cells(system, eps):
    heavy = size_band(system.ranges, math.ceil(eps * system.n), system.n)
    return len(heavy), len(constructions._candidates(heavy)) * len(heavy)


@functools.cache
def _planar_member():
    """A seeded n = 256 planar domain's halfspace system and a 16-point
    range P of it whose elements span indices below 64 and above 191, so
    its traces take 4 mask words."""
    system = bk.enumerate_halfspace_ranges(bk.random_point_set(2, 256, 2000))
    return system, next(r for r in size_band(system.ranges, 16, 16) if r & ((1 << 64) - 1) and r >> 192)


def _planar_member_traces():
    """The traces of ``_planar_member``'s ranges on its P, as boosting takes
    a member's, in a plain system of the parent's n.  At eps =
    ceil(|P|/2)/n = 8/256 its heavy ranges are those boosting serves."""
    system, member = _planar_member()
    return bk.SetSystem.from_masks(256, (r & member for r in system.ranges))


def test_base_mnet_numpy_path_matches_the_reference_beyond_the_pair_cap(circle40_boost_inputs):
    # More than PAIR_CAP heavy ranges, so some heavy ranges make no pairs,
    # on one word (a circle-40 member) and on four (an n = 256 member); the
    # numpy path runs at the module's block budget and at one cell a block.
    circle = min(
        (call for call in circle40_boost_inputs if _heavy_and_cells(call[0], call[2])[0] > constructions.PAIR_CAP),
        key=lambda call: _heavy_and_cells(call[0], call[2])[1],
    )
    planar = (_planar_member_traces(), HALF, Fraction(8, 256))
    assert max(planar[0].ranges).bit_length() > 192
    for system, lam, eps in (circle, planar):
        assert _heavy_and_cells(system, eps)[0] > constructions.PAIR_CAP
        expected = _reference_greedy_cover(system, lam, eps)
        for block_cells in (bk.bitsets._BLOCK_CELLS, 1):
            with mock.patch.object(constructions, "_INT_CELLS", 0), \
                    mock.patch.object(bk.bitsets, "_BLOCK_CELLS", block_cells):
                fam = bk.base_mnet(system, lam, eps)
            assert list(fam.witness.items()) == list(expected.items())
            assert fam.pieces == tuple(canonical_sort(set(expected.values())))


@st.composite
def nested_range_lists(draw):
    """A canonical list of distinct ranges over n = 1 to 256 elements (1 to
    4 mask words) with many sizes and the empty range among them.  Each new
    range is a random subset of a given size of the ground set or of an
    earlier range, so that ranges nest and candidates serve more than their
    own range."""
    n = draw(st.integers(1, 256), label="n")
    rng = draw(st.randoms(use_true_random=False))
    ranges = [0]
    for _ in range(draw(st.integers(1, 30), label="ranges")):
        parent = draw(st.sampled_from([(1 << n) - 1, *ranges]))
        elements = [i for i in range(n) if parent >> i & 1]
        ranges.append(sum(1 << i for i in rng.sample(elements, rng.randint(0, len(elements)))))
    return n, canonical_sort(set(ranges))


@given(nested_range_lists(), st.sampled_from([Fraction(1, 1 << 30), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
@settings(max_examples=120, deadline=None)
def test_the_banded_serving_matrix_matches_the_per_cell_relation(inputs, lam):
    # The serving matrix tests only each range's size band of candidates; the
    # matrix, its column sums and the band ends must match the naive
    # relation, and the numpy greedy cover the reference, at the module's
    # block budget and at one cell a block.
    n, heavy = inputs
    cands = canonical_sort(constructions._candidates(heavy))
    want = np.array(
        [[c & r == c and c.bit_count() >= math.ceil(lam * r.bit_count()) for c in cands] for r in heavy],
        dtype=bool,
    )
    expected = _reference_greedy_witness(heavy, lam)
    packed = bk.bitsets.pack_masks(cands, n)
    for block_cells in (bk.bitsets._BLOCK_CELLS, 1):
        with mock.patch.object(bk.bitsets, "_BLOCK_CELLS", block_cells), \
                mock.patch.object(constructions, "_INT_CELLS", 0):
            serves, counts, lo, hi = constructions._serving_matrix(packed, bk.bitsets.pack_masks(heavy, n), lam)
            witness, pieces = constructions._greedy_assignment(heavy, lam, n)
        assert np.array_equal(serves, want)
        assert np.array_equal(counts, want.sum(axis=0))
        sizes = [c.bit_count() for c in cands]
        for j, r in enumerate(heavy):
            band = [i for i, size in enumerate(sizes) if math.ceil(lam * r.bit_count()) <= size <= r.bit_count()]
            assert list(range(lo[j], hi[j])) == band
        assert list(witness.items()) == list(expected.items())
        assert pieces == canonical_sort(set(expected.values()))


def _raise_if_called(*args):
    raise AssertionError("a one-pick cover ran a greedy loop")


@given(nested_range_lists(), st.sampled_from([Fraction(1, 1 << 30), Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
       st.data())
@settings(max_examples=200, deadline=None)
def test_the_greedy_cover_makes_one_pick_exactly_when_the_meet_is_a_heavy_enough_candidate(inputs, lam, data):
    # A canonical prefix of nested ranges often has its smallest range, or
    # the AND of two, as its meet.  The reference greedy picks one piece
    # exactly when the meet is a candidate heavy enough for the largest
    # range; then _greedy_assignment serves it without either loop, and
    # both loops, called directly, still return the same cover.
    n, ranges = inputs
    heavy = ranges[: data.draw(st.integers(1, len(ranges)), label="prefix")]
    expected = _reference_greedy_witness(heavy, lam)
    cands = constructions._candidates(heavy)
    meet = functools.reduce(operator.and_, heavy)
    one_pick = meet in cands and meet.bit_count() >= lam * heavy[0].bit_count()
    assert (len(set(expected.values())) == 1) == one_pick
    if not one_pick:
        witness, pieces = constructions._greedy_assignment(heavy, lam, n)
    else:
        with mock.patch.object(constructions, "_int_greedy_cover", _raise_if_called), \
                mock.patch.object(constructions, "_numpy_greedy_cover", _raise_if_called):
            witness, pieces = constructions._greedy_assignment(heavy, lam, n)
        assert pieces == [meet]
        for loop_witness, loop_pieces in (
            constructions._int_greedy_cover(canonical_sort(cands), heavy, lam),
            constructions._numpy_greedy_cover(
                canonical_rows(bk.bitsets.pack_masks(list(cands), n)), heavy, bk.bitsets.pack_masks(heavy, n), lam),
        ):
            assert list(loop_witness.items()) == list(witness.items())
            assert loop_pieces == pieces
    assert list(witness.items()) == list(expected.items())
    assert pieces == canonical_sort(set(expected.values()))


def test_a_one_pick_cover_over_the_cell_budget_is_still_refused():
    # The chain {0,1,2} > {0,1} > {0} at lam = 1/3: its meet {0} serves
    # all three ranges, and its 3 candidates x 3 ranges make 9 cells.  The
    # budget is checked before the meet, with the message of every cover.
    system = system_from_sets(3, [[0, 1, 2], [0, 1], [0]])
    lam, eps = Fraction(1, 3), Fraction(1, 3)
    with mock.patch.object(constructions, "MAX_SERVING_CELLS", 8), \
            mock.patch.object(constructions, "_int_greedy_cover", _raise_if_called), \
            mock.patch.object(constructions, "_numpy_greedy_cover", _raise_if_called):
        with pytest.raises(bk.ResourceBudgetError,
                           match=r"^serving matrix cells \(candidates x heavy ranges\) 9 exceeds the limit 8$"):
            bk.base_mnet(system, lam, eps)
    with mock.patch.object(constructions, "MAX_SERVING_CELLS", 9):
        fam = bk.base_mnet(system, lam, eps)
    assert fam.pieces == (0b001,)
    assert list(fam.witness.items()) == [(0b111, 0b001), (0b011, 0b001), (0b001, 0b001)]


def _raise_if_built(*args):
    raise AssertionError("a cover on the row path built the candidate set")


def test_a_cover_on_the_row_path_over_the_cell_budget_is_refused_with_the_same_message():
    # The chain {0} < {0,1} < ... < {0,...,29} at lam = 1/30: 30 heavy ranges
    # pass the row gate (30**2 > _INT_CELLS), every AND of two is a range,
    # so the 30 candidate rows make 900 cells, and the meet {0} serves all.
    system = bk.SetSystem.from_masks(30, [(1 << k) - 1 for k in range(1, 31)])
    lam = eps = Fraction(1, 30)
    assert 30 ** 2 > constructions._INT_CELLS
    with mock.patch.object(constructions, "MAX_SERVING_CELLS", 899), \
            mock.patch.object(constructions, "_candidates", _raise_if_built):
        with pytest.raises(bk.ResourceBudgetError,
                           match=r"^serving matrix cells \(candidates x heavy ranges\) 900 exceeds the limit 899$"):
            bk.base_mnet(system, lam, eps)
    with mock.patch.object(constructions, "MAX_SERVING_CELLS", 900), \
            mock.patch.object(constructions, "_candidates", _raise_if_built), \
            mock.patch.object(constructions, "_numpy_greedy_cover", _raise_if_called):
        fam = bk.base_mnet(system, lam, eps)
    assert fam.pieces == (0b1,)
    assert list(fam.witness.items()) == [(r, 0b1) for r in system.ranges]


@given(nested_range_lists())
@settings(max_examples=100, deadline=None)
def test_the_candidate_rows_are_the_candidate_set_in_canonical_order(inputs):
    n, heavy = inputs
    rows = constructions._candidate_rows(bk.bitsets.pack_masks(heavy, n))
    assert bk.bitsets.unpack_masks(rows) == canonical_sort(constructions._candidates(heavy))


@given(nested_range_lists(), st.sampled_from([Fraction(1, 1 << 30), Fraction(1, 3), Fraction(1, 2), Fraction(1)]))
@settings(max_examples=100, deadline=None)
def test_the_row_path_matches_the_reference_greedy_cover(inputs, lam):
    # With no int cells every cover passes the row gate, one-pick covers
    # included: it never builds the candidate set, at the module's block
    # budget and at one cell a block.
    n, heavy = inputs
    expected = _reference_greedy_witness(heavy, lam)
    for block_cells in (bk.bitsets._BLOCK_CELLS, 1):
        with mock.patch.object(bk.bitsets, "_BLOCK_CELLS", block_cells), \
                mock.patch.object(constructions, "_INT_CELLS", 0), \
                mock.patch.object(constructions, "_candidates", _raise_if_built):
            witness, pieces = constructions._greedy_assignment(heavy, lam, n)
        assert list(witness.items()) == list(expected.items())
        assert pieces == canonical_sort(set(expected.values()))


def test_boosting_heavy_traces_are_the_size_band_of_the_canonical_trace_set():
    # On one mask word (every 40th range of circle-40 as P) and on four
    # (the n = 256 member), at the module's block budget and at one cell a
    # block, so that the AND runs in blocks of one row.
    circle = _circle(40)
    cases = [(circle, member) for member in circle.ranges[::40]] + [_planar_member()]
    for system, member in cases:
        packed = bk.bitsets.pack_masks(system.ranges, system.n)
        size = member.bit_count()
        want = size_band(canonical_sort({r & member for r in system.ranges}), math.ceil(HALF * size), size)
        assert want and packed.shape[1] == max(1, math.ceil(system.n / 64))
        for block_cells in (bk.bitsets._BLOCK_CELLS, 1):
            with mock.patch.object(bk.bitsets, "_BLOCK_CELLS", block_cells):
                assert constructions._heavy_traces(packed, member, system.n) == want


@pytest.mark.parametrize(("n", "ranges", "pieces"), [(0, [], ()), (0, [0], (0,)), (5, [], ()), (5, [0], ())])
def test_boosting_a_system_with_no_nonempty_range(n, ranges, pieces):
    # At n = 0 the empty range is heavy in the last band and is its own
    # piece; at n = 5 it lies below every band, and no range means no band.
    system = bk.SetSystem.from_masks(n, ranges)
    fam = bk.boost_epsilon(system, bk.default_provider(), Fraction(1, 5), HALF)
    assert fam.pieces == pieces
    assert fam.witness == dict.fromkeys(pieces, 0)
    assert (fam.lam, fam.eps) == (Fraction(1, 4), Fraction(1, 5))


def test_base_mnet_serving_matrix_peak_memory_stays_below_two_bytes_a_cell(circle40_boost_inputs):
    # The largest call of circle-40 boosting: the heavy-major serving matrix
    # takes 1 byte a cell, and the size test, the subset test's blocks and a
    # pick's rows stay within the other byte.
    system, lam, eps = max(circle40_boost_inputs, key=lambda call: _heavy_and_cells(call[0], call[2])[1])
    cells = _heavy_and_cells(system, eps)[1]
    assert cells >= 1_000_000
    tracemalloc.start()
    try:
        fam = bk.base_mnet(system, lam, eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fam.witness
    assert peak < 2 * cells


@pytest.mark.parametrize("int_cells", [0, 1 << 30])
def test_base_mnet_breaks_count_ties_towards_the_first_candidate(int_cells):
    # The candidates in canonical order are {0,1,2}, {0,1}, {1,2}, {1}; the
    # last three each serve two heavy ranges.  The first, {0,1}, takes
    # {0,1,2} and {0,1}; then {1,2} and {1} tie at one and {1,2} takes {1,2}.
    # Taking the last maximum would give {1} to {0,1} and {1,2}.
    system = system_from_sets(3, [[0, 1, 2], [0, 1], [1, 2]])
    with mock.patch.object(constructions, "_INT_CELLS", int_cells):
        fam = bk.base_mnet(system, Fraction(1, 2), Fraction(1, 2))
    witness = {frozenset(mask_set(r, 3)): frozenset(mask_set(p, 3)) for r, p in fam.witness.items()}
    assert witness == {
        frozenset({0, 1, 2}): frozenset({0, 1}),
        frozenset({0, 1}): frozenset({0, 1}),
        frozenset({1, 2}): frozenset({1, 2}),
    }


@given(abstract_systems(), st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)]))
@settings(max_examples=60, deadline=None)
def test_every_construction_on_abstract_systems(system, eps):
    # Each output is checked against the parameters asked for, not the ones
    # the family reports.
    half = Fraction(1, 2)
    n = system.n
    provider = bk.default_provider()
    boosted = bk.boost_epsilon(system, provider, eps, half)
    assert naive_mnet_ok(system, boosted.pieces, provider.heaviness * half, eps)
    heavy = bk.heavy_mnet(system, Fraction(3, 4), eps, provider)
    assert naive_mnet_ok(system, heavy.pieces, Fraction(3, 4), eps)
    small = bk.filter_by_size(system, upper=eps * n)
    cont = bk.small_set_container(small, eps, eps, provider)
    assert naive_container_ok(small, cont.covers, 2 * eps)
    band = bk.SetSystem(n, size_band(system.ranges, math.ceil(half * n), math.floor(Fraction(9, 16) * n)))
    boot = bk.bootstrap_interval_mnet(system, Fraction(1, 8), half, provider)
    assert naive_mnet_ok(band, boot.pieces, half, half)
    container = bk.build_container(system, eps, provider)
    assert naive_container_ok(system, container.covers, eps)
    bracket = bk.build_bracket(system, eps, provider, bk.default_provider())
    assert naive_bracket_ok(system, bracket.sets, eps)


def _assert_bracket_splits(system, eps):
    """Build the eps-bracket and check it against the other two definitions.

    For a pair B- <= F <= B+ with |B+ \\ B-| <= eps*n, the upper sets are an
    eps-container since |B+ \\ F| <= eps*n, and the lower sets a
    (1/2, 2*eps)-Mnet since |B-| >= |F| - eps*n >= |F|/2 once
    |F| >= 2*eps*n.  Such a B- has at least eps*n > 0 elements unless n = 0,
    so the empty set is dropped from the Mnet except on the empty ground
    set.  Both halves go to their verifiers with no witness map.
    """
    bracket = bk.build_bracket(system, eps, bk.default_provider(), bk.default_provider())
    assert bk.verify_bracket(bracket).passed
    uppers = {hi for _, hi in bracket.pairing.values()}
    lowers = {lo for lo, _ in bracket.pairing.values() if lo or not system.n}
    assert bk.verify_container(bk.make_container(system, uppers, eps)).passed
    assert bk.verify_mnet(bk.make_mnet(system, lowers, Fraction(1, 2), 2 * eps)).passed


def _at(system, *eps_values):
    return [(system, eps) for eps in eps_values]


def _halfspaces_at(pts, *eps_values):
    return _at(bk.enumerate_halfspace_ranges(pts), *eps_values)


QUARTER, HALF = Fraction(1, 4), Fraction(1, 2)
BRACKETS_BUILT = {
    # Every (system, eps) on which the suite builds a bracket.
    "collinear-4": lambda: _halfspaces_at(bk.lower_bound_instance(1, 4, "grid"), QUARTER, HALF),
    "empty-domain": lambda: _halfspaces_at(bk.PointSet(2, ()), HALF),
    "circle-12": lambda: _halfspaces_at(bk.lower_bound_instance(2, 12, "sphere"), QUARTER, HALF),
    "moment-16": lambda: _halfspaces_at(bk.lower_bound_instance(2, 16, "moment-curve"), QUARTER, HALF),
    "random-10-seed900": lambda: _at(general_position_points(2, 10, 900)[1], QUARTER, HALF),
    "circle-40": lambda: _at(_circle(40), QUARTER, HALF),
    "conics-12-seed3": lambda: _halfspaces_at(bk.veronese_lift(bk.random_point_set(2, 12, 3), 2), HALF),
    "criterion-1": lambda: [(criterion1_instance(i)[1], HALF) for i in range(200) if (i // 3) % 3 == 2],
}


@pytest.mark.parametrize("name", sorted(BRACKETS_BUILT))
def test_built_brackets_split_into_container_and_mnet(name):
    for system, eps in BRACKETS_BUILT[name]():
        _assert_bracket_splits(system, eps)


@given(abstract_systems(), st.sampled_from([Fraction(1, 8), QUARTER, Fraction(1, 3), HALF, Fraction(3, 4)]))
@settings(max_examples=60, deadline=None)
def test_brackets_split_into_container_and_mnet_on_abstract_systems(system, eps):
    _assert_bracket_splits(system, eps)


def test_provider_logs():
    provider = bk.default_provider()
    system = system_from_sets(4, [(0, 1, 2), (1, 2, 3), (0, 1)])
    provider.mnet(system, Fraction(1, 2))
    provider.mnet(system, Fraction(1, 4))
    assert [e for e, _ in provider.bound_log] == [Fraction(1, 2), Fraction(1, 4)]


def test_provider_sizes_trend_with_inverse_eps():
    # trend check on a fixed instance: shrinking eps never shrinks the Mnet
    pts, system = general_position_points(2, 12, 35)
    provider = bk.default_provider()
    sizes = [len(provider.mnet(system, eps).pieces)
             for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))]
    assert sizes[0] <= sizes[1] <= sizes[2]


def test_boost_eta_prime_values():
    # eta' = min(1/4, eta/2)
    pts, system = general_position_points(2, 8, 31)
    with trace.recording() as log:
        bk.boost_epsilon(system, bk.default_provider(), Fraction(1, 2), Fraction(9, 10))
    assert log[0]["eta_prime"] == Fraction(1, 4)
    with trace.recording() as log2:
        bk.boost_epsilon(system, bk.default_provider(), Fraction(1, 2), Fraction(3, 10))
    assert log2[0]["eta_prime"] == Fraction(3, 20)


def test_boost_band_parameters_match_formulas():
    pts, system = general_position_points(2, 8, 32)
    eps, eta = Fraction(1, 4), Fraction(1, 2)
    with trace.recording() as log:
        bk.boost_epsilon(system, bk.default_provider(), eps, eta)
    entry = log[0]
    eta_p = entry["eta_prime"]
    assert eta_p == min(Fraction(1, 4), eta / 2)
    t = entry["t"]
    assert (1 + eta_p) ** t >= 1 / eps > (1 + eta_p) ** (t - 1)
    for i, eps_i, delta_i in entry["bands"]:
        assert eps_i == (1 + eta_p) ** i * eps
        assert delta_i == eta_p * eps_i


def test_boost_heaviness(collinear4):
    _, system = collinear4
    provider = bk.default_provider()
    fam = bk.boost_epsilon(system, provider, Fraction(1, 2), Fraction(1, 2))
    assert fam.lam == Fraction(1, 4)  # 1/2 * (1 - 1/2)
    assert bk.verify_mnet(fam).passed
    assert naive_mnet_ok(system, fam.pieces, Fraction(1, 4), Fraction(1, 2))


def test_mnet_to_container_example():
    one = system_from_sets(4, [(3,)])
    comp = bk.complement_family(bk.filter_by_size(one, upper=1))
    mnet = bk.make_mnet(comp, [0b0111], Fraction(1), Fraction(3, 4))
    cont = bk.mnet_to_container(one, mnet, Fraction(1, 4), Fraction(1))
    assert cont.eps == Fraction(1, 4)  # 1 - 1 + 1*(1/4)
    assert [mask_set(c, 4) for c in cont.covers] == [frozenset({3})]
    assert bk.verify_container(cont).passed


def test_mnet_to_container_refuses_bad_input(collinear4):
    _, system = collinear4
    bad = bk.make_mnet(system, [0b0001], Fraction(1), Fraction(3, 4))
    with pytest.raises(bk.PreconditionFailure) as err:
        bk.mnet_to_container(system, bad, Fraction(1, 4), Fraction(1))
    assert err.value.report is not None


def test_the_duality_pair_names_the_family_its_input_had_to_be():
    one = system_from_sets(4, [(3,)])
    comp = bk.complement_family(bk.filter_by_size(one, upper=1))
    with pytest.raises(bk.PreconditionFailure) as err:
        bk.mnet_to_container(one, bk.make_mnet(comp, [0b0011], Fraction(1), Fraction(3, 4)), QUARTER, Fraction(1))
    assert str(err.value) == (
        "input is not a 1-heavy 3/4-Mnet of the complemented small ranges: "
        "counterexample (7, 'no piece of size >= 1*3 inside range')"
    )
    assert err.value.report.counterexample == (7, "no piece of size >= 1*3 inside range")
    with pytest.raises(bk.PreconditionFailure) as err:
        bk.container_to_mnet(one, bk.make_container(one, [0b0100], Fraction(0)), QUARTER, Fraction(1))
    assert str(err.value) == (
        "input is not a 0-container for the small ranges: counterexample (8, 'no cover within slack 0')"
    )
    assert err.value.report.counterexample == (8, "no cover within slack 0")


def test_container_to_mnet_example():
    one = system_from_sets(4, [(3,)])
    cont = bk.make_container(one, [0b1000], Fraction(0))
    mnet = bk.container_to_mnet(one, cont, Fraction(1, 4), Fraction(1))
    assert [mask_set(p, 4) for p in mnet.pieces] == [frozenset({0, 1, 2})]
    assert mnet.pieces[0].bit_count() >= (Fraction(1) - Fraction(1, 4)) * 4
    assert bk.verify_mnet(mnet).passed


def test_container_to_mnet_parameter_error():
    one = system_from_sets(4, [(3,)])
    cont = bk.make_container(one, [0b1000], Fraction(0))
    with pytest.raises(bk.InputError):
        bk.container_to_mnet(one, cont, Fraction(1, 2), Fraction(1, 4))


def _random_small_system(rng, n=8, delta0=Fraction(1, 4)):
    cap = int(delta0 * n)
    count = rng.randint(1, 6)
    masks = set()
    while len(masks) < count:
        size = rng.randint(0, cap)
        masks.add(sum(1 << i for i in rng.sample(range(n), size)))
    return bk.SetSystem.from_masks(n, masks)


def test_duality_round_trip_random():
    rng = random.Random(5)
    for _ in range(25):
        delta0 = Fraction(1, 4)
        lam = Fraction(rng.randint(2, 3), 4)
        system = _random_small_system(rng, 8, delta0)
        comp = bk.complement_family(system)
        mnet = bk.base_mnet(comp, lam, 1 - delta0)
        cont = bk.mnet_to_container(system, mnet, delta0, lam)
        assert cont.eps == 1 - lam + lam * delta0
        assert naive_container_ok(system, cont.covers, cont.eps)
        lam2 = lam * (1 - delta0)
        if lam2 <= delta0:
            continue
        back = bk.container_to_mnet(system, cont, delta0, lam2)
        assert set(back.pieces) == set(mnet.pieces)


def test_small_set_container_depth_cap_example():
    # heaviness 1/2, eps 1/4: cap = ceil(1 + ln4/ln(4/3)) = 6
    one = system_from_sets(8, [(0,)])
    with trace.recording() as log:
        bk.small_set_container(one, Fraction(1, 4), Fraction(1, 4), bk.default_provider())
    entry = log[-1]
    assert entry["depth_cap"] == 6
    assert entry["max_depth"] <= 6
    raw = 1 + math.log(4) / math.log(Fraction(4, 3))
    assert entry["depth_cap"] == math.ceil(raw)


def test_small_set_container_depth_cap_is_the_larger_of_the_eps_and_rho_caps():
    # The cap formula in rho alone dominates the one in eps for every
    # rho <= eps, so it equals the larger of the two on the whole grid.
    system = bk.SetSystem.from_masks(4, [])
    heaviness = bk.default_provider().heaviness
    grid = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)})
    pairs = [(eps, rho) for eps in grid for rho in grid if rho <= eps]
    with trace.recording() as log:
        for eps, rho in pairs:
            bk.small_set_container(system, eps, rho, bk.default_provider())
    for (eps, rho), entry in zip(pairs, log, strict=True):
        shrink = 1 - heaviness * rho / (eps + rho)
        eps_cap = math.ceil(1 + math.log(1 / eps) / math.log(1 / float(1 - heaviness / 2)))
        rho_cap = math.ceil(1 + math.log(1 / rho) / math.log(1 / float(shrink)))
        assert entry["depth_cap"] == max(eps_cap, rho_cap)


def test_small_set_container_depth_cap_where_the_shrink_rounds_to_one():
    # At rho = 1/10^20 the shrink 1 - rho/(2(eps + rho)) is the float 1.0,
    # so log(1/s) is 0 as a float; the cap then comes from log1p of the
    # exact gap instead of a division by zero.
    system = bk.SetSystem.from_masks(8, [1, 2, 4])
    eps, rho = HALF, Fraction(1, 10**20)
    with trace.recording() as log:
        fam = bk.small_set_container(system, eps, rho, bk.default_provider())
    gap = HALF * rho / (eps + rho)
    assert float(1 - gap) == 1.0
    assert log[-1]["depth_cap"] == math.ceil(1 + math.log(10**20) / -math.log1p(-float(gap)))
    assert log[-1]["max_depth"] <= log[-1]["depth_cap"]
    assert naive_container_ok(system, fam.covers, rho)


def test_small_set_container_refuses_a_depth_cap_beyond_float_range(monkeypatch):
    # At rho = 1/10^400 the gap rho/(2(eps + rho)) is 0 as a float, so
    # log(1/s) is 0 in both forms; the input is refused before any node is
    # built.  At rho = 1/10^300 the cap is finite and the call returns.
    system = bk.SetSystem.from_masks(8, [1, 2, 4])
    with monkeypatch.context() as patch:
        patch.setattr(constructions, "_greedy_assignment", None)
        with pytest.raises(bk.ResourceBudgetError, match=r"depth cap at eps=1/2, rho=1/10{400} is beyond float range"):
            bk.small_set_container(system, HALF, Fraction(1, 10**400), bk.default_provider())
    fam = bk.small_set_container(system, HALF, Fraction(1, 10**300), bk.default_provider())
    assert len(fam.covers) == 5


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_every_node_range_is_heavy_at_the_node_threshold(data):
    # A small-set node with universe Z and canonical survivors s0, s1, ...
    # has the ranges Z & ~m in reverse; its threshold ceil((1 - |s0|/|Z|)*|Z|)
    # is |Z| - |s0|, and no range is smaller, so the size band at that
    # threshold is the whole list.
    width = 64 * data.draw(st.integers(1, 4), label="words")
    universe = data.draw(st.integers(1, (1 << width) - 1), label="universe")
    word = st.integers(0, (1 << width) - 1)
    drawn = []
    for _ in range(data.draw(st.integers(1, 24), label="survivors")):
        a, b = data.draw(word), data.draw(word)
        drawn.append(universe & data.draw(st.sampled_from([a, a & b, a | b])))
    survivors = canonical_sort(set(drawn))
    u_size = universe.bit_count()
    node_ranges = [universe & ~m for m in reversed(survivors)]
    assert node_ranges == canonical_sort(node_ranges)
    assert size_band(node_ranges, u_size - survivors[0].bit_count(), u_size) == node_ranges


def test_small_set_container_one_range():
    one = system_from_sets(8, [(2,)])
    fam = bk.small_set_container(one, Fraction(1, 4), Fraction(1, 4), bk.default_provider())
    assert bk.verify_container(fam).passed
    assert fam.eps == Fraction(1, 2)


def test_small_set_container_empty_family():
    empty = bk.SetSystem.from_masks(6, [])
    fam = bk.small_set_container(empty, Fraction(1, 3), Fraction(1, 3), bk.default_provider())
    assert bk.verify_container(fam).passed
    assert fam.covers == (empty.full_mask,)


def test_small_set_container_rejects_oversized_ranges(collinear4):
    _, system = collinear4
    with pytest.raises(bk.InputError):
        bk.small_set_container(system, Fraction(1, 4), Fraction(1, 4), bk.default_provider())


def test_small_set_container_actual_slack_at_most_rho():
    rng = random.Random(11)
    for _ in range(10):
        system = _random_small_system(rng, 8, Fraction(3, 8))
        fam = bk.small_set_container(
            system, Fraction(3, 8), Fraction(1, 4), bk.default_provider()
        )
        # declared eps is eps+rho; the recursion actually achieves rho*n
        assert naive_container_ok(system, fam.covers, Fraction(1, 4))


def test_bootstrap_eps_prime_values():
    assert 3 * Fraction(1, 2) / (2 + 2 * Fraction(1, 2)) == Fraction(1, 2)
    assert 3 * Fraction(1, 5) / (2 + 2 * Fraction(1, 5)) == Fraction(1, 4)
    pts, system = general_position_points(2, 10, 33)
    with trace.recording() as log:
        bk.bootstrap_interval_mnet(system, Fraction(1, 5), Fraction(1, 2), bk.default_provider())
    entries = [e for e in log if e["op"] == "bootstrap"]
    assert entries[0]["eps_prime"] == Fraction(1, 4)


def test_bootstrap_heaviness_arithmetic():
    eps = Fraction(1, 8)
    assert (1 - 2 * eps) / (1 + eps) ** 2 == Fraction(48, 81)
    assert Fraction(48, 81) >= 1 - 4 * eps


def test_bootstrap_verified_on_instance():
    system = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 40, "sphere"))
    fam = bk.bootstrap_interval_mnet(system, Fraction(1, 8), Fraction(1, 4), bk.default_provider())
    assert fam.lam == Fraction(1, 2)
    assert bk.verify_mnet(fam).passed
    # band bounds: [delta*n, (1+eps)*delta*n]
    for m in fam.base.ranges:
        assert Fraction(1, 4) * 40 <= m.bit_count() <= (1 + Fraction(1, 8)) * Fraction(1, 4) * 40


def test_bootstrap_parameter_domain(collinear4):
    _, system = collinear4
    with pytest.raises(bk.InputError):
        bk.bootstrap_interval_mnet(system, Fraction(3, 5), Fraction(3, 4), bk.default_provider())
    with pytest.raises(bk.InputError):
        bk.bootstrap_interval_mnet(system, Fraction(1, 4), Fraction(1, 8), bk.default_provider())


def test_heavy_mnet_params():
    params = bk.HeavyMnetParams.from_targets(Fraction(1, 2), Fraction(1, 10), Fraction(1, 2))
    assert params.eps0 == Fraction(1, 8)
    assert abs(params.t0_raw - (1 + math.log(8) / math.log(4 / 3))) < 1e-9
    assert params.t0 == 9
    assert params.band_deltas[0] == params.eta
    assert params.band_deltas[-1] < 1 <= (1 + params.band_ratio) * params.band_deltas[-1]
    for a, b in zip(params.band_deltas, params.band_deltas[1:]):
        assert b == (1 + params.band_ratio) * a


def test_heavy_mnet_ratio_adjustment_when_eta_small():
    # eta <= eps0 would break the band precondition delta > eps; the ratio
    # drops to eta/2 and the heaviness only improves
    params = bk.HeavyMnetParams.from_targets(Fraction(1, 2), Fraction(1, 10), Fraction(1, 2))
    assert params.band_ratio == Fraction(1, 20)
    params2 = bk.HeavyMnetParams.from_targets(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert params2.band_ratio == params2.eps0 == Fraction(1, 8)


def test_heavy_mnet_beyond_half(collinear4):
    _, system = collinear4
    fam = bk.heavy_mnet(system, Fraction(3, 4), Fraction(1, 4), bk.default_provider())
    assert bk.verify_mnet(fam).passed
    assert naive_mnet_ok(system, fam.pieces, Fraction(3, 4), Fraction(1, 4))


def test_heavy_mnet_small_eta_runs(collinear4):
    _, system = collinear4
    fam = bk.heavy_mnet(system, Fraction(1, 2), Fraction(1, 10), bk.default_provider())
    assert bk.verify_mnet(fam).passed


def test_build_container_edge_single_cover():
    one = system_from_sets(5, [(0, 1, 2, 3), (0, 1, 2, 3, 4)])
    fam = bk.build_container(one, Fraction(4, 5), bk.default_provider())
    assert bk.verify_container(fam).passed


def test_build_container_verified_and_monotone(collinear4):
    _, system = collinear4
    fam = bk.build_container(system, Fraction(1, 4), bk.default_provider())
    assert bk.verify_container(fam).passed
    assert naive_container_ok(system, fam.covers, Fraction(1, 4))
    # threshold relaxation: an eps1-container passes at eps2 >= eps1
    relaxed = bk.make_container(system, fam.covers, Fraction(1, 2))
    assert bk.verify_container(relaxed).passed


def test_build_bracket_trivial_families(collinear4):
    _, system = collinear4
    full = system.full_mask
    always = bk.make_bracket(system, [0, full], Fraction(1))
    assert bk.verify_bracket(always).passed
    identity = bk.make_bracket(
        system, system.ranges, Fraction(0), pairing={m: (m, m) for m in system.ranges},
    )
    assert bk.verify_bracket(identity).passed


def test_build_bracket_collinear4(collinear4):
    _, system = collinear4
    fam = bk.build_bracket(system, Fraction(1, 2), bk.default_provider(), bk.default_provider())
    assert bk.verify_bracket(fam).passed
    # pairing covers every range with an exact (lower, upper) pair
    assert set(fam.pairing.keys()) == set(system.ranges)
    slack_cap = Fraction(1, 2) * 4
    for mask, (lo, hi) in fam.pairing.items():
        assert lo in fam.sets and hi in fam.sets
        assert (lo & mask) == lo and (mask & hi) == mask
        assert (hi & ~lo).bit_count() <= slack_cap


def test_constructions_are_deterministic(collinear4):
    _, system = collinear4
    a = bk.build_container(system, Fraction(1, 4), bk.default_provider())
    b = bk.build_container(system, Fraction(1, 4), bk.default_provider())
    assert a.covers == b.covers
    fa = bk.heavy_mnet(system, Fraction(3, 5), Fraction(1, 4), bk.default_provider())
    fb = bk.heavy_mnet(system, Fraction(3, 5), Fraction(1, 4), bk.default_provider())
    assert fa.pieces == fb.pieces


def _circle(n):
    return bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, n, "sphere"))


HINTED = {
    "base_mnet": lambda: bk.base_mnet(_circle(40), Fraction(1, 2), Fraction(1, 4)),
    "boost_epsilon": lambda: bk.boost_epsilon(
        _circle(40), bk.default_provider(), Fraction(1, 5), Fraction(1, 2)),
    "heavy_mnet": lambda: bk.heavy_mnet(
        _circle(40), Fraction(3, 4), Fraction(1, 4), bk.default_provider()),
    "bootstrap_interval_mnet": lambda: bk.bootstrap_interval_mnet(
        _circle(60), Fraction(1, 8), Fraction(1, 4), bk.default_provider()),
    "small_set_container": lambda: bk.small_set_container(
        bk.filter_by_size(_circle(60), upper=Fraction(15)),
        Fraction(1, 4), Fraction(1, 8), bk.default_provider()),
    "build_container": lambda: bk.build_container(
        _circle(60), Fraction(1, 20), bk.default_provider()),
    "build_bracket": lambda: bk.build_bracket(
        _circle(40), Fraction(1, 4), bk.default_provider(), bk.default_provider()),
}


@pytest.mark.parametrize("name", sorted(HINTED))
def test_construction_hints_serve_their_ranges(name):
    # The verifiers fall back to a scan on a wrong hint, so a bad witness
    # would pass them unseen; check every stored hint directly.
    fam = HINTED[name]()
    ranges = set(fam.base.ranges)
    slack_cap = fam.eps * fam.base.n
    if isinstance(fam, bk.MnetFamily):
        hints = fam.witness
        for mask, piece in hints.items():
            assert mask in ranges and piece in fam.pieces
            assert (piece & mask) == piece
            assert piece.bit_count() >= fam.lam * mask.bit_count()
    elif isinstance(fam, bk.ContainerFamily):
        hints = fam.witness
        for mask, cover in hints.items():
            assert mask in ranges and cover in fam.covers
            assert (mask & cover) == mask
            assert (cover & ~mask).bit_count() <= slack_cap
    else:
        hints = fam.pairing
        for mask, (lo, hi) in hints.items():
            assert mask in ranges and lo in fam.sets and hi in fam.sets
            assert (lo & mask) == lo and (mask & hi) == mask
            assert (hi & ~lo).bit_count() <= slack_cap
    assert len(hints) > 0


def _circle40_band_packing():
    system = _circle(40)
    eps, delta = Fraction(1, 8), Fraction(1, 4)
    n = system.n
    lo, hi = math.ceil(delta * n), min(n, math.floor((1 + eps) * delta * n))
    band = bk.SetSystem(n, tuple(m for m in system.ranges if lo <= m.bit_count() <= hi))
    return system, eps, delta, bk.greedy_delta_packing(band, math.floor(eps * delta * n))


BOOTSTRAP_BANDS = {
    "circle40": lambda: _circle(40),
    "random128": lambda: bk.enumerate_halfspace_ranges(bk.random_point_set(2, 128, 12000)),
}


@pytest.mark.parametrize("name", sorted(BOOTSTRAP_BANDS))
def test_bootstrap_pieces_match_the_reindexing_reference(name):
    # circle-40's masks take one word and random-128's two.
    system = BOOTSTRAP_BANDS[name]()
    eps, delta = Fraction(1, 8), Fraction(1, 4)
    fam = bk.bootstrap_interval_mnet(system, eps, delta, bk.default_provider())
    expected = _reference_bootstrap(system, eps, delta, bk.default_provider())
    assert fam.witness == expected
    assert fam.pieces == tuple(canonical_sort(set(expected.values())))


def test_a_one_member_group_gets_its_member_from_the_local_container():
    # The path that a group of one skips: the small-set recursion in the
    # member P on the one range {empty set}, the empty set's cover, and its
    # complement in P; the empty member stands for |P| = 0.
    _, eps, _, packing = _circle40_band_packing()
    singles = [m for m, g in zip(packing.members, packing.groups) if len(g) == 1]
    assert singles
    eps_prime = 3 * eps / (2 + 2 * eps)
    depth_cap = constructions._depth_cap(eps_prime, eps, HALF)
    for member in singles + [0]:
        p_size = member.bit_count()
        comp = member & ~member
        _, cover_of = constructions._small_set_covers([comp], member, eps_prime, eps, HALF, depth_cap)
        cover = find_cover((), cover_of.get(comp), comp, math.floor((eps_prime + eps) * p_size))
        assert member ^ cover == member


@st.composite
def grounded_systems(draw, small=False):
    """A system drawn on {0,...,k-1}, and a universe U for it: a random
    mask of one or of several words, with k set bits.  With ``small``, no
    range has more than k/4 elements."""
    universe = draw(st.integers(1, (1 << draw(st.sampled_from([64, 200]))) - 1))
    k = universe.bit_count()
    if small:
        subset = st.lists(st.integers(0, k - 1), max_size=k // 4).map(lambda bits: sum(1 << i for i in set(bits)))
        local = draw(st.lists(subset, max_size=20))
    else:
        word = st.integers(0, (1 << k) - 1)
        local = []
        for _ in range(draw(st.integers(0, 20))):
            a, b = draw(word), draw(word)
            local.append(draw(st.sampled_from([a, a & b, a | b])))
    return bk.SetSystem.from_masks(k, local), universe


def _expanded_canonical(masks, universe):
    # The re-indexing keeps the canonical order, so the expansion of a
    # canonical list is one.
    expanded = naive_expand(masks, universe)
    assert expanded == canonical_sort(expanded)
    return expanded


@given(grounded_systems(), st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1)]),
       st.sampled_from([Fraction(1, 8), Fraction(1, 2), Fraction(3, 4)]))
@settings(max_examples=100, deadline=None)
def test_base_mnet_in_a_ground_set_is_the_expansion_of_the_reindexed_one(case, lam, eps):
    # base_mnet's greedy cover on heavy ranges inside a universe U, in the
    # parent's indices as boosting runs it, against the same ranges
    # re-indexed to {0,...,|U|-1}: the pieces and witness map, expanded
    # back, on both greedy loops.
    local, universe = case
    heavy = size_band(local.ranges, math.ceil(eps * local.n), local.n)
    grounded = _expanded_canonical(heavy, universe)
    for int_cells in (0, 1 << 30):
        with mock.patch.object(constructions, "_INT_CELLS", int_cells):
            want, want_pieces = constructions._greedy_assignment(heavy, lam, local.n)
            got, got_pieces = constructions._greedy_assignment(grounded, lam, universe.bit_length())
        assert got_pieces == naive_expand(want_pieces, universe)
        assert got == dict(zip(naive_expand(want, universe), naive_expand(want.values(), universe)))


@given(grounded_systems(small=True), st.sampled_from([Fraction(1, 8), Fraction(1, 4)]))
@settings(max_examples=60, deadline=None)
def test_small_set_container_in_a_ground_set_is_the_expansion_of_the_reindexed_one(case, rho):
    # small_set_container's recursion in a universe U, as bootstrap runs it
    # in a packing member, against the same ranges re-indexed.
    local, universe = case
    eps = Fraction(1, 4)
    depth_cap = constructions._depth_cap(eps, rho, HALF)
    want, want_of = constructions._small_set_covers(local.ranges, local.full_mask, eps, rho, HALF, depth_cap)
    got, got_of = constructions._small_set_covers(
        _expanded_canonical(local.ranges, universe), universe, eps, rho, HALF, depth_cap)
    assert got == naive_expand(want, universe)
    assert got_of == dict(zip(naive_expand(want_of, universe), naive_expand(want_of.values(), universe)))


GROUNDED = {
    "heavy_mnet": lambda: bk.heavy_mnet(_circle(12), Fraction(1, 2), Fraction(1, 4), bk.default_provider()),
    "build_container": lambda: bk.build_container(_circle(12), Fraction(1, 4), bk.default_provider()),
    # The bracket runs no small-set root, and its bands on circle-12 at
    # eps = 1/4 have no group of two; circle-20's at eps = 1/2 have.
    "build_bracket": lambda: bk.build_bracket(_circle(20), Fraction(1, 2), bk.default_provider(), bk.default_provider()),
}


@pytest.mark.parametrize("name", sorted(GROUNDED))
def test_a_construction_in_a_high_ground_set_is_the_expansion_of_the_reindexed_one(name):
    # Every small-set recursion that the construction runs on its circle,
    # replayed with its universe and ranges on the bits 60, 62, ..., 98:
    # those masks reach past the one word that 20 elements take, so the
    # recursion must read its width from the universe.
    calls = []
    original = constructions._small_set_covers

    def recording(*args):
        calls.append(args)
        return original(*args)

    with mock.patch.object(constructions, "_small_set_covers", recording):
        GROUNDED[name]()
    assert calls
    high = sum(1 << i for i in range(60, 99, 2))
    for ranges, member, eps, rho, heaviness, depth_cap in calls:
        want, want_of = original(ranges, member, eps, rho, heaviness, depth_cap)
        [universe] = naive_expand([member], high)
        got, got_of = original(_expanded_canonical(ranges, high), universe, eps, rho, heaviness, depth_cap)
        assert got == naive_expand(want, high)
        assert got_of == dict(zip(naive_expand(want_of, high), naive_expand(want_of.values(), high)))


def test_base_mnet_calls_match_provider_bound_logs(monkeypatch):
    calls = []
    original = constructions.base_mnet

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(constructions, "base_mnet", counting)
    # No construction calls the provider's mnet, which logs each call.
    provider = bk.default_provider()
    for eps in (HALF, QUARTER, Fraction(1, 8)):
        provider.mnet(_circle(40), eps)
    assert calls
    assert len(calls) == len(provider.bound_log)


def test_a_size_ladder_over_budget_is_refused_before_any_rung_is_built(collinear4):
    # At eps = 1/10^6 the heavy Mnet's ladder from 1/10^6 by 1/(4*10^6) would
    # need about 5.5 * 10^7 exact rungs; at 1/10^400 the ratio is 0 as a float.
    _, system = collinear4
    tiny = Fraction(1, 10**400)
    start = time.perf_counter()
    with pytest.raises(bk.ResourceBudgetError, match=r"size ladder from 1/1000000 by 1/4000000 exceeds the limit 4096"):
        bk.build_container(system, Fraction(1, 10**6), bk.default_provider())
    with pytest.raises(bk.ResourceBudgetError, match=r"size ladder from 1/1000000000.* by 1/4 exceeds"):
        bk.boost_epsilon(system, bk.default_provider(), tiny, HALF)
    with pytest.raises(bk.ResourceBudgetError, match=r"size ladder from 1/4 by 1/2000000000.* exceeds"):
        bk.boost_epsilon(system, bk.default_provider(), QUARTER, tiny)
    with pytest.raises(bk.ResourceBudgetError, match=r"size ladder from 1/1000000000.* by 1/2000000000.* exceeds"):
        bk.heavy_mnet(system, HALF, tiny, bk.default_provider())
    assert time.perf_counter() - start < 1


def test_the_ladder_budget_admits_exactly_the_rungs_it_counts(monkeypatch):
    # The eps = 1/20 container's heavy Mnet ladder, from 1/20 by 1/80, the
    # longest that the tests build: 243 rungs.
    assert len(constructions._ladder(Fraction(1, 20), Fraction(1, 80))) == 243
    monkeypatch.setattr(constructions, "MAX_LADDER_RUNGS", 243)
    constructions._ladder(Fraction(1, 20), Fraction(1, 80))
    monkeypatch.setattr(constructions, "MAX_LADDER_RUNGS", 242)
    with pytest.raises(bk.ResourceBudgetError, match="exceeds the limit 242 rungs"):
        constructions._ladder(Fraction(1, 20), Fraction(1, 80))


# The internal-invariant guards: each test forces its fault through a patch.


def test_a_family_that_fails_self_verification_is_an_internal_error(collinear4, monkeypatch):
    _, system = collinear4
    failing = bk.VerifyReport(False, 1, (0b0011, "no piece"))
    monkeypatch.setattr(constructions, "verify_family", lambda family: failing)
    with pytest.raises(bk.InternalInvariantError, match=r"base_mnet failed self-verification: \(3, 'no piece'\)"):
        bk.base_mnet(system, HALF, QUARTER)


def test_an_empty_bootstrap_band_labels_its_self_check_with_its_construction(monkeypatch):
    # No range of {0} on 8 elements has a size in the band [4, 5] of
    # delta = 1/2, eps = 1/4: the empty-band return carries the same label
    # as the general path.
    system = system_from_sets(8, [(0,)])
    failing = bk.VerifyReport(False, 0, (0, "stub"))
    monkeypatch.setattr(constructions, "verify_family", lambda family: failing)
    with pytest.raises(bk.InternalInvariantError, match=r"^bootstrap_interval_mnet failed self-verification: \(0, 'stub'\)"):
        bk.bootstrap_interval_mnet(system, QUARTER, HALF, bk.default_provider())


def test_boosting_without_a_piece_for_a_heavy_range_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(constructions, "find_piece", lambda *args: None)
    with pytest.raises(bk.InternalInvariantError, match="Mnet has no piece for a heavy range"):
        bk.boost_epsilon(_circle(12), bk.default_provider(), Fraction(1, 5), HALF)


def test_small_set_recursion_past_its_depth_cap_is_an_internal_error(monkeypatch):
    # Each node's one piece is the highest element of its universe, outside
    # the one survivor {0}: the universe shrinks by one element a level, and
    # {0} is served only at 17 elements or fewer, past the depth cap 6.
    def one_piece_outside_the_survivors(heavy, lam, width):
        return {}, [1 << (width - 1)]

    monkeypatch.setattr(constructions, "_greedy_assignment", one_piece_outside_the_survivors)
    system = system_from_sets(64, [(0,)])
    with pytest.raises(bk.InternalInvariantError, match="recursion exceeded its depth cap 6"):
        bk.small_set_container(system, QUARTER, QUARTER, bk.default_provider())


def test_a_group_range_far_from_its_member_is_an_internal_error(monkeypatch):
    # One group of the first band range and the band range that leaves the
    # most of it uncovered: its complement in the member is above eps'.
    system, eps, delta, packing = _circle40_band_packing()
    member = packing.members[0]
    far = max(packing.base.ranges, key=lambda r: (member & ~r).bit_count())
    assert (member & ~far).bit_count() > math.floor(3 * eps / (2 + 2 * eps) * member.bit_count())
    stub = SimpleNamespace(members=(member,), groups=((member, far),))
    monkeypatch.setattr(constructions, "greedy_delta_packing", lambda *args: stub)
    with pytest.raises(bk.InternalInvariantError, match="projected complement exceeds the eps' bound"):
        bk.bootstrap_interval_mnet(system, eps, delta, bk.default_provider())


def test_bootstrap_without_a_cover_for_a_range_is_an_internal_error(monkeypatch):
    system, eps, delta, _ = _circle40_band_packing()
    monkeypatch.setattr(constructions, "find_cover", lambda *args: None)
    with pytest.raises(bk.InternalInvariantError, match="local container has no cover for a range"):
        bk.bootstrap_interval_mnet(system, eps, delta, bk.default_provider())


# Checks sit at the public boundary: a fault in a private helper must reach
# a verified boundary, and only public constructions self-verify.


def _pieces_outside_their_ranges(heavy, lam, width):
    # Each heavy range grown by its lowest outside element: no piece lies
    # inside a smallest heavy range.
    full = (1 << width) - 1
    assignment = {r: r | (full & ~r & -(full & ~r)) for r in heavy}
    return assignment, canonical_sort(set(assignment.values()))


def _pieces_below_their_need(heavy, lam, width):
    # Each heavy range's lowest element alone, below ceil(lam*|R|) >= 2.
    assignment = {r: r & -r for r in heavy}
    return assignment, canonical_sort(set(assignment.values()))


@pytest.mark.parametrize("mutant", [_pieces_outside_their_ranges, _pieces_below_their_need])
def test_a_wrong_greedy_piece_fails_base_mnet_self_verification(monkeypatch, mutant):
    system = _circle(40)
    monkeypatch.setattr(constructions, "_greedy_assignment", mutant)
    with pytest.raises(bk.InternalInvariantError, match="base_mnet failed self-verification"):
        bk.base_mnet(system, HALF, QUARTER)


def _hint_unchecked(pieces, hint, mask, lam):
    # A piece finder that checks nothing; boosting passes it no pieces.
    return hint


BOOST_GUARDS = {"checked": "Mnet has no piece for a heavy range", "unchecked": "boost_epsilon failed self-verification"}


@pytest.mark.parametrize("finder", sorted(BOOST_GUARDS))
@pytest.mark.parametrize("mutant", [_pieces_outside_their_ranges, _pieces_below_their_need])
def test_a_wrong_greedy_piece_never_yields_an_unverified_boosted_mnet(monkeypatch, mutant, finder):
    # A member's Mnet only steers boosting, and each piece it hands on is
    # checked twice: find_piece refuses it against its trace, and where a
    # finder that checks nothing lets it through, the family's self-check
    # refuses it.
    system = _circle(40)
    calls = []

    def recording(heavy, lam, width):
        calls.append(width)
        return mutant(heavy, lam, width)

    monkeypatch.setattr(constructions, "_greedy_assignment", recording)
    if finder == "unchecked":
        monkeypatch.setattr(constructions, "find_piece", _hint_unchecked)
    with pytest.raises(bk.InternalInvariantError, match=BOOST_GUARDS[finder]):
        bk.boost_epsilon(system, bk.default_provider(), Fraction(1, 5), HALF)
    assert calls


def _without_a_witness(covers, witness, first):
    # The first range's witness, and every cover that holds that range.
    witness = {mask: cover for mask, cover in witness.items() if mask != first}
    return [cover for cover in covers if first & cover != first], witness


def _one_element_too_small(covers, witness, first):
    # Every cover that holds the first range, less that range's lowest element.
    def shrink(cover):
        return cover & ~(first & -first) if first & cover == first else cover

    return [shrink(c) for c in covers], {mask: shrink(c) for mask, c in witness.items()}


@pytest.mark.parametrize("fault", [_without_a_witness, _one_element_too_small])
def test_a_wrong_local_container_fails_the_bootstrap_cover_guard(monkeypatch, fault):
    system, eps, delta, _ = _circle40_band_packing()
    original = constructions._small_set_covers

    def faulty(ranges, full, eps, rho, heaviness, depth_cap):
        covers, witness = original(ranges, full, eps, rho, heaviness, depth_cap)
        return fault(covers, witness, ranges[0])

    monkeypatch.setattr(constructions, "_small_set_covers", faulty)
    with pytest.raises(bk.InternalInvariantError, match="local container has no cover for a range"):
        bk.bootstrap_interval_mnet(system, eps, delta, bk.default_provider())


def test_a_wrong_bootstrap_piece_fails_the_band_self_verification(monkeypatch):
    # A recursion that gives every complement its group's member (the root
    # cover) as its witness, and a cover finder that returns the hint
    # unchecked: the range's piece is the empty set.
    system, eps, delta, _ = _circle40_band_packing()
    original = constructions._small_set_covers

    def member_as_witness(ranges, full, eps, rho, heaviness, depth_cap):
        covers, _ = original(ranges, full, eps, rho, heaviness, depth_cap)
        return covers, dict.fromkeys(ranges, full)

    monkeypatch.setattr(constructions, "_small_set_covers", member_as_witness)
    monkeypatch.setattr(constructions, "find_cover", lambda covers, hint, mask, slack_cap: hint)
    with pytest.raises(bk.InternalInvariantError, match="bootstrap_interval_mnet failed self-verification"):
        bk.bootstrap_interval_mnet(system, eps, delta, bk.default_provider())


OUTER_CONSTRUCTIONS = {
    "build_container": lambda system: bk.build_container(system, QUARTER, bk.default_provider()),
    "build_bracket": lambda system: bk.build_bracket(system, HALF, bk.default_provider(), bk.default_provider()),
}


@pytest.mark.parametrize("outer", sorted(OUTER_CONSTRUCTIONS))
def test_a_wrong_band_piece_never_yields_an_unverified_outer_family(monkeypatch, outer):
    # The fault of the band self-verification test, under the constructions
    # that run the band loop without a band family: every complement gets
    # its member as its witness, and the cover finder returns the hint
    # unchecked, so a range of a group of two or more gets the empty set.
    # The outer call's one check refuses it, or the outer family verifies.
    # At these eps the bands of circle-40 have such groups, so the fault is
    # reached; both outers verify, since their verifiers' scans find other
    # serving sets for the ranges whose witness is wrong.
    original = constructions._small_set_covers
    unchecked = []

    def member_as_witness(ranges, full, eps, rho, heaviness, depth_cap):
        covers, _ = original(ranges, full, eps, rho, heaviness, depth_cap)
        return covers, dict.fromkeys(ranges, full)

    def hint_unchecked(covers, hint, mask, slack_cap):
        unchecked.append(mask)
        return hint

    monkeypatch.setattr(constructions, "_small_set_covers", member_as_witness)
    monkeypatch.setattr(constructions, "find_cover", hint_unchecked)
    try:
        fam = OUTER_CONSTRUCTIONS[outer](_circle(40))
    except bk.InternalInvariantError as err:
        assert str(err).startswith(f"{outer} failed self-verification")
    else:
        assert verify_family(fam).passed
    assert unchecked


@pytest.mark.parametrize("outer", sorted(OUTER_CONSTRUCTIONS))
def test_an_empty_band_piece_fails_the_outer_self_verification(monkeypatch, outer):
    # A band loop that gives every range the empty piece: the empty set
    # serves no range of the heavy Mnets, so the container's covers and the
    # bracket's upper sets are all the full set, and the lower sets of the
    # bracket are all empty.  No scan can mask that; the outer call's one
    # check refuses it.
    original = constructions._bootstrap_bands

    def empty_pieces(system, eps, deltas, heaviness):
        return dict.fromkeys(original(system, eps, deltas, heaviness), 0)

    monkeypatch.setattr(constructions, "_bootstrap_bands", empty_pieces)
    with pytest.raises(bk.InternalInvariantError, match=f"^{outer} failed self-verification"):
        OUTER_CONSTRUCTIONS[outer](_circle(40))


_greedy_assignment = constructions._greedy_assignment  # the unpatched greedy


def _node_pieces_less_their_lowest_element(heavy, lam, width):
    _, pieces = _greedy_assignment(heavy, lam, width)
    return {}, [p & (p - 1) for p in pieces]


def _node_pieces_dropped_but_the_first(heavy, lam, width):
    _, pieces = _greedy_assignment(heavy, lam, width)
    return {}, pieces[:1]


def _node_pieces_grown_past_their_top_element(heavy, lam, width):
    _, pieces = _greedy_assignment(heavy, lam, width)
    return {}, [p | 1 << p.bit_length() for p in pieces]


@pytest.mark.parametrize("mutant", [
    _node_pieces_less_their_lowest_element, _node_pieces_dropped_but_the_first, _node_pieces_grown_past_their_top_element])
def test_a_wrong_node_piece_never_yields_an_unverified_container(monkeypatch, mutant):
    # A node piece only steers the recursion, so a wrong one may still give
    # a valid container; the public call either refuses or returns one that
    # verifies.
    systems = [bk.filter_by_size(_circle(60), upper=Fraction(15)), system_from_sets(8, [(0,), (1, 2), (2, 3)])]
    monkeypatch.setattr(constructions, "_greedy_assignment", mutant)
    for system in systems:
        try:
            fam = bk.small_set_container(system, QUARTER, Fraction(1, 8), bk.default_provider())
        except bk.BracketkitError:
            continue
        assert verify_family(fam).passed


PUBLIC_CONSTRUCTIONS = ("base_mnet", "boost_epsilon", "small_set_container", "bootstrap_interval_mnet",
                        "heavy_mnet", "build_container", "build_bracket")


def test_only_public_construction_calls_self_verify(monkeypatch):
    # One self-check per outermost public call.  circle-40's bracket calls
    # no other public construction: it takes its sets from the cores of
    # build_container and heavy_mnet.  circle-40's container alone and its
    # boosting: one self-check each.  The small-set recursion and boosting
    # run the greedy cover without calling base_mnet.
    calls = dict.fromkeys((*PUBLIC_CONSTRUCTIONS, "verify_family", "_greedy_assignment"), 0)
    for name in calls:
        original = getattr(constructions, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(constructions, name, counting)
    constructions.build_bracket(_circle(40), QUARTER, bk.default_provider(), bk.default_provider())
    assert calls["verify_family"] == sum(calls[name] for name in PUBLIC_CONSTRUCTIONS) == 1
    assert calls["build_bracket"] == 1
    assert calls["_greedy_assignment"] > 0
    calls.update(dict.fromkeys(calls, 0))
    constructions.build_container(_circle(40), QUARTER, bk.default_provider())
    assert calls["verify_family"] == sum(calls[name] for name in PUBLIC_CONSTRUCTIONS) == 1
    assert calls["build_container"] == 1
    assert calls["_greedy_assignment"] > 0
    calls.update(dict.fromkeys(calls, 0))
    constructions.boost_epsilon(_circle(40), bk.default_provider(), Fraction(1, 5), HALF)
    assert calls["boost_epsilon"] == calls["verify_family"] == 1
    assert calls["base_mnet"] == 0
    assert calls["_greedy_assignment"] > 0


def test_the_depth_cap_is_computed_once_per_call_not_per_group(monkeypatch):
    # A bracket computes the cap once per band loop, before its bands, and
    # nowhere else (it runs no small-set root): one loop on circle-40, which
    # is its own complement family, and two on planar balls, which are not.
    # The recursions, more than the caps, still note one cap each, the
    # closed-form one.
    calls = dict.fromkeys(("_depth_cap", "_small_set_covers", "_bootstrap_bands", "build_container"), 0)
    for name in calls:
        original = getattr(constructions, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(constructions, name, counting)
    balls = bk.enumerate_ball_ranges(bk.random_point_set(2, 24, 3))
    for system, eps, loops in ((_circle(40), QUARTER, 1), (balls, HALF, 2)):
        calls.update(dict.fromkeys(calls, 0))
        with trace.recording() as log:
            constructions.build_bracket(system, eps, bk.default_provider(), bk.default_provider())
        assert calls["build_container"] == 0
        assert calls["_depth_cap"] == calls["_bootstrap_bands"] + calls["build_container"] == loops
        assert calls["_small_set_covers"] > calls["_depth_cap"]
        notes = [entry for entry in log if entry["op"] == "small-set-container"]
        assert len(notes) == calls["_small_set_covers"]
        for entry in notes:
            shrink = 1 - HALF * entry["rho"] / (entry["eps"] + entry["rho"])
            assert entry["depth_cap"] == math.ceil(1 + math.log(1 / entry["rho"]) / math.log(1 / float(shrink)))
    # Called directly, build_container computes it once for its band loop
    # and once for its small-set root.
    calls.update(dict.fromkeys(calls, 0))
    constructions.build_container(_circle(40), QUARTER, bk.default_provider())
    assert calls["_depth_cap"] == calls["_bootstrap_bands"] + calls["build_container"] == 2
    assert calls["_small_set_covers"] > calls["_depth_cap"]
    # Called directly, small_set_container and a bootstrap band compute it once.
    system, eps, delta, _ = _circle40_band_packing()
    for construct in (
        lambda: bk.small_set_container(bk.filter_by_size(system, upper=10), QUARTER, QUARTER, bk.default_provider()),
        lambda: bk.bootstrap_interval_mnet(system, eps, delta, bk.default_provider()),
    ):
        calls.update(dict.fromkeys(calls, 0))
        construct()
        assert calls["_depth_cap"] == 1 <= calls["_small_set_covers"]


def _reference_bracket_pairing(system, eps, provider, provider_complement):
    """The bracket's pairing built from ``_heavy_witness`` alone: the upper
    set of F is the full set X when |F| >= ceil((1-eps/2)*n), else X ^ p for
    the piece p of X ^ F in the complement family's (1-eps/2)-heavy
    (eps/2)-Mnet; the lower set is F's piece in the system's own Mnet, or
    the empty set when |F| <= floor((eps/2)*n)."""
    half, n, full = eps / 2, system.n, system.full_mask
    ups = constructions._heavy_witness(bk.complement_family(system), 1 - half, half, provider_complement.heaviness)
    lows = constructions._heavy_witness(system, 1 - half, half, provider.heaviness)
    big, small = math.ceil((1 - half) * n), math.floor(half * n)
    return {
        mask: (lows[mask] if mask.bit_count() > small else 0, full if mask.bit_count() >= big else full ^ ups[full ^ mask])
        for mask in system.ranges
    }


def _seeded_abstract_systems():
    """Seeded abstract systems with n from 0 to 14; every other one is closed
    under complement, so it is its own dual."""
    rng = random.Random(4300)
    for i in range(30):
        n = i % 15
        masks = {rng.getrandbits(n) for _ in range(rng.randint(0, 3 * n + 2))}
        if i % 2:
            masks |= {((1 << n) - 1) ^ m for m in masks}
        yield bk.SetSystem.from_masks(n, masks)


class _ThreeQuarterProvider(bk.PropertyMProvider):
    heaviness = Fraction(3, 4)


def test_the_bracket_pairing_equals_the_heavy_witness_reference():
    # The bracket takes its lower sets from the dual's container, and from
    # the system's own container when the system is its own dual at one
    # heaviness; either way each pair is the one that _heavy_witness gives
    # directly.  A provider of another heaviness makes the self-dual circle
    # run its dual's band loop, whose pieces differ from the system's on
    # circle-40 at eps = 1/2.
    pts = bk.random_point_set(2, 9, 71)
    systems = [
        _circle(12), _circle(20), bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 12, "moment-curve")),
        general_position_points(2, 10, 900)[1], general_position_points(3, 8, 5)[1],
        bk.enumerate_ball_ranges(pts), bk.enumerate_ball_ranges(bk.random_point_set(1, 10, 72)),
        bk.enumerate_box_ranges(pts), bk.enumerate_box_ranges(bk.random_point_set(1, 10, 72)),
        bk.enumerate_halfspace_ranges(bk.PointSet(2, ())), *_seeded_abstract_systems(),
    ]
    assert any(bk.complement_family(system) != system for system in systems)
    assert any(bk.complement_family(system) == system for system in systems)
    default = bk.default_provider()
    for system in systems:
        for eps in (HALF, QUARTER, Fraction(1, 5), Fraction(1, 10), Fraction(3, 4)):
            bracket = bk.build_bracket(system, eps, default, default)
            assert bracket.pairing == _reference_bracket_pairing(system, eps, default, default)
    heavier = bk.build_bracket(_circle(40), HALF, _ThreeQuarterProvider(), default)
    assert heavier.pairing == _reference_bracket_pairing(_circle(40), HALF, _ThreeQuarterProvider(), default)
    assert heavier.pairing != bk.build_bracket(_circle(40), HALF, default, default).pairing
