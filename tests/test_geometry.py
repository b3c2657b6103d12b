"""Geometry tests: every enumerator is pinned to an independent oracle.

Halfspace oracle: S is a trace iff conv(S) and conv(X\\S) are disjoint (exact
LP).  Ball oracle: a lifted LP with the paraboloid coordinate constrained to
a nonpositive weight.  Box oracle: the bounding box of S must avoid the
complement.  None of these share code with the arrangement enumeration.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketkit as bk
from bracketkit.geometry import _int_points, _planar_sweep_sides, _spanning_tuple_sides
from bracketkit.lp import feasible_with_inequalities

from conftest import general_position_points


def oracle_halfspace_masks(pts):
    out = set()
    n = pts.n
    for bits in range(1 << n):
        a = [i for i in range(n) if bits >> i & 1]
        b = [i for i in range(n) if not bits >> i & 1]
        if not bk.exact_hull_intersection(pts, a, b).intersecting:
            out.add(bits)
    return out


def oracle_ball_masks(pts):
    n = pts.n
    out = set()
    for bits in range(1 << n):
        rows_le, rhs_le = [], []
        for i in range(n):
            p = pts.points[i]
            sq = sum(c * c for c in p)
            # vars: u as (u+, u-) pairs, s with s <= 0 encoded as -s_minus, c+ and c-
            row = [x for c in p for x in (-c, c)] + [sq, Fraction(1), Fraction(-1)]
            if bits >> i & 1:
                rows_le.append(row)
                rhs_le.append(Fraction(0))
            else:
                rows_le.append([-v for v in row])
                rhs_le.append(Fraction(-1))
        if feasible_with_inequalities([], [], rows_le, rhs_le):
            out.add(bits)
    return out


def oracle_box_masks(pts):
    n, d = pts.n, pts.dim
    out = set()
    for bits in range(1 << n):
        inside = [pts.points[i] for i in range(n) if bits >> i & 1]
        if not inside:
            out.add(bits)
            continue
        ok = True
        for j in range(n):
            if bits >> j & 1:
                continue
            q = pts.points[j]
            if all(
                min(p[k] for p in inside) <= q[k] <= max(p[k] for p in inside)
                for k in range(d)
            ):
                ok = False
                break
        if ok:
            out.add(bits)
    return out


def contiguous_run_masks(n):
    runs = {0}
    for lo in range(n):
        for hi in range(lo, n):
            runs.add(sum(1 << i for i in range(lo, hi + 1)))
    return runs


def test_halfspace_collinear4(collinear4):
    pts, system = collinear4
    expected = {
        frozenset(),
        frozenset({0, 1, 2, 3}),
        frozenset({0}),
        frozenset({0, 1}),
        frozenset({0, 1, 2}),
        frozenset({3}),
        frozenset({2, 3}),
        frozenset({1, 2, 3}),
    }
    got = {frozenset(i for i in range(4) if m >> i & 1) for m in system.ranges}
    assert got == expected
    assert set(system.ranges) == oracle_halfspace_masks(pts)


def test_halfspace_empty_and_triangle(triangle):
    assert bk.enumerate_halfspace_ranges(bk.PointSet(2, ())).ranges == (0,)
    _, system = triangle
    assert len(system.ranges) == 8  # three generic points are shattered


@pytest.mark.parametrize("d,n,seed", [(1, 6, 3), (2, 5, 0), (2, 6, 1), (2, 7, 2), (3, 6, 4)])
def test_halfspace_oracle_equivalence(d, n, seed):
    pts, system = general_position_points(d, n, seed)
    assert set(system.ranges) == oracle_halfspace_masks(pts)


def _sides_or_refusal(enumerate_sides, *args):
    try:
        return set(enumerate_sides(*args))
    except bk.DegeneracyError:
        return "refused"


# Coordinates p/q with |p| <= 3, q <= 3: repeated points and collinear
# triples are frequent, so refusals are compared as often as sides.
_small_rational = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
_small_planar_sets = st.lists(st.tuples(_small_rational, _small_rational), max_size=9)


@settings(max_examples=400, deadline=None)
@given(_small_planar_sets)
def test_planar_sweep_matches_spanning_tuple_scan(rows):
    # Equal (tuple, normal, side) triples give equal masks under every keep filter.
    int_pts = _int_points(bk.PointSet(2, tuple(rows)))
    assert _sides_or_refusal(_planar_sweep_sides, int_pts) == _sides_or_refusal(
        _spanning_tuple_sides, int_pts, 2
    )


def test_halfspace_degeneracy_errors():
    dup = bk.PointSet.from_signed_rows(1, [["0"], ["0"], ["1"]])
    with pytest.raises(bk.DegeneracyError):
        bk.enumerate_halfspace_ranges(dup)
    collinear = bk.PointSet.from_signed_rows(2, [["0", "0"], ["1", "1"], ["2", "2"]])
    with pytest.raises(bk.DegeneracyError):
        bk.enumerate_halfspace_ranges(collinear)


def test_range_counts_monotone_under_points():
    base = bk.random_point_set(2, 6, 77)
    try:
        small_sys = bk.enumerate_halfspace_ranges(bk.PointSet(2, base.points[:5]))
        big_sys = bk.enumerate_halfspace_ranges(base)
    except bk.DegeneracyError:
        pytest.skip("degenerate draw")
    projected = bk.project(big_sys, range(5)).system
    assert set(small_sys.ranges) <= set(projected.ranges)


def test_ball_single_point_and_runs(collinear4):
    single = bk.PointSet.from_signed_rows(1, [["2"]])
    assert set(bk.enumerate_ball_ranges(single).ranges) == {0, 1}
    pts, _ = collinear4
    balls = bk.enumerate_ball_ranges(pts)
    assert set(balls.ranges) == contiguous_run_masks(4)
    assert len(balls.ranges) == 11


def test_ball_contains_halfspace_ranges():
    pts, system = general_position_points(2, 6, 9)
    balls = bk.enumerate_ball_ranges(pts)
    assert set(system.ranges) <= set(balls.ranges)


def test_ball_ranges_are_the_ball_side_of_the_lift(collinear4):
    # The paraboloid lift turns balls into halfspaces with a nonpositive
    # weight on the squared-norm coordinate.  The unfiltered lift also carries
    # ball complements: on 4 collinear points it yields 14 traces while the
    # true ball family has 11 (the oracle-checked contiguous runs).
    pts, _ = collinear4
    lift = bk.PointSet(2, tuple((p[0], p[0] ** 2) for p in pts.points))
    lifted_halfspaces = bk.enumerate_halfspace_ranges(lift)
    balls = bk.enumerate_ball_ranges(pts)
    assert set(balls.ranges) <= set(lifted_halfspaces.ranges)
    assert len(lifted_halfspaces.ranges) == 14
    assert len(balls.ranges) == 11


def test_box_d3_oracle():
    pts = bk.random_point_set(3, 6, 64)
    assert set(bk.enumerate_box_ranges(pts).ranges) == oracle_box_masks(pts)


@pytest.mark.parametrize("seed,n", [(0, 5), (1, 6), (2, 6)])
def test_ball_oracle_equivalence(seed, n):
    pts, _ = general_position_points(2, n, seed + 40)
    try:
        balls = bk.enumerate_ball_ranges(pts)
    except bk.DegeneracyError:
        pytest.skip("cospherical draw")
    assert set(balls.ranges) == oracle_ball_masks(pts)


def test_box_examples(collinear4):
    single = bk.PointSet.from_signed_rows(2, [["1", "2"]])
    assert set(bk.enumerate_box_ranges(single).ranges) == {0, 1}
    pts, _ = collinear4
    assert set(bk.enumerate_box_ranges(pts).ranges) == contiguous_run_masks(4)
    # 2x2 grid: both diagonal pairs and all four 3-corner subsets are
    # unrealizable (a box with three corners contains the fourth).
    grid = bk.lower_bound_instance(2, 4, "grid")
    boxes = bk.enumerate_box_ranges(grid)
    assert set(boxes.ranges) == oracle_box_masks(grid)
    assert len(boxes.ranges) == 10


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_box_oracle_equivalence(seed):
    pts = bk.random_point_set(2, 7, seed + 60)
    assert set(bk.enumerate_box_ranges(pts).ranges) == oracle_box_masks(pts)


def test_veronese_basics():
    pts = bk.PointSet.from_signed_rows(1, [["3"]])
    assert bk.veronese_lift(pts, 1).points == pts.points
    lifted = bk.veronese_lift(pts, 2)
    assert lifted.points[0] == (Fraction(3), Fraction(9))
    two = bk.PointSet.from_signed_rows(2, [["2", "5"]])
    lift2 = bk.veronese_lift(two, 2)
    assert lift2.dim == 5
    assert lift2.points[0] == (
        Fraction(2), Fraction(5), Fraction(4), Fraction(10), Fraction(25),
    )


def test_veronese_pullback_reproduces_ranges():
    pts = bk.random_point_set(1, 6, 5)
    lifted = bk.veronese_lift(pts, 2)
    system, witnesses = bk.halfspace_ranges_with_witnesses(lifted)
    for mask in system.ranges:
        query = witnesses[mask]
        got = 0
        for i, p in enumerate(lifted.points):
            if query.holds(p):
                got |= 1 << i
        assert got == mask
        # the same query evaluated through the monomials of the original point
        exponents = bk.geometry.monomial_exponents(1, 2)
        for i, orig in enumerate(pts.points):
            value = sum(
                w * (orig[0] ** e[0]) for w, e in zip(query.normal, exponents)
            )
            assert (value >= query.offset) == bool(mask >> i & 1)


def test_halfspace_witnesses_match(collinear4):
    pts, _ = collinear4
    system, witnesses = bk.halfspace_ranges_with_witnesses(pts)
    for mask in system.ranges:
        query = witnesses[mask]
        got = sum(1 << i for i, p in enumerate(pts.points) if query.holds(p))
        assert got == mask


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7])
def test_halfspace_witnesses_realize_every_range(d, n):
    # A small integer grid plus fine jitter: near-degenerate points with mixed
    # denominators, on which a tilt with K = 1 misses some ranges.
    pts = bk.jitter_points(bk.random_point_set(d, n, 10 * d + n, coord_bits=4), Fraction(1, 3), n)
    system, witnesses = bk.halfspace_ranges_with_witnesses(pts)
    assert system == bk.enumerate_halfspace_ranges(pts)
    assert set(witnesses) == set(system.ranges)
    for mask, query in witnesses.items():
        assert sum(1 << i for i, p in enumerate(pts.points) if query.holds(p)) == mask


def test_polytope_k1_and_intervals(collinear4):
    pts, system = collinear4
    poly1 = bk.enumerate_polytope_ranges(pts, 1)
    assert set(poly1.ranges) == set(system.ranges)
    poly2 = bk.enumerate_polytope_ranges(pts, 2)
    assert set(poly2.ranges) == contiguous_run_masks(4)


def test_polytope_drop_one_constraint(collinear4):
    pts, _ = collinear4
    system, witnesses = bk.enumerate_polytope_ranges(pts, 3, with_witnesses=True)
    members = set(system.ranges)
    for mask, constraints in witnesses.items():
        if len(constraints) < 2:
            continue
        for drop in range(len(constraints)):
            rest = [c for i, c in enumerate(constraints) if i != drop]
            inter = rest[0]
            for c in rest[1:]:
                inter &= c
            assert inter in members
            assert (mask & inter) == mask


def test_polytope_budget():
    pts, _ = general_position_points(2, 7, 13)
    with pytest.raises(bk.ResourceBudgetError):
        bk.enumerate_polytope_ranges(pts, 3, budget=10)


def test_lower_bound_instances():
    moment = bk.lower_bound_instance(2, 3, "moment-curve")
    assert moment.points == (
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(4)),
        (Fraction(3), Fraction(9)),
    )
    grid = bk.lower_bound_instance(1, 4, "grid")
    assert grid.points == ((Fraction(0),), (Fraction(1),), (Fraction(2),), (Fraction(3),))
    circle = bk.lower_bound_instance(2, 4, "sphere")
    for p in circle.points:
        assert p[0] ** 2 + p[1] ** 2 == 1  # exactly unit norm
    # near-90 degree spacing: consecutive dot products close to 0
    for i in range(4):
        a, b = circle.points[i], circle.points[(i + 1) % 4]
        assert abs(float(a[0] * b[0] + a[1] * b[1])) < 0.01
    sphere = bk.lower_bound_instance(3, 10, "sphere")
    for p in sphere.points:
        assert sum(c * c for c in p) == 1
    with pytest.raises(bk.InputError):
        bk.lower_bound_instance(1, 3, "sphere")
    with pytest.raises(bk.InputError):
        bk.lower_bound_instance(2, 3, "nope")


def test_instance_determinism():
    a = bk.lower_bound_instance(2, 12, "sphere")
    b = bk.lower_bound_instance(2, 12, "sphere")
    assert a == b
    r1 = bk.random_point_set(2, 9, 4)
    r2 = bk.random_point_set(2, 9, 4)
    assert r1 == r2
    j1 = bk.jitter_points(r1, Fraction(1, 1024), 7)
    j2 = bk.jitter_points(r2, Fraction(1, 1024), 7)
    assert j1 == j2


def test_pointset_json_roundtrip():
    pts = bk.lower_bound_instance(2, 5, "sphere")
    again = bk.PointSet.from_json(pts.to_json())
    assert again == pts
