"""Geometry tests: every enumerator is pinned to an independent oracle.

Halfspace oracle: S is a trace iff conv(S) and conv(X\\S) are disjoint (exact
LP).  Ball oracle: a lifted LP with the paraboloid coordinate constrained to
a nonpositive weight.  Box oracle: the bounding box of S must avoid the
complement.  None of these share code with the arrangement enumeration.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketkit as bk
from bracketkit.geometry import (
    _boundary_masks,
    _cofactor_normal,
    _det,
    _halfspace_sides,
    _planar_sweep_sides,
    _spanning_tuple_sides,
)

from conftest import general_position_points, mask_from_indices
from naive_checks import feasible_with_inequalities


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
    int_pts = bk.PointSet(2, tuple(rows)).int_points
    assert _sides_or_refusal(_planar_sweep_sides, int_pts) == _sides_or_refusal(
        _spanning_tuple_sides, int_pts, 2
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.fractions(max_denominator=10**30)] * 3), max_size=6))
def test_int_points_are_the_fraction_products(rows):
    # Each integer coordinate is c * den computed as a Fraction.
    for (coords, den), row in zip(bk.PointSet(3, tuple(rows)).int_points, rows, strict=True):
        assert den == math.lcm(*(c.denominator for c in row))
        assert coords == tuple(int(c * den) for c in row)
        assert all((c * den).denominator == 1 for c in row)


def scan_halfspace_system(int_pts):
    """The planar halfspace system from the spanning-tuple scan's sides."""
    masks = {0, (1 << len(int_pts)) - 1}
    for tup, _, side in _spanning_tuple_sides(int_pts, 2):
        masks.update(_boundary_masks(side, tup))
    return bk.SetSystem.from_masks(len(int_pts), masks)


def assert_kernel_matches_scan(rows):
    """Sides, refusals and the enumerated system of the planar kernel equal
    the scan's, order included."""
    pts = bk.PointSet(2, tuple(tuple(Fraction(v) for v in row) for row in rows))
    int_pts = pts.int_points
    sides = _sides_or_refusal(_planar_sweep_sides, int_pts)
    assert sides == _sides_or_refusal(_spanning_tuple_sides, int_pts, 2)
    if sides == "refused":
        with pytest.raises(bk.DegeneracyError):
            bk.enumerate_halfspace_ranges(pts)
        return None
    system = bk.enumerate_halfspace_ranges(pts)
    assert system == scan_halfspace_system(int_pts)
    return system


def test_kernel_resorts_a_row_whose_float_angles_tie(monkeypatch):
    # From point 0, the directions to points 1 and 2 have one float angle,
    # but their exact cross product is -1: point 2 comes first, and the
    # stable argsort proposes point 1 first.
    a, b = ((1 << 31) - 1, (1 << 31) - 2), ((1 << 31) - 2, (1 << 31) - 3)
    assert np.arctan2(a[1], a[0]) == np.arctan2(b[1], b[0])
    assert a[0] * b[1] - a[1] * b[0] == -1
    resorted = []
    exact = bk.geometry._angular_order
    monkeypatch.setattr(bk.geometry, "_angular_order", lambda xs, ys, lower: resorted.append(xs) or exact(xs, ys, lower))
    system = assert_kernel_matches_scan([(0, 0), a, b, (0, 1)])
    assert len(system.ranges) == 4 * 3 + 2
    assert [a[0], b[0], 0] in resorted


def test_kernel_takes_python_ints_from_2_to_the_31():
    # From point 0, the directions to points 1 and 2 have one float angle
    # and the exact cross product 5 - 2^64, which int64 would wrap to 5.
    a, b = ((1 << 61) + 5, 1 << 61), ((1 << 61) + 14, (1 << 61) + 1)
    assert np.arctan2(a[1], a[0]) == np.arctan2(b[1], b[0])
    assert a[0] * b[1] - a[1] * b[0] == 5 - (1 << 64)
    assert len(assert_kernel_matches_scan([(0, 0), a, b, (0, 1)]).ranges) == 4 * 3 + 2
    rng = random.Random(31)
    for low in (1 << 31, 1 << 40, 1 << 62):
        rows = [(rng.randrange(-low, low), rng.randrange(-low, low)) for _ in range(9)] + [(low, 0)]
        system = assert_kernel_matches_scan(rows)
        assert system is not None and len(system.ranges) == 10 * 9 + 2


def test_kernel_float_proposal_past_float_range():
    big = 1 << 1100
    rows = [(0, 0), (big, 1), (1, big), (big + 3, big + 7), (5, 9), (-big, 2 * big + 3)]
    system = assert_kernel_matches_scan(rows)
    assert system is not None and len(system.ranges) == 6 * 5 + 2


@pytest.mark.parametrize("scale", [1, 1 << 31, 1 << 1100])
def test_kernel_refuses_repeated_and_collinear_points(scale):
    # Each input on the int64 path (scale 1) and on the Python-int path,
    # with the repeated or collinear point last and first.
    corners = [(0, 0), (3 * scale, 1), (1, 5 * scale), (7 * scale, 6 * scale)]
    for extra in ((3 * scale, 1), (6 * scale, 2), (-3 * scale, -1), (0, 0)):
        assert assert_kernel_matches_scan(corners + [extra]) is None
        assert assert_kernel_matches_scan([extra] + corners) is None


def test_kernel_blocks_stay_within_the_cell_budget(monkeypatch):
    # The criterion-9 domain: one block by default, one base point per block
    # at a budget of one cell, and the same system either way.
    pts, system = general_position_points(2, 64, 11)
    for cells in (bk.bitsets._BLOCK_CELLS, 1 << 8, 1):
        monkeypatch.setattr(bk.bitsets, "_BLOCK_CELLS", cells)
        blocks = [len(ordered) for _, ordered, _ in bk.geometry._planar_kernel(pts.int_points)]
        assert sum(blocks) == 64
        assert all(b == 1 or b * 64 <= cells for b in blocks)
        assert bk.enumerate_halfspace_ranges(pts) == system
    assert blocks == [1] * 64


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=3, max_size=12, unique=True))
def test_planar_enumeration_is_one_range_per_ordered_pair(rows):
    system = assert_kernel_matches_scan(rows)
    if system is not None:
        assert len(system.ranges) == len(rows) * (len(rows) - 1) + 2


def test_halfspace_degeneracy_errors():
    dup = bk.PointSet.from_signed_rows(1, [["0"], ["0"], ["1"]])
    with pytest.raises(bk.DegeneracyError):
        bk.enumerate_halfspace_ranges(dup)
    collinear = bk.PointSet.from_signed_rows(2, [["0", "0"], ["1", "1"], ["2", "2"]])
    with pytest.raises(bk.DegeneracyError):
        bk.enumerate_halfspace_ranges(collinear)
    # n <= d points span no hyperplane; they must be affinely independent.
    collinear_in_3d = bk.PointSet.from_signed_rows(3, [["0", "0", "0"], ["1", "1", "1"], ["2", "2", "2"]])
    equal_in_2d = bk.PointSet.from_signed_rows(2, [["1", "2"], ["1", "2"]])
    for pts in (collinear_in_3d, equal_in_2d):
        with pytest.raises(bk.DegeneracyError, match="^points are affinely dependent$"):
            bk.enumerate_halfspace_ranges(pts)


def fraction_det(m):
    """Determinant by Gaussian elimination over Fractions: the reference
    ``_det`` is checked against."""
    m = [[Fraction(v) for v in row] for row in m]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for row in m[k + 1:]:
            factor = row[k] / m[k][k]
            row[k:] = [a - factor * b for a, b in zip(row[k:], m[k][k:])]
    return det


# Small entries make singular matrices and zero pivots common; large ones
# reach 2^40.
_det_entries = st.integers(-2, 2) | st.integers(-(1 << 40), 1 << 40)


@st.composite
def square_matrices(draw):
    """Square integer matrices of order 0 to 6; some made singular (the last
    row a combination of the first two) or with a zero leading pivot."""
    order = draw(st.integers(0, 6))
    m = draw(st.lists(st.lists(_det_entries, min_size=order, max_size=order), min_size=order, max_size=order))
    kind = draw(st.sampled_from(["any", "singular", "zero pivot"]))
    if kind == "singular" and order >= 2:
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[1])]
    if kind == "zero pivot" and order:
        m[0][0] = 0
    return m


@settings(max_examples=400, deadline=None)
@given(square_matrices())
def test_det_matches_fraction_elimination(m):
    before = [row[:] for row in m]
    assert _det(m) == fraction_det(m)
    assert m == before


def closed_form_normal(rows, dim):
    """The hyperplane normals written out per dimension, for d = 1 to 4."""
    if dim == 1:
        return (1,)
    if dim == 2:
        (rx, ry), = rows
        return (-ry, rx)
    if dim == 3:
        (a, b, c), (d, e, f) = rows
        return (b * f - c * e, c * d - a * f, a * e - b * d)

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    return tuple((-1) ** drop * det3([[row[j] for j in range(4) if j != drop] for row in rows]) for drop in range(4))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(st.tuples(*[_det_entries] * d), min_size=d - 1, max_size=d - 1))
))
def test_cofactor_normal_matches_closed_forms(case):
    # d = 1 to 3 are the sweep's and the old scan's normals exactly; d = 4
    # comes out negated, which changes no range: both sides are yielded.
    dim, rows = case
    want = closed_form_normal(rows, dim)
    assert _cofactor_normal(rows, dim) == (want if dim < 4 else tuple(-v for v in want))


@pytest.mark.parametrize("n", [6, 7, 8])
def test_halfspaces_of_the_degree_two_planar_lift(n):
    # The degree-2 lift of planar points has d = 5: its halfspaces are the
    # conic traces of the original points.
    lifted = bk.veronese_lift(bk.random_point_set(2, n, 3), 2)
    assert lifted.dim == 5
    assert set(bk.enumerate_halfspace_ranges(lifted).ranges) == oracle_halfspace_masks(lifted)


def test_ball_oracle_equivalence_in_four_dimensions():
    # 4-D balls lift to halfspaces in d = 5.
    pts = bk.random_point_set(4, 7, 5)
    assert set(bk.enumerate_ball_ranges(pts).ranges) == oracle_ball_masks(pts)


def test_range_counts_monotone_under_points():
    base = bk.random_point_set(2, 6, 77)
    try:
        small_sys = bk.enumerate_halfspace_ranges(bk.PointSet(2, base.points[:5]))
        big_sys = bk.enumerate_halfspace_ranges(base)
    except bk.DegeneracyError:
        pytest.skip("degenerate draw")
    projected = bk.project(big_sys, mask_from_indices(range(5)))
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


def compositions(total, parts):
    """Compositions of ``total`` into ``parts`` nonnegative parts, lex
    descending: the reference order of one degree's monomials."""
    if parts == 1:
        return [(total,)]
    return [(head,) + tail for head in range(total, -1, -1) for tail in compositions(total - head, parts - 1)]


@pytest.mark.parametrize("dim", range(1, 7))
def test_monomial_exponents_match_recursive_order(dim):
    for degree in range(1, 6):
        want = [e for total in range(1, degree + 1) for e in compositions(total, dim)]
        assert bk.geometry.monomial_exponents(dim, degree) == want


def _affine_interpolant(int_pts, targets, dim):
    """(u, c) with u.p + c = targets[k] exactly at the k-th point.

    Points come as (integer coordinates, denominator) pairs, so the k-th row
    is (coordinates, denominator | target * denominator).  Gauss-Jordan
    elimination over Fractions, free variables pinned to 0.  Whatever the
    targets, affinely dependent points raise DegeneracyError.
    """
    rows = [[Fraction(v) for v in num] + [Fraction(den), Fraction(t * den)]
            for (num, den), t in zip(int_pts, targets)]
    pivots = []
    for col in range(dim + 1):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((k for k in range(r, len(rows)) if rows[k][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][col]
        rows[r] = [v / lead for v in rows[r]]
        for k, row in enumerate(rows):
            factor = row[col]
            if k != r and factor:
                rows[k] = [a - factor * b for a, b in zip(row, rows[r])]
        pivots.append(col)
    if len(pivots) < len(rows):
        raise bk.DegeneracyError("points are affinely dependent")
    solution = [Fraction(0)] * (dim + 1)
    for row, col in zip(rows, pivots):
        solution[col] = row[-1]
    return solution[:dim], solution[dim]


@dataclass(frozen=True)
class LinearQuery:
    """Affine query normal.x >= offset."""

    normal: tuple
    offset: Fraction

    def __post_init__(self):
        if all(v == 0 for v in self.normal):
            raise bk.InputError("query normal must be nonzero")

    def holds(self, point):
        return sum(a * x for a, x in zip(self.normal, point)) >= self.offset


def halfspace_ranges_with_witnesses(pts):
    """Halfspace ranges plus an exact witness LinearQuery per range.

    Each witness realizes its range as {x : normal.x >= offset} on the point
    set, and the ranges are exactly ``enumerate_halfspace_ranges(pts)``.  The
    empty and full ranges get axis-parallel queries.  Every other range is
    first met as ``side | B`` for a side (T, w, side) of the engine and a
    subset B of its tuple T.  Take h(x) = w.x - w.p for the first point p of
    T, and the affine g that is +1 on B and -1 on the rest of T.  Then
    {K*h + g >= 0} cuts out the range once K*|h(q)| > |g(q)| at every point
    q off T.  In cleared coordinates q = a/e and p = b/f, the integer
    e*f*h(q) is nonzero, so |h(q)| >= 1/(e*f).  For g(x) = u.x + c,
    |g(q)| <= (|u|_1*A + |c|*E)/e, where A is the largest |entry| of any a
    and E the largest e.  So the integer K = floor(f*(|u|_1*A + |c|*E)) + 1
    will do.  With n <= d points the zero normal's side makes g the witness.
    """
    n, dim = pts.n, pts.dim
    axis = tuple(Fraction(int(k == 0)) for k in range(dim))
    if n == 0:
        return bk.SetSystem.from_masks(0, [0]), {0: LinearQuery(axis, Fraction(0))}
    xs = [p[0] for p in pts.points]
    witnesses = {0: LinearQuery(axis, max(xs) + 1), (1 << n) - 1: LinearQuery(axis, min(xs) - 1)}
    int_pts = pts.int_points
    coord_cap = max(abs(v) for num, _ in int_pts for v in num)
    den_cap = max(den for _, den in int_pts)
    for tup, normal, side in _halfspace_sides(int_pts, dim):
        boundary = [int_pts[i] for i in tup]
        base_num, base_den = boundary[0]
        for pattern, mask in enumerate(_boundary_masks(side, tup)):
            if mask in witnesses:
                continue
            targets = [1 if pattern >> j & 1 else -1 for j in range(len(tup))]
            u, c = _affine_interpolant(boundary, targets, dim)
            k = math.floor(base_den * (sum(map(abs, u)) * coord_cap + abs(c) * den_cap)) + 1
            offset = Fraction(k * sum(w * v for w, v in zip(normal, base_num)), base_den) - c
            witnesses[mask] = LinearQuery(tuple(k * w + v for w, v in zip(normal, u)), offset)
    return bk.SetSystem.from_masks(n, witnesses), witnesses


def test_linear_query_refuses_zero_normal():
    with pytest.raises(bk.InputError):
        LinearQuery((Fraction(0), Fraction(0)), Fraction(1))


def test_veronese_pullback_reproduces_ranges():
    pts = bk.random_point_set(1, 6, 5)
    lifted = bk.veronese_lift(pts, 2)
    system, witnesses = halfspace_ranges_with_witnesses(lifted)
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
    system, witnesses = halfspace_ranges_with_witnesses(pts)
    for mask in system.ranges:
        query = witnesses[mask]
        got = sum(1 << i for i, p in enumerate(pts.points) if query.holds(p))
        assert got == mask


def small_grid_points(d, n, seed):
    """n distinct seeded points of the integer grid [0, 16)^d."""
    rng = random.Random(seed)
    rows = []
    while len(rows) < n:
        p = tuple(Fraction(rng.randrange(16)) for _ in range(d))
        if p not in rows:
            rows.append(p)
    return bk.PointSet(d, tuple(rows))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 7])
def test_halfspace_witnesses_realize_every_range(d, n):
    # A small integer grid plus fine jitter: near-degenerate points with mixed
    # denominators, on which a tilt with K = 1 misses some ranges.
    pts = bk.jitter_points(small_grid_points(d, n, 10 * d + n), Fraction(1, 3), n)
    system, witnesses = halfspace_ranges_with_witnesses(pts)
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


def polytope_ranges_with_constraints(pts, k):
    """Breadth-first intersections of at most k halfspace ranges, each with
    the halfspaces it was first reached by."""
    halfspaces = bk.enumerate_halfspace_ranges(pts).ranges
    level = {m: (m,) for m in halfspaces}
    seen = dict(level)
    for _ in range(1, k):
        nxt = {}
        for mask, constraints in level.items():
            for h in halfspaces:
                combined = mask & h
                if combined not in seen:
                    nxt[combined] = seen[combined] = constraints + (h,)
        level = nxt
    return seen


def test_polytope_drop_one_constraint(collinear4):
    pts, _ = collinear4
    witnesses = polytope_ranges_with_constraints(pts, 3)
    system = bk.enumerate_polytope_ranges(pts, 3)
    assert set(witnesses) == set(system.ranges)
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


def test_polytope_budget(monkeypatch):
    pts, _ = general_position_points(2, 7, 13)
    monkeypatch.setattr(bk.geometry, "MAX_POLYTOPE_RANGES", 10)
    with pytest.raises(bk.ResourceBudgetError, match="polytope range count [0-9]+ exceeds the limit 10$"):
        bk.enumerate_polytope_ranges(pts, 3)


def test_halfspace_budgets(monkeypatch):
    # With n <= d points the 2^n boundary subsets are counted; above d = 4
    # each spanning tuple counts 2^(d-4) times: C(6, 5) * 2 = 12.
    monkeypatch.setattr(bk.geometry, "MAX_SPANNING_TUPLES", 12)
    assert len(bk.enumerate_halfspace_ranges(bk.random_point_set(3, 3, 1)).ranges) == 8
    with pytest.raises(bk.ResourceBudgetError, match=r"boundary-subset count 2\^4 = 16 exceeds the limit 12$"):
        bk.enumerate_halfspace_ranges(bk.random_point_set(4, 4, 1))
    pts = bk.random_point_set(5, 6, 1)
    assert set(bk.enumerate_halfspace_ranges(pts).ranges) == oracle_halfspace_masks(pts)
    monkeypatch.setattr(bk.geometry, "MAX_SPANNING_TUPLES", 11)
    with pytest.raises(bk.ResourceBudgetError, match=r"count C\(6, 5\) \* 2\^1 = 12 exceeds the limit 11$"):
        bk.enumerate_halfspace_ranges(pts)


def test_box_candidate_budget(monkeypatch):
    # 2 distinct x and 3 distinct y: (3 + 1) * (6 + 1) = 28 candidate boxes.
    pts = bk.PointSet.from_signed_rows(2, [["0", "0"], ["0", "1"], ["1", "2"], ["1", "1"]])
    monkeypatch.setattr(bk.geometry, "MAX_BOX_CANDIDATES", 28)
    assert set(bk.enumerate_box_ranges(pts).ranges) == oracle_box_masks(pts)
    monkeypatch.setattr(bk.geometry, "MAX_BOX_CANDIDATES", 27)
    with pytest.raises(bk.ResourceBudgetError, match="box candidate count 28 exceeds the limit 27"):
        bk.enumerate_box_ranges(pts)


def test_lower_bound_instances():
    moment = bk.lower_bound_instance(2, 3, "moment-curve")
    assert moment.points == (
        (Fraction(1), Fraction(1)),
        (Fraction(2), Fraction(4)),
        (Fraction(3), Fraction(9)),
    )
    grid = bk.lower_bound_instance(1, 4, "grid")
    assert grid.points == ((Fraction(0),), (Fraction(1),), (Fraction(2),), (Fraction(3),))
    # The first coordinate varies fastest, on a side of ceil(sqrt(5)) = 3.
    grid = bk.lower_bound_instance(2, 5, "grid")
    assert grid.points == tuple(
        (Fraction(x), Fraction(y)) for x, y in ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1))
    )
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
    # The circle's tangent half-angles are rounded to 1/4096, so from some n
    # on two points coincide; such an instance is refused under the kind asked for.
    assert bk.lower_bound_instance(2, 12000, "sphere").n == 12000
    with pytest.raises(bk.InputError, match="^sphere instance with n=13000 collides "):
        bk.lower_bound_instance(2, 13000, "sphere")
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
