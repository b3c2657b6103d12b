from fractions import Fraction

import bracketkit as bk
from bracketkit.lp import solve_equality_feasibility

from naive_checks import feasible_with_inequalities


def test_feasible_simple():
    # x0 + x1 = 1 has nonnegative solutions
    status, x = solve_equality_feasibility([[1, 1]], [1])
    assert status == "feasible"
    assert sum(x) == 1 and all(v >= 0 for v in x)


def test_infeasible_with_certificate():
    # x0 = 1 and x0 = 2 simultaneously
    rows = [[Fraction(1)], [Fraction(1)]]
    rhs = [Fraction(1), Fraction(2)]
    status, y = solve_equality_feasibility(rows, rhs)
    assert status == "infeasible"
    # Farkas: y.A <= 0 componentwise and y.b > 0
    combo = y[0] * rows[0][0] + y[1] * rows[1][0]
    assert combo <= 0
    assert y[0] * rhs[0] + y[1] * rhs[1] > 0


def test_farkas_on_random_instances():
    import random

    for seed in range(30):
        rng = random.Random(seed)
        m, k = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4)) for _ in range(k)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-4, 4)) for _ in range(m)]
        status, cert = solve_equality_feasibility(rows, rhs)
        if status == "feasible":
            assert all(v >= 0 for v in cert)
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, cert)) == b
        else:
            for j in range(k):
                assert sum(cert[i] * rows[i][j] for i in range(m)) <= 0
            assert sum(cert[i] * rhs[i] for i in range(m)) > 0


def test_inequalities_via_slacks():
    # x <= 3 and x >= 1 feasible; x <= 0 and x >= 1 infeasible (x >= 0 scalar)
    assert feasible_with_inequalities([], [], [[Fraction(1)], [Fraction(-1)]], [3, -1])
    assert not feasible_with_inequalities([], [], [[Fraction(1)], [Fraction(-1)]], [0, -1])


def test_hull_singletons():
    pts = bk.PointSet.from_signed_rows(2, [["0", "0"], ["1", "1"]])
    res = bk.exact_hull_intersection(pts, (0,), (1,))
    assert not res.intersecting
    w, c = res.functional
    assert sum(a * b for a, b in zip(w, pts.points[0])) < c
    assert sum(a * b for a, b in zip(w, pts.points[1])) > c
    same = bk.exact_hull_intersection(pts, (0,), (0,))
    assert same.intersecting and same.witness == pts.points[0]


def test_hull_crossing_segments():
    pts = bk.PointSet.from_signed_rows(2, [["0", "0"], ["2", "2"], ["0", "2"], ["2", "0"]])
    res = bk.exact_hull_intersection(pts, (0, 1), (2, 3))
    assert res.intersecting
    assert res.witness == (Fraction(1), Fraction(1))


def test_hull_empty_sides():
    # An empty side is separated along e1: below the other side's least
    # first coordinate, above its greatest, and at 0 when both are empty.
    pts = bk.PointSet.from_signed_rows(2, [["0", "0"], ["1", "0"]])
    e1 = (Fraction(1), Fraction(0))
    for a, b, c in (((), (0, 1), -1), ((0,), (), 1), ((0, 1), (), 2), ((), (), 0)):
        res = bk.exact_hull_intersection(pts, a, b)
        assert not res.intersecting and res.witness is None
        assert res.functional == (e1, Fraction(c))


def test_hull_point_inside_segment_1d():
    pts = bk.lower_bound_instance(1, 4, "grid")
    res = bk.exact_hull_intersection(pts, (0, 2), (1,))
    assert res.intersecting
    assert res.witness == (Fraction(1),)
    res2 = bk.exact_hull_intersection(pts, (0, 1), (2, 3))
    assert not res2.intersecting


def test_hull_functional_separates_random():
    import random

    for seed in range(10):
        rng = random.Random(seed)
        pts = bk.random_point_set(2, 8, seed + 200)
        a = tuple(i for i in range(8) if rng.random() < 0.4)
        b = tuple(i for i in range(8) if i not in a and rng.random() < 0.5)
        res = bk.exact_hull_intersection(pts, a, b)
        if not res.intersecting and a and b:
            w, c = res.functional
            for i in a:
                assert sum(x * y for x, y in zip(w, pts.points[i])) < c
            for j in b:
                assert sum(x * y for x, y in zip(w, pts.points[j])) > c
