import inspect
import random
import time
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketkit as bk
import bracketkit.protocols
from bracketkit import lp
from bracketkit.lp import solve_equality_feasibility

from naive_checks import feasible_with_inequalities, reference_equality_feasibility


def test_feasible_simple():
    # x0 + x1 = 1 has nonnegative solutions
    status, x = solve_equality_feasibility([[1, 1]], [1])
    assert status == "feasible"
    assert sum(x) == 1 and all(v >= 0 for v in x)


def test_infeasible_with_certificate():
    # x0 = 1 and x0 = 2 simultaneously
    rows = [[1], [1]]
    rhs = [1, 2]
    status, y = solve_equality_feasibility(rows, rhs)
    assert status == "infeasible"
    # Farkas: y.A <= 0 componentwise and y.b > 0
    combo = y[0] * rows[0][0] + y[1] * rows[1][0]
    assert combo <= 0
    assert y[0] * rhs[0] + y[1] * rhs[1] > 0


def test_farkas_on_random_instances():
    for seed in range(30):
        rng = random.Random(seed)
        m, k = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(m)]
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        status, cert = solve_equality_feasibility(rows, rhs)
        if status == "feasible":
            assert all(v >= 0 for v in cert)
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, cert)) == b
        else:
            for j in range(k):
                assert sum(cert[i] * rows[i][j] for i in range(m)) <= 0
            assert sum(cert[i] * rhs[i] for i in range(m)) > 0


_NEAR_2_31 = st.integers(2**31 - 3, 2**31 + 3).flatmap(lambda v: st.sampled_from([v, -v]))
_ENTRIES = st.one_of(st.integers(-4, 4), _NEAR_2_31, st.integers(-(2**47), 2**47))


@st.composite
def lp_systems(draw):
    """Integer systems (k may be 0) with negative rhs, all-zero rows,
    duplicate columns and duplicate rows (ties in the ratio test), and
    entries near 2**31 and up to 2**47."""
    m, k = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    rows = [[draw(_ENTRIES) for _ in range(k)] for _ in range(m)]
    rhs = [draw(_ENTRIES) for _ in range(m)]
    if k > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
        for row in rows:
            row[dst] = row[src]
    if m > 1 and draw(st.booleans()):
        src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows[dst], rhs[dst] = list(rows[src]), rhs[src]
    if draw(st.booleans()):
        rows[draw(st.integers(0, m - 1))] = [0] * k
    return rows, rhs


def _outcome(solve, rows, rhs):
    try:
        return repr(solve(rows, rhs))
    except Exception as exc:  # the exception itself is the outcome compared
        return type(exc), str(exc)


@given(lp_systems())
@settings(max_examples=400, deadline=None)
def test_solver_matches_the_reference_simplex(system):
    rows, rhs = system
    result = solve_equality_feasibility(rows, rhs)
    assert repr(result) == repr(reference_equality_feasibility(rows, rhs))
    status, cert = result
    if status == "feasible":
        assert all(v >= 0 for v in cert)
        assert all(sum(a * v for a, v in zip(row, cert)) == b for row, b in zip(rows, rhs))
    else:
        assert all(sum(y * row[j] for y, row in zip(cert, rows)) <= 0 for j in range(len(rows[0])))
        assert sum(y * b for y, b in zip(cert, rhs)) > 0


_POSITIVE = st.one_of(st.integers(1, 4), st.integers(2**31 - 3, 2**31 + 3), st.integers(1, 2**47))


@st.composite
def hull_systems(draw):
    """The hull oracle's shape: d coordinate rows (a-columns num, b-columns
    -num) for d in 1..4, the two convexity rows (den > 0 under the a-columns,
    then under the b-columns), rhs (0, ..., 0, 1, 1), up to 40 columns in
    all, and entries drawn as in lp_systems."""
    d = draw(st.integers(1, 4))
    na = draw(st.integers(1, 20))
    nb = draw(st.integers(1, 40 - na))
    nums = [[draw(_ENTRIES) for _ in range(d)] for _ in range(na + nb)]
    dens = [draw(_POSITIVE) for _ in range(na + nb)]
    if draw(st.booleans()):
        # Separate the hulls by the first coordinate's sign (den > 0), so
        # that the Farkas branch is taken about as often as the other.
        for i, num in enumerate(nums):
            num[0] = -abs(num[0]) - 1 if i < na else abs(num[0]) + 1
    rows = [[num[k] for num in nums[:na]] + [-num[k] for num in nums[na:]] for k in range(d)]
    rows.append(dens[:na] + [0] * nb)
    rows.append([0] * na + dens[na:])
    return rows, [0] * d + [1, 1]


@given(hull_systems())
@settings(max_examples=150, deadline=None)
def test_hull_shaped_systems_match_the_reference_simplex(system):
    rows, rhs = system
    result = solve_equality_feasibility(rows, rhs)
    assert repr(result) == repr(reference_equality_feasibility(rows, rhs))


def test_an_artificial_column_reenters_the_basis():
    # At one pivot no column of A has a negative reduced cost but the
    # artificial column of row 3 has, so Bland's rule brings that column
    # back into the basis.  About 3% of random systems with m <= 5 and
    # k <= 6 take this branch.
    rows = [[-3, 2, 2], [-1, 4, -4], [0, 4, -1], [3, 4, 2], [0, -2, 3]]
    rhs = [4, -1, 1, 4, -4]
    result = solve_equality_feasibility(rows, rhs)
    assert result == ("infeasible", (1, 1, -3, 1, -1))
    assert repr(result) == repr(reference_equality_feasibility(rows, rhs))


def test_a_solver_past_its_pass_bound_raises(monkeypatch):
    # x0 + x1 = 1 takes one pivot and then one pass that finds no entering
    # column.  With a bound one pass short of that, the solver raises
    # instead of pivoting on.
    monkeypatch.setattr(lp, "_pass_bound", lambda k, m: 2)
    assert solve_equality_feasibility([[1, 1]], [1]) == ("feasible", (1, 0))
    monkeypatch.setattr(lp, "_pass_bound", lambda k, m: 1)
    with pytest.raises(bk.InternalInvariantError, match="past its bound of 1 passes"):
        solve_equality_feasibility([[1, 1]], [1])


# Recorded faults of the simplex, each one textual change to lp.py: three
# wrong dual updates, a point off by one, pricing that stops while a column
# still prices positive, and an entering column of the wrong sign.
MUTANTS = {
    "u-sign-flipped": ("(a * pivot + cost * t) // den", "(a * pivot - cost * t) // den"),
    "u-over-pivot": ("(a * pivot + cost * t) // den", "(a * pivot + cost * t) // pivot"),
    "u-top-rotated": ("for a, t in zip(u, top)]", "for a, t in zip(u, top[1:] + top[:1])]"),
    "point-off-by-one": ("x[var] = inv[i][m]\n", "x[var] = inv[i][m] + 1\n"),
    "pricing-stops-early": ("if price > 0:", "if price > 1000:"),
    "entering-negated": ("entering = [sum(", "entering = [-sum("),
}


def _mutant_solver(name):
    """solve_equality_feasibility of a copy of lp.py with the mutant's change."""
    old, new = MUTANTS[name]
    source = inspect.getsource(lp)
    assert source.count(old) == 1
    module = types.ModuleType("bracketkit.lp_mutant")
    module.__package__ = "bracketkit"
    exec(compile(source.replace(old, new), lp.__file__, "exec"), module.__dict__)
    return module.solve_equality_feasibility


def _hull_lp(seed, separate):
    """A hull oracle LP of 10 + 10 planar points; with ``separate`` the
    hulls lie on either side of x = 0, so that it is infeasible."""
    rng = random.Random(seed)
    nums = [[rng.randint(-50, 50) for _ in range(2)] for _ in range(20)]
    dens = [rng.randint(1, 7) for _ in range(20)]
    if separate:
        for i, num in enumerate(nums):
            num[0] = -abs(num[0]) - 1 if i < 10 else abs(num[0]) + 1
    rows = [[num[k] for num in nums[:10]] + [-num[k] for num in nums[10:]] for k in range(2)]
    return rows + [dens[:10] + [0] * 10, [0] * 10 + dens[10:]], [0, 0, 1, 1]


@pytest.mark.parametrize("name", ["u-sign-flipped", "u-over-pivot", "u-top-rotated"])
def test_a_wrong_dual_update_is_caught_within_a_second(name):
    # Without the per-pass check, five of these six calls run to the pass
    # bound (C(24, 4) = 10,626 passes here, millions on the largest LPs of
    # the hull-shaped hypothesis test) and one returns; the match pins the
    # per-pass check.
    solve = _mutant_solver(name)
    start = time.perf_counter()
    for separate in (False, True):
        with pytest.raises(bk.InternalInvariantError, match="basis broke an invariant"):
            solve(*_hull_lp(0, separate))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name, separate, message", [
    ("point-off-by-one", False, "point does not solve"),
    ("pricing-stops-early", True, "certificate does not give"),
])
def test_a_wrong_answer_is_refused(name, separate, message):
    rows, rhs = _hull_lp(0, separate)
    assert solve_equality_feasibility(rows, rhs)[0] == ("infeasible" if separate else "feasible")
    with pytest.raises(bk.InternalInvariantError, match=message):
        _mutant_solver(name)(rows, rhs)


def test_an_entering_column_with_no_positive_entry_is_an_internal_error():
    # A phase-1 objective is bounded below by 0, so the ratio test always
    # finds a row.  Under the mutant, x0 + x1 = 1 prices x0 and its entering
    # column [-1] has none: a fault of the solver, which the CLI reports as
    # an error (exit 1), not as a usage error (exit 2).
    assert solve_equality_feasibility([[1, 1]], [1]) == ("feasible", (1, 0))
    with pytest.raises(bk.InternalInvariantError, match="objective unbounded"):
        _mutant_solver("entering-negated")([[1, 1]], [1])


_NON_INTS = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5, 6, 7, 12, 97])),
    st.sampled_from(["1/3", "x", "1/0", None, 0.5, [1], True, False]),
)
_BAD_ENTRIES = st.one_of(_ENTRIES, _NON_INTS)


def _expected_refusal(rows, rhs):
    """The InputError text for rows and rhs, or None when they are a valid
    integer system: the length check first, then row by row its entries,
    its length and its rhs value."""
    if len(rows) != len(rhs):
        return "rows/rhs length mismatch"
    for row, b in zip(rows, rhs):
        bad = [v for v in row if type(v) is not int]
        if bad:
            return f"LP entry {bad[0]!r} is not an int"
        if len(row) != len(rows[0]):
            return "ragged constraint matrix"
        if type(b) is not int:
            return f"LP entry {b!r} is not an int"
    return None


@given(
    st.lists(st.lists(_BAD_ENTRIES, min_size=1, max_size=3), max_size=4),
    st.lists(_BAD_ENTRIES, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_non_int_entries_are_refused_in_row_order(rows, rhs):
    refusal = _expected_refusal(rows, rhs)
    if refusal is None:
        assert _outcome(solve_equality_feasibility, rows, rhs) == _outcome(reference_equality_feasibility, rows, rhs)
    else:
        assert _outcome(solve_equality_feasibility, rows, rhs) == (bk.InputError, refusal)


def test_errors_follow_row_order():
    # The length mismatch comes first; then a non-int in an early row is
    # reported before a ragged later row, and a ragged row before a non-int
    # rhs value of that row.
    for rows, rhs, error in (
        ([[1, "x"], [1]], [1, 1], "LP entry 'x' is not an int"),
        ([[1, 2], [1]], ["x", 1], "LP entry 'x' is not an int"),
        ([[1, 2], [1]], [1, "x"], "ragged constraint matrix"),
        ([[1, 2]], [1, 2], "rows/rhs length mismatch"),
        ([[Fraction(1, 2)]], [1, 2], "rows/rhs length mismatch"),
        ([[1], [True]], [1, 0.5], "LP entry True is not an int"),
        ([[1], [2]], [Fraction(1), 1], "LP entry Fraction(1, 1) is not an int"),
        ([[1, 2.0]], [1], "LP entry 2.0 is not an int"),
    ):
        assert _outcome(solve_equality_feasibility, rows, rhs) == (bk.InputError, error)


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


_RATIONAL_ROWS = [["-5/7", "-5/7"], ["5/3", "4/3"], ["-5/7", "4/3"], ["4/3", "-5/7"], ["1/3", "1/4"]]
_RATIONAL_CASES = (((0, 1), (2, 3), True), ((0, 1, 4), (2,), False), ((0, 2), (1, 3), False), ((0, 1, 2), (4,), True))


def test_hull_rational_coordinates_match_the_reference(monkeypatch):
    # Points with denominators 3, 4 and 7 enter the solver as integer
    # columns (num, den); the reference simplex on the same rows agrees.
    pts = bk.PointSet.from_signed_rows(2, _RATIONAL_ROWS)
    cases = _RATIONAL_CASES
    results = [bk.exact_hull_intersection(pts, a, b) for a, b, _ in cases]
    assert [r.intersecting for r in results] == [want for _, _, want in cases]
    monkeypatch.setattr(bracketkit.protocols, "solve_equality_feasibility", reference_equality_feasibility)
    assert [repr(bk.exact_hull_intersection(pts, a, b)) for a, b, _ in cases] == [repr(r) for r in results]


def _hull_from_fraction_columns(domain, a, b):
    """The HullResult of the reference simplex on the Fraction columns
    (p, 1) of the coordinate and convexity rows, with the witness sum of
    lambda * p, or the functional w = y[:d], c = (y[d+1] - y[d]) / 2."""
    a, b = sorted(set(a)), sorted(set(b))
    pa = [domain.points[i] for i in a]
    pb = [domain.points[j] for j in b]
    d = domain.dim
    rows = [[p[k] for p in pa] + [-q[k] for q in pb] for k in range(d)]
    rows.append([Fraction(1)] * len(pa) + [Fraction(0)] * len(pb))
    rows.append([Fraction(0)] * len(pa) + [Fraction(1)] * len(pb))
    status, cert = reference_equality_feasibility(rows, [Fraction(0)] * d + [Fraction(1)] * 2)
    if status == "feasible":
        return bracketkit.protocols.HullResult(True, witness=tuple(sum(lam * p[k] for lam, p in zip(cert, pa)) for k in range(d)))
    return bracketkit.protocols.HullResult(False, functional=(tuple(cert[:d]), (cert[d + 1] - cert[d]) / 2))


def test_hull_on_rational_domains_matches_the_fraction_columns():
    # Scaling p's column (p, 1) by its denominator keeps every pivot, so
    # the integer columns (num, den) give the same result on any domain.
    domains = [(bk.PointSet.from_signed_rows(2, _RATIONAL_ROWS), [(a, b) for a, b, _ in _RATIONAL_CASES])]
    for seed in range(12):
        rng = random.Random(seed)
        d, n = 2 + seed % 2, 7 + seed % 4
        base = bk.random_point_set(d, n, 500 + seed) if seed % 3 else bk.lower_bound_instance(d, n, "grid")
        domain = bk.jitter_points(base, 1, seed)
        assert any(c.denominator == 1 << 20 for p in domain.points for c in p)
        splits = []
        for _ in range(6):
            a = tuple(i for i in range(n) if rng.random() < 0.4)
            splits.append((a, tuple(i for i in range(n) if i not in a and rng.random() < 0.6)))
        domains.append((domain, splits))
    seen = set()
    for domain, splits in domains:
        for a, b in splits:
            if a and b:
                got = bk.exact_hull_intersection(domain, a, b)
                assert repr(got) == repr(_hull_from_fraction_columns(domain, a, b))
                seen.add(got.intersecting)
    assert seen == {True, False}


def test_hull_point_inside_segment_1d():
    pts = bk.lower_bound_instance(1, 4, "grid")
    res = bk.exact_hull_intersection(pts, (0, 2), (1,))
    assert res.intersecting
    assert res.witness == (Fraction(1),)
    res2 = bk.exact_hull_intersection(pts, (0, 1), (2, 3))
    assert not res2.intersecting


def test_hull_functional_separates_random():
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
