"""Exhaustive reference checkers for family validity, used by the verifier
tests and the mutation-testing acceptance criterion, and the LP feasibility
oracle of the geometry tests.

Deliberately written with frozensets and plain loops: no bitmask tricks, no
witness maps, nothing shared with the library's verifiers beyond arithmetic.
"""

from fractions import Fraction

from bracketkit.lp import solve_equality_feasibility


def _sets(masks, n):
    return [frozenset(i for i in range(n) if m >> i & 1) for m in masks]


def naive_mnet_ok(system, pieces, lam, eps):
    n = system.n
    lam = Fraction(lam)
    eps = Fraction(eps)
    ranges = _sets(system.ranges, n)
    piece_sets = _sets(pieces, n)
    for r in ranges:
        if Fraction(len(r)) < eps * n:
            continue
        if not any(p <= r and Fraction(len(p)) >= lam * len(r) for p in piece_sets):
            return False
    return True


def naive_container_ok(system, covers, eps):
    n = system.n
    eps = Fraction(eps)
    ranges = _sets(system.ranges, n)
    cover_sets = _sets(covers, n)
    for r in ranges:
        if not any(r <= c and Fraction(len(c - r)) <= eps * n for c in cover_sets):
            return False
    return True


def naive_bracket_ok(system, sets, eps):
    n = system.n
    eps = Fraction(eps)
    ranges = _sets(system.ranges, n)
    family = _sets(sets, n)
    for r in ranges:
        ok = False
        for lo in family:
            if not lo <= r:
                continue
            for hi in family:
                if r <= hi and Fraction(len(hi - lo)) <= eps * n:
                    ok = True
                    break
            if ok:
                break
        if not ok:
            return False
    return True


def feasible_with_inequalities(eq_rows, eq_rhs, le_rows=(), le_rhs=()):
    """Decide {x >= 0 : A x = b, C x <= d} by adding slack variables.

    Returns True/False (no certificate; use solve_equality_feasibility when
    one is needed).
    """
    eq_rows = [list(r) for r in eq_rows]
    le_rows = [list(r) for r in le_rows]
    slacks = len(le_rows)
    rows = []
    for r in eq_rows:
        rows.append(list(r) + [Fraction(0)] * slacks)
    for i, r in enumerate(le_rows):
        slack = [Fraction(0)] * slacks
        slack[i] = Fraction(1)
        rows.append(list(r) + slack)
    rhs = list(eq_rhs) + list(le_rhs)
    if not rows:
        return True
    status, _ = solve_equality_feasibility(rows, rhs)
    return status == "feasible"
