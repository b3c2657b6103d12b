"""Exact linear feasibility over the rationals.

Phase-1 simplex with Bland's rule on Fraction tableaus: decides Ax = b,
x >= 0 and returns either a feasible point or a Farkas certificate y with
y.A <= 0, y.b > 0.
Everything is exact; no floating point. Sized for a few hundred variables.
"""

from fractions import Fraction

from .errors import InputError

ZERO = Fraction(0)
ONE = Fraction(1)


def solve_equality_feasibility(rows, rhs):
    """Decide {x >= 0 : Ax = b}.

    Returns ("feasible", x) with x a tuple of Fractions, or
    ("infeasible", y) with y a Farkas certificate (y.A <= 0 and y.b > 0).
    """
    m = len(rows)
    if m != len(rhs):
        raise InputError("rows/rhs length mismatch")
    if m == 0:
        return "feasible", ()
    k = len(rows[0])
    tableau = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        if len(row) != k:
            raise InputError("ragged constraint matrix")
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        row.extend(ONE if j == i else ZERO for j in range(m))
        row.append(b)
        tableau.append(row)
    total = k + m
    basis = list(range(k, k + m))
    # Objective row: reduced costs for minimizing the artificial sum.
    obj = [ZERO] * (total + 1)
    for j in range(total):
        col_sum = sum(tableau[i][j] for i in range(m))
        cost = ONE if j >= k else ZERO
        obj[j] = cost - col_sum
    obj[total] = -sum(tableau[i][total] for i in range(m))

    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][total] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise InputError("phase-1 objective unbounded; inconsistent tableau")
        pivot = tableau[leave][enter]
        tableau[leave] = [v / pivot for v in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                factor = tableau[i][enter]
                tableau[i] = [a - factor * b for a, b in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            factor = obj[enter]
            obj = [a - factor * b for a, b in zip(obj, tableau[leave])]
        basis[leave] = enter

    optimum = -obj[total]
    if optimum == 0:
        x = [ZERO] * k
        for i, var in enumerate(basis):
            if var < k:
                x[var] = tableau[i][total]
        return "feasible", tuple(x)
    y = tuple(ONE - obj[k + i] for i in range(m))
    # Restore signs for rows that were negated on input.
    signed = []
    for i in range(m):
        signed.append(-y[i] if Fraction(rhs[i]) < 0 else y[i])
    return "infeasible", tuple(signed)
