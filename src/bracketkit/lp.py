"""Exact linear feasibility of an integer system.

Decides {x >= 0 : Ax = b} for integer A and b by a phase-1 simplex with one
artificial variable per row, Bland's entering rule (the first column whose
reduced cost is negative) and, in the ratio test, ties broken towards the
lower basic variable.  It returns either a feasible point or a Farkas
certificate y with y.A <= 0, y.b > 0, as exact Fractions; no floating point.

The tableau is integer (Edmonds 1967; Bareiss 1968): an integer matrix T and
a positive integer D, the true tableau being T / D.  A pivot on
p = T[r][s] > 0 leaves row r as it is, replaces every entry of the other rows
and of the objective row by (T[i][j]*p - T[i][s]*T[r][j]) // D, and sets
D = p.  By Cramer's rule D is the absolute value of the basis determinant
and each entry of T is, up to sign, a minor of the starting tableau with the
objective row appended: so every division is exact, and no gcd is taken
until x or y becomes a Fraction at the end.  An entry that is not an int
would break that exactness, so it is refused.
"""

from fractions import Fraction

from .errors import InputError


def solve_equality_feasibility(rows, rhs):
    """Decide {x >= 0 : Ax = b} for integer rows and rhs.

    Returns ("feasible", x) with x a tuple of Fractions, or
    ("infeasible", y) with y a Farkas certificate (y.A <= 0 and y.b > 0).
    The entries are checked in row order, each row before its rhs value.
    """
    m = len(rows)
    if m != len(rhs):
        raise InputError("rows/rhs length mismatch")
    if m == 0:
        return "feasible", ()
    k = len(rows[0])
    tableau, signs = [], []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        for v in row:
            if type(v) is not int:  # a bool is not an int here
                raise InputError(f"LP entry {v!r} is not an int")
        if len(row) != k:
            raise InputError("ragged constraint matrix")
        if type(b) is not int:
            raise InputError(f"LP entry {b!r} is not an int")
        # Negate rows with b < 0 so the artificial basis starts feasible.
        sign = -1 if b < 0 else 1
        tableau.append([sign * v for v in row] + [int(j == i) for j in range(m)] + [sign * b])
        signs.append(sign)
    total = k + m
    basis = list(range(k, total))
    # Objective row: reduced costs for minimizing the artificial sum, which
    # are 0 on the artificial columns of the starting basis.
    obj = [-sum(col) for col in zip(*tableau)]
    obj[k:total] = [0] * m
    den = 1

    while True:
        enter = next((j for j in range(total) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                new, best = tableau[i][total] * tableau[leave][enter], tableau[leave][total] * coef
                if new < best or (new == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InputError("phase-1 objective unbounded; inconsistent tableau")
        top = tableau[leave]
        pivot = top[enter]
        for i in range(m):
            if i != leave:
                row = tableau[i]
                factor = row[enter]
                tableau[i] = [(a * pivot - factor * b) // den for a, b in zip(row, top)]
        factor = obj[enter]
        obj = [(a * pivot - factor * b) // den for a, b in zip(obj, top)]
        den = pivot
        basis[leave] = enter

    if obj[total] == 0:
        x = [Fraction(0)] * k
        for i, var in enumerate(basis):
            if var < k:
                x[var] = Fraction(tableau[i][total], den)
        return "feasible", tuple(x)
    # y = 1 - (reduced cost of the artificial column), with the sign of rows
    # that were negated on input restored.
    return "infeasible", tuple(Fraction(sign * (den - obj[k + i]), den) for i, sign in enumerate(signs))
