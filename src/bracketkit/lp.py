"""Exact linear feasibility over the rationals.

Decides {x >= 0 : Ax = b} by a phase-1 simplex with one artificial variable
per row, Bland's entering rule (the first column whose reduced cost is
negative) and, in the ratio test, ties broken towards the lower basic
variable.  It returns either a feasible point or a Farkas certificate y with
y.A <= 0, y.b > 0.  Everything is exact; no floating point.

The tableau is integer (Edmonds 1967; Bareiss 1968).  Each structural column
is multiplied by the lcm of its denominators, the rhs by the lcm of its own,
and the artificial columns stay as they are.  The tableau is an integer
matrix T and a positive integer D, the true tableau being T / D.  A pivot on
p = T[r][s] > 0 leaves row r as it is, replaces every entry of the other rows
and of the objective row by (T[i][j]*p - T[i][s]*T[r][j]) // D, and sets
D = p.  By Cramer's rule D is the absolute value of the basis determinant
and each entry of T is, up to sign, a minor of the scaled starting tableau
with the objective row appended: so every division is exact, and no gcd is
taken until x or y becomes a Fraction at the end.

The pivots, and so the results, are those of the Fraction tableau on the
unscaled system.  Scaling column j by c_j > 0 multiplies its reduced cost by
c_j, so the same columns are negative and Bland's rule enters the same one.
Scaling column s and the rhs multiplies every candidate ratio of the ratio
test by the same c_rhs / c_s > 0; ratios are compared by cross-multiplying
the positive column entries, so the same row leaves and ties break the same
way.  The artificial columns, whose reduced costs give y, are unscaled, so y
is unchanged, and x is the scaled solution times c_j / c_rhs.
"""

import math
from fractions import Fraction

from .errors import InputError


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
    signed = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        if len(row) != k:
            raise InputError("ragged constraint matrix")
        b = Fraction(rhs[i])
        # Negate rows with b < 0 so the artificial basis starts feasible.
        signed.append(([-v for v in row], -b, True) if b < 0 else (row, b, False))
    scale = [math.lcm(*(row[j].denominator for row, _, _ in signed)) for j in range(k)]
    rhs_scale = math.lcm(*(b.denominator for _, b, _ in signed))
    tableau = []
    for i, (row, b, _) in enumerate(signed):
        ints = [v.numerator * (c // v.denominator) for v, c in zip(row, scale)]
        ints.extend(1 if j == i else 0 for j in range(m))
        ints.append(b.numerator * (rhs_scale // b.denominator))
        tableau.append(ints)
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
                x[var] = Fraction(tableau[i][total] * scale[var], den * rhs_scale)
        return "feasible", tuple(x)
    # y = 1 - (reduced cost of the artificial column), restoring the sign of
    # rows that were negated on input.
    y = (Fraction(den - obj[k + i], den) for i in range(m))
    return "infeasible", tuple(-v if negated else v for v, (_, _, negated) in zip(y, signed))
