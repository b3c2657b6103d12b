"""Exact linear feasibility of an integer system.

Decides {x >= 0 : Ax = b} for integer A and b by a phase-1 simplex with one
artificial variable per row, Bland's entering rule (the first column whose
reduced cost is negative) and, in the ratio test, ties broken towards the
lower basic variable.  It returns either a feasible point or a Farkas
certificate y with y.A <= 0, y.b > 0, as exact Fractions; no floating point.

The arithmetic is integer (Edmonds 1967; Bareiss 1968).  Rows with b < 0 are
negated, so that the artificial basis starts feasible; write A0 and b0 for
the rows and rhs after that, and T0 = [A0 | I | b0] for the starting tableau.
The true tableau is T / D for an integer matrix T and a positive integer D.
A pivot on p = T[r][s] > 0 leaves row r as it is, replaces every entry of
the other rows and of the objective row by (T[i][j]*p - T[i][s]*T[r][j]) // D,
and sets D = p.  By Cramer's rule D is the absolute value of the basis
determinant and each entry of T is, up to sign, a minor of T0 with the
objective row appended: so every division is exact, and no gcd is taken
until x or y becomes a Fraction at the end.  An entry that is not an int
would break that exactness, so it is refused.

The simplex is revised: it never forms T.  It keeps ``inv``, the artificial
block and the rhs column of T (D.B^-1 and D.B^-1.b0, m x (m + 1)), the
scaled dual u with u[l] = D - obj[k + l], and D.  Two invariants hold from
the start (inv = [I | b0], u = 1, D = 1) through every pivot:

- T = inv[:, :m].T0, since the artificial block of T0 is I; the rhs
  column of T is then inv's last.  The pivot update is linear in the rows,
  so applying it to the rows of inv gives the new T the same way, with the
  same exact divisions.
- obj = D.c - u.T0, where c costs 1 on the artificial columns and 0
  elsewhere.  Since T[r] = inv[r][:m].T0, the pivot turns it into
  p.c - ((u*p + obj[s]*inv[r][:m]) / D).T0, so the new dual is
  u' = (u*p + obj[s]*inv[r][:m]) // D; u'[l] is p - obj'[k + l], an
  integer, so that division is exact too.

So column j < k of A0 has reduced cost -u.a_j, an artificial column l has
D - u[l] (negative when u[l] > D), and the entering column is
inv[:, :m].a_j (or column l of inv).  Every priced entry, every ratio-test
choice and every pivot is the full tableau's, and the outputs are the same
numbers: the system is feasible when u.b0 == 0 (the rhs entry of obj is
zero), x has T[i][rhs] / D on the basic columns, and the Farkas certificate
is y_i = sign_i * u_i / D with the sign of negated rows restored.  A pivot
costs m x (m + 1) updates instead of m x (k + m + 1), and pricing stops at
the first negative column.

Bland's rule never returns to a basis, so the loop ends within one pass per
basis, C(k + m, m) passes in all.  A solver that runs past that bound has
broken an invariant (a wrong dual update, say, cycles forever), and it
raises InternalInvariantError instead of looping on.

That bound is large (9,366,819 passes at k = 40, m = 6), so each pass
first checks the invariants that such a fault breaks at once: every basic
column has reduced cost zero (u.a_j == 0 for a basic column j of A0,
u[l] == D for a basic artificial l), and the rhs column of T is
non-negative, which a wrong primal update can break.  The answer is checked
in exact integers before it is returned: A0.(D.x) == D.b0 and x >= 0 for a
point, u.a_j <= 0 for every column and u.b0 > 0 for a certificate.  A
failed check raises InternalInvariantError too, and so does an entering
column with no positive entry: the phase-1 objective is bounded below by 0,
so the ratio test always finds a row.
"""

import math
from fractions import Fraction
from operator import mul

from .errors import InputError, InternalInvariantError


def _pass_bound(k, m):
    """Simplex passes allowed for k columns and m rows: one per basis."""
    return math.comb(k + m, m)


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
    signed, b0, signs = [], [], []
    for row, b in zip(rows, rhs):
        for v in row:
            if type(v) is not int:  # a bool is not an int here
                raise InputError(f"LP entry {v!r} is not an int")
        if len(row) != k:
            raise InputError("ragged constraint matrix")
        if type(b) is not int:
            raise InputError(f"LP entry {b!r} is not an int")
        # Negate rows with b < 0 so the artificial basis starts feasible.
        sign = -1 if b < 0 else 1
        signed.append(row if sign > 0 else [-v for v in row])
        b0.append(sign * b)
        signs.append(sign)
    columns = list(zip(*signed))
    inv = [[int(j == i) for j in range(m)] + [b0[i]] for i in range(m)]
    u = [1] * m
    basis = list(range(k, k + m))
    den = 1

    for _ in range(_pass_bound(k, m)):
        for i, var in enumerate(basis):
            reduced = sum(map(mul, u, columns[var])) if var < k else u[var - k] - den
            if reduced or inv[i][m] < 0:
                raise InternalInvariantError(f"simplex basis broke an invariant in row {i}")
        # Bland's rule: the first column of A0 with u.a_j > 0, else the
        # first artificial column with u[l] > D.
        for j, col in enumerate(columns):
            price = sum(map(mul, u, col))
            if price > 0:
                enter, cost = j, -price
                entering = [sum(map(mul, row, col)) for row in inv]
                break
        else:
            enter = next((k + l for l in range(m) if u[l] > den), None)
            if enter is None:
                break
            cost = den - u[enter - k]
            entering = [row[enter - k] for row in inv]
        leave = None
        for i in range(m):
            coef = entering[i]
            if coef > 0:
                if leave is None:
                    leave = i
                    continue
                new, best = inv[i][m] * entering[leave], inv[leave][m] * coef
                if new < best or (new == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise InternalInvariantError("phase-1 objective unbounded: the entering column has no positive entry")
        top = inv[leave]
        pivot = entering[leave]
        for i in range(m):
            if i != leave:
                factor = entering[i]
                inv[i] = [(a * pivot - factor * t) // den for a, t in zip(inv[i], top)]
        u = [(a * pivot + cost * t) // den for a, t in zip(u, top)]
        den = pivot
        basis[leave] = enter
    else:
        raise InternalInvariantError(f"simplex ran past its bound of {_pass_bound(k, m)} passes")

    gap = sum(map(mul, u, b0))
    if gap == 0:
        x = [0] * k  # D.x
        for i, var in enumerate(basis):
            if var < k:
                x[var] = inv[i][m]
        if min(x, default=0) < 0 or any(sum(map(mul, row, x)) != den * b for row, b in zip(signed, b0)):
            raise InternalInvariantError("simplex point does not solve Ax = b, x >= 0")
        return "feasible", tuple(Fraction(v, den) for v in x)
    if gap < 0 or any(sum(map(mul, u, col)) > 0 for col in columns):
        raise InternalInvariantError("simplex certificate does not give y.A <= 0 < y.b")
    return "infeasible", tuple(Fraction(sign * v, den) for sign, v in zip(signs, u))
