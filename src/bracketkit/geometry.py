"""Geometric range enumeration over exact rational point sets.

Halfspace ranges come from one engine that yields sides: for each
hyperplane spanned by d of the points, both (spanning tuple, integer
normal, mask of the points strictly on the normal's side).  Two paths yield
the same sides.  In the plane (d = 2, which also serves 1-D balls through
the paraboloid lift) an angular sweep sorts, around each point, the
directions to all others and reads both sides of every spanning line off
prefix masks with two pointers: O(n^2 log n).  Every other dimension scans
all spanning d-tuples against all points: O(n^(d+1)).  The scan is the
reference the sweep is tested against, and both refuse exactly the same
inputs (a repeated point, or d+1 points on one hyperplane).

Masks and witnesses are both read from the sides.  A side's ranges are its
strict mask plus each subset of its tuple (``_halfspace_masks`` applies that
and any side filter in one place).  ``halfspace_ranges_with_witnesses``
proves each such range by tilting the side's hyperplane, so every emitted
range is realized by an exact query; that no range is missed (general
position) is pinned by an independent brute-force oracle in the tests.  All
side-of-hyperplane tests are exact integer arithmetic after clearing
denominators.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from .errors import DegeneracyError, InputError, ResourceBudgetError, json_int, parse_json_object
from .rationals import format_fraction
from .setsystem import SetSystem

_SPHERE_DEN = 1 << 12


@dataclass(frozen=True)
class PointSet:
    """n points with exact rational coordinates in dimension d."""

    dim: int
    points: tuple

    @staticmethod
    def from_signed_rows(dim, rows):
        """Rows of Fractions, or of values whose str() Fraction parses (signs allowed)."""
        pts = []
        for row in rows:
            vals = []
            for v in row:
                vals.append(v if isinstance(v, Fraction) else Fraction(str(v).strip()))
            if len(vals) != dim:
                raise InputError(f"point has {len(vals)} coordinates, expected {dim}")
            pts.append(tuple(vals))
        return PointSet(dim, tuple(pts))

    @property
    def n(self):
        return len(self.points)

    def to_json(self):
        return json.dumps(
            {"dim": self.dim, "points": [[format_fraction(v) for v in p] for p in self.points]}
        )

    @staticmethod
    def from_json(text):
        return parse_json_object(
            text, "point set JSON",
            lambda data: PointSet.from_signed_rows(
                json_int(data["dim"], "point set JSON: dim", 1), data["points"]
            ),
        )


@dataclass(frozen=True)
class LinearQuery:
    """Affine query normal.x >= offset."""

    normal: tuple
    offset: Fraction

    def __post_init__(self):
        if all(v == 0 for v in self.normal):
            raise InputError("query normal must be nonzero")

    def holds(self, point):
        return sum(a * x for a, x in zip(self.normal, point)) >= self.offset


def _int_points(pts):
    """Clear denominators per point: (integer coordinates, positive denominator)."""
    out = []
    for p in pts.points:
        den = math.lcm(*(c.denominator for c in p)) if p else 1
        out.append((tuple(int(c * den) for c in p), den))
    return out


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _cofactor_normal(rows, dim):
    """Normal of the hyperplane spanned by difference rows ((dim-1) x dim)."""
    if dim == 1:
        return (1,)
    if dim == 2:
        (rx, ry), = rows
        return (-ry, rx)
    if dim == 3:
        (a, b, c), (d, e, f) = rows
        return (b * f - c * e, c * d - a * f, a * e - b * d)
    if dim == 4:
        normal = []
        for drop in range(4):
            minor = [[row[j] for j in range(4) if j != drop] for row in rows]
            normal.append((-1) ** drop * _det3(minor))
        return tuple(normal)
    raise InputError(f"hyperplane enumeration unsupported in dimension {dim}")


def _cleared_difference(q, base):
    (qn, qd), (bn, bd) = q, base
    return tuple(a * bd - b * qd for a, b in zip(qn, bn))


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
        raise DegeneracyError("points are affinely dependent")
    solution = [Fraction(0)] * (dim + 1)
    for row, col in zip(rows, pivots):
        solution[col] = row[-1]
    return solution[:dim], solution[dim]


def _halfspace_sides(int_pts, dim):
    """Both sides of every hyperplane spanned by d of the points.

    A side is (spanning tuple, integer normal, mask of the points strictly on
    the normal's side); the tuple's points lie on the hyperplane.  With
    n <= d points no hyperplane is spanned: if they are affinely independent,
    the one side is the zero normal's, whose boundary holds every point.
    """
    n = len(int_pts)
    if n <= dim:
        _affine_interpolant(int_pts, [0] * n, dim)
        return [(tuple(range(n)), (0,) * dim, 0)]
    if dim == 2:
        return _planar_sweep_sides(int_pts)
    return _spanning_tuple_sides(int_pts, dim)


def _boundary_masks(side, tup):
    """``side | B`` for every subset B of the tuple; bit j of the list index
    says whether tup[j] is in B."""
    if len(tup) == 2:  # every side of the planar sweep: unrolled, as it runs per pair
        bit_i, bit_j = 1 << tup[0], 1 << tup[1]
        return side, side | bit_i, side | bit_j, side | bit_i | bit_j
    out = [side]
    for i in tup:
        bit = 1 << i
        for k in range(len(out)):
            out.append(out[k] | bit)
    return out


def _halfspace_masks(int_pts, dim, keep=None):
    """Distinct halfspace traces as bitmasks; ``keep(normal)`` filters sides.

    A side contributes its strict mask with every subset of its spanning
    tuple added: a small tilt of the hyperplane puts any part of the tuple
    inside and leaves every other point where it is (the construction is
    ``halfspace_ranges_with_witnesses``).
    """
    masks = {0, (1 << len(int_pts)) - 1}
    for tup, normal, side in _halfspace_sides(int_pts, dim):
        if keep is None or keep(normal):
            masks.update(_boundary_masks(side, tup))
    return masks


# Sorts direction vectors of one closed half-plane counterclockwise: the sign
# of the cross product decides, and no two of them are opposite.
_BY_ANGLE = cmp_to_key(lambda a, b: a[1] * b[0] - a[0] * b[1])


def _planar_sweep_sides(int_pts):
    """``_spanning_tuple_sides`` for d = 2 and n >= 3 by a rotational sweep.

    Around each base point i the directions to all other points are sorted
    by angle (exactly: half-plane, then cross product).  Let P be the prefix
    XOR of their bits over the sorted order taken twice.  For the direction
    at position k, a pointer t that only moves forward finds the end of the
    directions strictly left of it, so that side is P[t] ^ P[k+1] and the
    right side is the rest.  The pointer stops at the latest at the direction
    opposite k, if there is one.  Of any collinear triple, the other two
    points lie in opposite directions from the middle one, so a zero cross
    product at the pointer finds every collinear triple.
    """
    n = len(int_pts)
    full = (1 << n) - 1
    for i, ((bx, by), bd) in enumerate(int_pts):
        upper = []
        lower = []
        for j, ((qx, qy), qd) in enumerate(int_pts):
            if j == i:
                continue
            x, y = qx * bd - bx * qd, qy * bd - by * qd
            if y > 0 or (y == 0 and x > 0):
                upper.append((x, y, j))
            elif y or x:
                lower.append((x, y, j))
            else:
                raise DegeneracyError(f"points {i} and {j} coincide")
        upper.sort(key=_BY_ANGLE)
        lower.sort(key=_BY_ANGLE)
        order = upper + lower
        m = len(order)
        twice = order + order
        prefix = [0]
        acc = 0
        for _, _, j in twice:
            acc ^= 1 << j
            prefix.append(acc)
        others = full ^ (1 << i)
        t = 1
        for k, (x, y, j) in enumerate(order):
            t = max(t, k + 1)
            while t < k + m:
                ex, ey, e = twice[t]
                cross = x * ey - y * ex
                if cross < 0:
                    break
                if cross == 0:
                    raise DegeneracyError(f"points {i}, {j} and {e} are collinear")
                t += 1
            if j < i:
                continue
            left = prefix[t] ^ prefix[k + 1]
            # (-y, x) is _cofactor_normal of the pair, so the scan yields the same sides.
            yield (i, j), (-y, x), left
            yield (i, j), (y, -x), others ^ (1 << j) ^ left


def _spanning_tuple_sides(int_pts, dim):
    """Sides by scanning every spanning d-tuple against every point."""
    for tup in combinations(range(len(int_pts)), dim):
        base = int_pts[tup[0]]
        rows = [_cleared_difference(int_pts[j], base) for j in tup[1:]]
        normal = _cofactor_normal(rows, dim)
        if all(v == 0 for v in normal):
            raise DegeneracyError(f"spanning tuple {tup} is affinely dependent")
        base_num, base_den = base
        ndotb = sum(w * v for w, v in zip(normal, base_num))
        tup_set = set(tup)
        plus = 0
        minus = 0
        for i, (pn, pd) in enumerate(int_pts):
            if i in tup_set:
                continue
            value = sum(w * v for w, v in zip(normal, pn)) * base_den - ndotb * pd
            if value > 0:
                plus |= 1 << i
            elif value < 0:
                minus |= 1 << i
            else:
                raise DegeneracyError(
                    f"point {i} lies on the hyperplane spanned by {tup}"
                )
        yield tup, normal, plus
        yield tup, tuple(-v for v in normal), minus


def enumerate_halfspace_ranges(pts):
    """All distinct subsets cut from the points by halfspaces, incl. empty and full."""
    return SetSystem.from_masks(pts.n, _halfspace_masks(_int_points(pts), pts.dim))


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
        return SetSystem.from_masks(0, [0]), {0: LinearQuery(axis, Fraction(0))}
    xs = [p[0] for p in pts.points]
    witnesses = {0: LinearQuery(axis, max(xs) + 1), (1 << n) - 1: LinearQuery(axis, min(xs) - 1)}
    int_pts = _int_points(pts)
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
    return SetSystem.from_masks(n, witnesses), witnesses


def enumerate_ball_ranges(pts):
    """Distinct subsets cut by closed balls (halfspaces included as limits).

    Implemented on the paraboloid lift (x, |x|^2); only lifted halfspaces whose
    last normal coefficient is <= 0 correspond to balls, so sides with a
    positive last coefficient (complements of balls) are filtered out.
    """
    lifted = [(tuple(v * den for v in num) + (sum(v * v for v in num),), den * den)
              for num, den in _int_points(pts)]
    masks = _halfspace_masks(lifted, pts.dim + 1, keep=lambda w: w[-1] <= 0)
    return SetSystem.from_masks(pts.n, masks)


def enumerate_box_ranges(pts):
    """Distinct subsets cut by axis-parallel closed boxes."""
    n, dim = pts.n, pts.dim
    if n == 0:
        return SetSystem.from_masks(0, [0])
    axis_masks = []
    for axis in range(dim):
        values = sorted({p[axis] for p in pts.points})
        intervals = {0}
        for lo_i, lo in enumerate(values):
            mask = 0
            for hi in values[lo_i:]:
                for i, p in enumerate(pts.points):
                    if lo <= p[axis] <= hi:
                        mask |= 1 << i
                intervals.add(mask)
        axis_masks.append(intervals)
    combined = {0}
    current = axis_masks[0]
    for nxt in axis_masks[1:]:
        current = {a & b for a in current for b in nxt}
    combined |= current
    return SetSystem.from_masks(n, combined)


def veronese_lift(pts, degree):
    """Map each point to all non-constant monomials of total degree <= degree.

    Output dimension is C(d+degree, degree) - 1; signs of degree-bounded
    polynomials on the originals become signs of affine functions on the lifts.
    """
    if degree < 1:
        raise InputError("degree must be >= 1")
    exponents = monomial_exponents(pts.dim, degree)
    rows = []
    for p in pts.points:
        row = []
        for expo in exponents:
            value = Fraction(1)
            for c, e in zip(p, expo):
                value *= c**e
            row.append(value)
        rows.append(tuple(row))
    return PointSet(len(exponents), tuple(rows))


def monomial_exponents(dim, degree):
    """Exponent tuples matching the veronese_lift coordinate order."""
    out = []
    for total in range(1, degree + 1):
        out.extend(_compositions(total, dim))
    return out


def _compositions(total, parts):
    """Compositions of ``total`` into ``parts`` nonnegative parts, lex descending."""
    if parts == 1:
        return [(total,)]
    out = []
    for head in range(total, -1, -1):
        for tail in _compositions(total - head, parts - 1):
            out.append((head,) + tail)
    return out


def enumerate_polytope_ranges(pts, k, budget=100000, with_witnesses=False):
    """All distinct intersections of at most k halfspace ranges."""
    if k < 1:
        raise InputError("k must be >= 1")
    halfspaces = enumerate_halfspace_ranges(pts)
    level = {m: (m,) for m in halfspaces.ranges}
    seen = dict(level)
    for _ in range(1, k):
        nxt = {}
        for mask, constraints in level.items():
            for h in halfspaces.ranges:
                combined = mask & h
                if combined not in seen:
                    nxt[combined] = constraints + (h,)
                    seen[combined] = constraints + (h,)
                    if len(seen) > budget:
                        raise ResourceBudgetError(
                            f"polytope enumeration exceeded budget {budget}"
                        )
        if not nxt:
            break
        level = nxt
    system = SetSystem.from_masks(pts.n, seen)
    if with_witnesses:
        return system, seen
    return system


def lower_bound_instance(d, n, kind):
    """Deterministic rational instances: sphere, moment-curve or grid points."""
    if d < 1 or n < 0:
        raise InputError("need d >= 1 and n >= 0")
    if kind == "moment-curve":
        rows = [tuple(Fraction(t) ** e for e in range(1, d + 1)) for t in range(1, n + 1)]
        return PointSet(d, tuple(rows))
    if kind == "grid":
        if d == 1:
            return PointSet(1, tuple((Fraction(i),) for i in range(n)))
        side = max(1, math.ceil(n ** (1.0 / d)))
        rows = []
        for flat in range(n):
            coords = []
            rem = flat
            for _ in range(d):
                coords.append(Fraction(rem % side))
                rem //= side
            rows.append(tuple(coords))
        return PointSet(d, tuple(rows))
    if kind == "sphere":
        if d == 2:
            return _circle_points(n)
        if d == 3:
            return _sphere_points(n)
        raise InputError("sphere instances support d in {2, 3}")
    raise InputError(f"unknown instance kind {kind!r}")


def _circle_points(n):
    """n rational points exactly on the unit circle, near equal angular spacing."""
    rows = []
    for i in range(n):
        half_angle = math.pi * i / n
        if abs(half_angle - math.pi / 2) < 1e-12:
            rows.append((Fraction(-1), Fraction(0)))
            continue
        t = Fraction(round(math.tan(half_angle) * _SPHERE_DEN), _SPHERE_DEN)
        den = 1 + t * t
        rows.append(((1 - t * t) / den, 2 * t / den))
    if len(set(rows)) != n:
        raise InputError(f"circle instance with n={n} collides at this approximation scale")
    return PointSet(2, tuple(rows))


def _sphere_points(n):
    """Rational points exactly on the unit 2-sphere via inverse stereographic maps."""
    golden = math.pi * (3 - math.sqrt(5))
    rows = []
    for i in range(n):
        z = 1 - 2 * (i + 0.5) / n
        r = math.sqrt(max(0.0, 1 - z * z))
        theta = golden * i
        u = Fraction(round(r * math.cos(theta) / (1 + z) * _SPHERE_DEN), _SPHERE_DEN) if z > -1 else Fraction(0)
        v = Fraction(round(r * math.sin(theta) / (1 + z) * _SPHERE_DEN), _SPHERE_DEN)
        den = 1 + u * u + v * v
        rows.append((2 * u / den, 2 * v / den, (2 - den) / den))
    if len(set(rows)) != n:
        raise InputError(f"sphere instance with n={n} collides at this approximation scale")
    return PointSet(3, tuple(rows))


def random_point_set(d, n, seed, coord_bits=31):
    """Seeded integer-coordinate points (distinct); general position is likely
    but not guaranteed — enumerators raise DegeneracyError when it fails."""
    if d < 1 or n < 0:
        raise InputError("need d >= 1 and n >= 0")
    rng = random.Random(seed)
    seen = set()
    rows = []
    bound = 1 << coord_bits
    while len(rows) < n:
        p = tuple(Fraction(rng.randrange(bound)) for _ in range(d))
        if p not in seen:
            seen.add(p)
            rows.append(p)
    return PointSet(d, tuple(rows))


def jitter_points(pts, scale, seed):
    """Add deterministic rational jitter of magnitude < scale to every coordinate."""
    scale = Fraction(scale)
    rng = random.Random(seed)
    rows = []
    for p in pts.points:
        rows.append(tuple(c + scale * Fraction(rng.randrange(1, 1 << 20), 1 << 20) for c in p))
    return PointSet(pts.dim, tuple(rows))
