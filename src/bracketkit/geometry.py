"""Geometric range enumeration over exact rational point sets.

Halfspace ranges are enumerated from hyperplanes spanned by d-subsets of
points: each side is emitted with every realizable boundary-inclusion
pattern (all subsets of the spanning tuple, valid under general position).
Two paths compute the same masks.  In the plane (d = 2, which also serves
1-D balls through the paraboloid lift) an angular sweep sorts, around each
point, the directions to all others and reads both sides of every spanning
line off prefix masks with two pointers: O(n^2 log n).  Every other
dimension scans all spanning d-tuples against all points: O(n^(d+1)).  The
scan is the reference the sweep is tested against, and both refuse exactly
the same inputs (a repeated point, or d+1 points on one hyperplane).
Correctness of the pattern scheme is pinned by an independent brute-force
oracle in the tests rather than a geometric proof.  All side-of-hyperplane
tests are exact integer arithmetic after clearing denominators.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations

from .errors import DegeneracyError, InputError, ResourceBudgetError, parse_json_object
from .rationals import format_fraction, parse_fraction
from .setsystem import SetSystem

_SPHERE_DEN = 1 << 12


@dataclass(frozen=True)
class PointSet:
    """n points with exact rational coordinates in dimension d."""

    dim: int
    points: tuple

    @staticmethod
    def from_rows(dim, rows):
        pts = []
        for row in rows:
            row = tuple(parse_fraction(v, name="coordinate") if not isinstance(v, Fraction) else v for v in row)
            row = tuple(Fraction(v) for v in row)
            if len(row) != dim:
                raise InputError(f"point has {len(row)} coordinates, expected {dim}")
            pts.append(row)
        return PointSet(dim, tuple(pts))

    @staticmethod
    def from_signed_rows(dim, rows):
        """Rows may contain negative rationals (parse_fraction rejects them)."""
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
            lambda data: PointSet.from_signed_rows(int(data["dim"]), data["points"]),
        )


@dataclass(frozen=True)
class LinearQuery:
    """Affine query normal.x (sense) offset; sense one of '>=', '>', '='."""

    normal: tuple
    offset: Fraction
    sense: str = ">="

    def __post_init__(self):
        if all(v == 0 for v in self.normal):
            raise InputError("query normal must be nonzero")
        if self.sense not in (">=", ">", "="):
            raise InputError(f"unknown sense {self.sense!r}")

    def holds(self, point):
        value = sum(a * x for a, x in zip(self.normal, point))
        if self.sense == ">=":
            return value >= self.offset
        if self.sense == ">":
            return value > self.offset
        return value == self.offset


def _int_points(pts):
    """Clear denominators per point: (integer coordinates, positive denominator)."""
    out = []
    for p in pts.points:
        den = math.lcm(*(c.denominator for c in p)) if p else 1
        out.append((tuple(int(c * den) for c in p), den))
    return out


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


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


def _affine_rank(int_pts):
    """Rank of the affine span of the points (0 for a single point)."""
    if len(int_pts) <= 1:
        return 0
    rows = [[Fraction(v) for v in _cleared_difference(q, int_pts[0])] for q in int_pts[1:]]
    rank = 0
    cols = len(rows[0])
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / lead
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _halfspace_masks(int_pts, dim, keep=None):
    """Distinct halfspace traces as bitmasks; ``keep(normal)`` filters sides."""
    if dim == 2 and len(int_pts) > dim:
        return _planar_sweep_masks(int_pts, keep)
    return _spanning_tuple_masks(int_pts, dim, keep)


# Sorts direction vectors of one closed half-plane counterclockwise: the sign
# of the cross product decides, and no two of them are opposite.
_BY_ANGLE = cmp_to_key(lambda a, b: a[1] * b[0] - a[0] * b[1])


def _planar_sweep_masks(int_pts, keep=None):
    """``_spanning_tuple_masks`` for d = 2 and n >= 3 by a rotational sweep.

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
    masks = {0, full}
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
            bit_i, bit_j = 1 << i, 1 << j
            left = prefix[t] ^ prefix[k + 1]
            # (-y, x) is _cofactor_normal of the pair, so keep sees what the scan passes it.
            for side, normal in ((left, (-y, x)), (others ^ bit_j ^ left, (y, -x))):
                if keep is None or keep(normal):
                    masks.update((side, side | bit_i, side | bit_j, side | bit_i | bit_j))
    return masks


def _spanning_tuple_masks(int_pts, dim, keep=None):
    """Halfspace traces by scanning every spanning d-tuple against every point."""
    n = len(int_pts)
    if n == 0:
        return {0}
    full = (1 << n) - 1
    if n <= dim:
        if _affine_rank(int_pts) != n - 1:
            raise DegeneracyError("points are affinely dependent")
        return set(range(full + 1))
    masks = {0, full}
    for tup in combinations(range(n), dim):
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
        sides = []
        if keep is None or keep(normal):
            sides.append(plus)
        neg_normal = tuple(-v for v in normal)
        if keep is None or keep(neg_normal):
            sides.append(minus)
        if not sides:
            continue
        tup_bits = [1 << i for i in tup]
        for side in sides:
            for pattern in range(1 << dim):
                mask = side
                for j, bit in enumerate(tup_bits):
                    if pattern >> j & 1:
                        mask |= bit
                masks.add(mask)
    return masks


def enumerate_halfspace_ranges(pts):
    """All distinct subsets cut from the points by halfspaces, incl. empty and full."""
    return SetSystem.from_masks(pts.n, _halfspace_masks(_int_points(pts), pts.dim))


def _solve_affine_values(points, targets):
    """Find an affine functional f(x) = u.x + g with f(p_i) = targets[i] exactly.

    Points must be affinely independent; the system is solved by Gaussian
    elimination over Fractions, free variables pinned to 0.
    """
    dim = len(points[0])
    rows = [[Fraction(c) for c in p] + [Fraction(1), Fraction(t)] for p, t in zip(points, targets)]
    cols = dim + 1
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [v / lead for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
    if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in rows):
        raise DegeneracyError("affine interpolation is infeasible")
    solution = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        solution[col] = rows[r][-1]
    return tuple(solution[:dim]), solution[dim]


def halfspace_ranges_with_witnesses(pts):
    """Halfspace ranges plus an exact witness LinearQuery per range.

    Witnesses realize each range as {x : normal.x >= offset} on the point set,
    with boundary patterns materialized by an exact symbolic perturbation.
    """
    n, dim = pts.n, pts.dim
    int_pts = _int_points(pts)
    system = enumerate_halfspace_ranges(pts)
    witnesses = {}
    axis = tuple(Fraction(1) if k == 0 else Fraction(0) for k in range(dim))
    if n == 0:
        return system, {0: LinearQuery(axis, Fraction(0))}
    xs = [p[0] for p in pts.points]
    witnesses[0] = LinearQuery(axis, max(xs) + 1)
    witnesses[system.full_mask] = LinearQuery(axis, min(xs) - 1)
    if n <= dim:
        for mask in system.ranges:
            if mask in witnesses:
                continue
            targets = [Fraction(1) if mask >> i & 1 else Fraction(-1) for i in range(n)]
            normal, shift = _solve_affine_values(list(pts.points), targets)
            witnesses[mask] = LinearQuery(normal, -shift)
        return system, witnesses
    for tup in combinations(range(n), dim):
        base = int_pts[tup[0]]
        rows = [_cleared_difference(int_pts[j], base) for j in tup[1:]]
        normal = _cofactor_normal(rows, dim)
        boundary = [pts.points[i] for i in tup]
        offset = sum(Fraction(w) * c for w, c in zip(normal, pts.points[tup[0]]))
        strict = [i for i in range(n) if i not in tup]
        values = {
            i: sum(Fraction(w) * c for w, c in zip(normal, pts.points[i])) - offset
            for i in strict
        }
        for sign in (1, -1):
            side_normal = tuple(Fraction(sign * w) for w in normal)
            side_offset = sign * offset
            side_mask = 0
            for i in strict:
                if sign * values[i] > 0:
                    side_mask |= 1 << i
            for pattern in range(1 << dim):
                mask = side_mask
                targets = []
                for j, i in enumerate(tup):
                    inside = pattern >> j & 1
                    if inside:
                        mask |= 1 << i
                    targets.append(Fraction(1) if inside else Fraction(-1))
                if mask in witnesses:
                    continue
                u, gamma = _solve_affine_values(boundary, targets)
                tau = None
                for i in strict:
                    slack = abs(sign * values[i])
                    wiggle = abs(sum(a * c for a, c in zip(u, pts.points[i])) + gamma)
                    bound = slack / (2 * (wiggle + 1))
                    tau = bound if tau is None else min(tau, bound)
                new_normal = tuple(a + tau * b for a, b in zip(side_normal, u))
                new_offset = side_offset - tau * gamma
                witnesses[mask] = LinearQuery(new_normal, new_offset)
    return system, witnesses


def _lifted_int_points(int_pts):
    lifted = []
    for nums, den in int_pts:
        lifted.append((tuple(v * den for v in nums) + (sum(v * v for v in nums),), den * den))
    return lifted


def enumerate_ball_ranges(pts):
    """Distinct subsets cut by closed balls (halfspaces included as limits).

    Implemented on the paraboloid lift (x, |x|^2); only lifted halfspaces whose
    last normal coefficient is <= 0 correspond to balls, so sides with a
    positive last coefficient (complements of balls) are filtered out.
    """
    lifted = _lifted_int_points(_int_points(pts))
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
    exponents = []
    for total in range(1, degree + 1):
        exponents.extend(_compositions(total, pts.dim))
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
