"""Geometric range enumeration over exact rational point sets.

Halfspace ranges come from one engine that yields sides: for each
hyperplane spanned by d of the points, both (spanning tuple, integer
normal, mask of the points strictly on the normal's side).  Two paths yield
the same sides.  In the plane (d = 2, which also serves 1-D balls through
the paraboloid lift) an angular sweep sorts, around each point, the
directions to all others and reads both sides of every spanning line off
prefix masks with two pointers: O(n^2 log n).  Every other dimension scans
all spanning d-tuples against all points: O(n^(d+1)), with each normal's
entries the signed maximal minors of the tuple's difference rows, from one
exact determinant (``_det``) in every dimension.  The scan is the reference
the sweep is tested against, and both refuse exactly the same inputs (a
repeated point, or d+1 points on one hyperplane).

A side's ranges are its strict mask plus each subset of its tuple
(``_halfspace_masks`` applies that and any side filter in one place): a small
tilt of the side's hyperplane realizes each of them.  The tests build that
tilt as an exact query for every range, and pin that no range is missed
(general position) to an independent brute-force oracle.  All
side-of-hyperplane tests are exact integer arithmetic after clearing
denominators.
"""

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, reduce
from itertools import accumulate, combinations, combinations_with_replacement, islice, product
from operator import or_

from .errors import (
    MAX_BOX_CANDIDATES,
    MAX_DIM,
    MAX_GROUND_SET,
    MAX_POLYTOPE_RANGES,
    MAX_SPANNING_TUPLES,
    DegeneracyError,
    InputError,
    fraction_from_string,
    json_int,
    parse_json_object,
    within_budget,
)
from .setsystem import SetSystem

_SPHERE_DEN = 1 << 12


@dataclass(frozen=True)
class PointSet:
    """n points with exact rational coordinates in dimension d.

    Equality is over (dim, points); the hash of that pair is computed once,
    since the protocol context cache hashes the domain on every call."""

    dim: int
    points: tuple

    @cached_property
    def _hash(self):
        return hash((self.dim, self.points))

    def __hash__(self):
        return self._hash

    @cached_property
    def int_points(self):
        """Per point, (integer coordinates, positive denominator): the point
        is the coordinates over the lcm of its coordinates' denominators."""
        out = []
        for p in self.points:
            den = math.lcm(*(c.denominator for c in p))
            out.append((tuple(int(c * den) for c in p), den))
        return tuple(out)

    @staticmethod
    def from_signed_rows(dim, rows):
        """Rows of Fractions, or of values whose str() ``fraction_from_string``
        parses (signs allowed)."""
        pts = []
        for row in rows:
            vals = []
            for v in row:
                vals.append(v if isinstance(v, Fraction) else fraction_from_string(str(v)))
            if len(vals) != dim:
                raise InputError(f"point has {len(vals)} coordinates, expected {dim}")
            pts.append(tuple(vals))
        return PointSet(dim, tuple(pts))

    @property
    def n(self):
        return len(self.points)

    def to_json(self):
        return json.dumps(
            {"dim": self.dim, "points": [[str(v) for v in p] for p in self.points]}
        )

    @staticmethod
    def from_json(text):
        def parse(data):
            dim = json_int(data["dim"], "point set JSON: dim", 1, MAX_DIM)
            rows = data["points"]  # a string would be read one character per item
            if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
                raise InputError("point set JSON: points must be a list of coordinate lists")
            return PointSet.from_signed_rows(dim, rows)

        return parse_json_object(text, "point set JSON", parse)


def _det(m):
    """Determinant of a square integer matrix (a list of rows), exactly, by
    Bareiss fraction-free elimination: each division by the previous pivot
    is exact.  A zero pivot is swapped with a row below; the empty matrix
    gives 1."""
    m = [list(row) for row in m]
    sign, prev = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        top = m[k]
        pivot = top[k]
        for row in m[k + 1:]:
            lead = row[k]
            for j in range(k + 1, len(m)):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1] if m else 1


def _cofactor_normal(rows, dim):
    """Normal of the hyperplane spanned by difference rows ((dim-1) x dim):
    its j-th entry is det(rows + [e_j]), the signed j-th maximal minor, so
    normal . x = det(rows + [x]) vanishes on every row."""
    return tuple((-1) ** (dim - 1 + j) * _det([row[:j] + row[j + 1:] for row in rows]) for j in range(dim))


def _cleared_difference(q, base):
    (qn, qd), (bn, bd) = q, base
    return tuple(a * bd - b * qd for a, b in zip(qn, bn))


def _halfspace_sides(int_pts, dim):
    """Both sides of every hyperplane spanned by d of the points.

    A side is (spanning tuple, integer normal, mask of the points strictly on
    the normal's side); the tuple's points lie on the hyperplane.  With
    n <= d points no hyperplane is spanned: if they are affinely independent
    (the Gram matrix of their differences is nonsingular), the one side is
    the zero normal's, whose boundary holds every point and gives 2^n ranges.
    A d-tuple's sides give up to 2^(d+1) ranges and its normal costs more as
    d grows, so above d = 4 each tuple counts 2^(d-4) times in the budget.
    """
    n = len(int_pts)
    if n <= dim:
        within_budget(1 << n, MAX_SPANNING_TUPLES, f"boundary-subset count 2^{n} =")
        rows = [_cleared_difference(q, int_pts[0]) for q in int_pts[1:]]
        if not _det([[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]):
            raise DegeneracyError("points are affinely dependent")
        return [(tuple(range(n)), (0,) * dim, 0)]
    weight = max(0, dim - 4)
    within_budget(math.comb(n, dim) << weight, MAX_SPANNING_TUPLES,
                  f"spanning-tuple count C({n}, {dim})" + (f" * 2^{weight}" if weight else "") + " =")
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
    inside and leaves every other point where it is.
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
    return SetSystem.from_masks(pts.n, _halfspace_masks(pts.int_points, pts.dim))


def enumerate_ball_ranges(pts):
    """Distinct subsets cut by closed balls (halfspaces included as limits).

    Implemented on the paraboloid lift (x, |x|^2); only lifted halfspaces whose
    last normal coefficient is <= 0 correspond to balls, so sides with a
    positive last coefficient (complements of balls) are filtered out.
    """
    lifted = [(tuple(v * den for v in num) + (sum(v * v for v in num),), den * den)
              for num, den in pts.int_points]
    masks = _halfspace_masks(lifted, pts.dim + 1, keep=lambda w: w[-1] <= 0)
    return SetSystem.from_masks(pts.n, masks)


def enumerate_box_ranges(pts):
    """Distinct subsets cut by axis-parallel closed boxes.

    On each axis the points of equal coordinate form runs; an interval cuts
    a union of consecutive runs or nothing, and a box intersects one such
    set per axis.  v runs give v(v+1)/2 + 1 sets, and their product over the
    axes is refused above ``MAX_BOX_CANDIDATES`` before any set is built.
    """
    axis_runs = []
    for axis in range(pts.dim):
        runs = {}
        for i, p in enumerate(pts.points):
            runs[p[axis]] = runs.get(p[axis], 0) | 1 << i
        axis_runs.append([runs[v] for v in sorted(runs)])
    candidates = math.prod(len(runs) * (len(runs) + 1) // 2 + 1 for runs in axis_runs)
    within_budget(candidates, MAX_BOX_CANDIDATES, "box candidate count")
    axis_sets = [{0}.union(*(accumulate(runs[lo:], or_) for lo in range(len(runs)))) for runs in axis_runs]
    boxes = reduce(lambda cur, nxt: {a & b for a in cur for b in nxt}, axis_sets)
    return SetSystem.from_masks(pts.n, boxes)


def veronese_lift(pts, degree):
    """Map each point to all non-constant monomials of total degree <= degree.

    Output dimension is C(d+degree, degree) - 1; signs of degree-bounded
    polynomials on the originals become signs of affine functions on the lifts.
    """
    if degree < 1:
        raise InputError("degree must be >= 1")
    exponents = monomial_exponents(pts.dim, degree)
    rows = tuple(tuple(math.prod(c**e for c, e in zip(p, expo)) for expo in exponents) for p in pts.points)
    return PointSet(len(exponents), rows)


def monomial_exponents(dim, degree):
    """Exponent tuples matching the veronese_lift coordinate order: by total
    degree, then lex descending.  combinations_with_replacement yields the
    variable multisets of one degree in that order: where two first differ,
    the earlier one has the smaller variable, so more of it."""
    return [
        tuple(map(combo.count, range(dim)))
        for total in range(1, degree + 1)
        for combo in combinations_with_replacement(range(dim), total)
    ]


def enumerate_polytope_ranges(pts, k):
    """All distinct intersections of at most k halfspace ranges; more than
    ``MAX_POLYTOPE_RANGES`` of them raise ResourceBudgetError."""
    if k < 1:
        raise InputError("k must be >= 1")
    halfspaces = enumerate_halfspace_ranges(pts).ranges
    level = set(halfspaces)
    seen = set(level)
    for _ in range(1, k):
        nxt = set()
        for mask in level:
            for h in halfspaces:
                combined = mask & h
                if combined not in seen:
                    nxt.add(combined)
                    seen.add(combined)
                    within_budget(len(seen), MAX_POLYTOPE_RANGES, "polytope range count")
        if not nxt:
            break
        level = nxt
    return SetSystem.from_masks(pts.n, seen)


def _check_generator_size(d, n):
    if d < 1 or n < 0:
        raise InputError("need d >= 1 and n >= 0")
    within_budget(d, MAX_DIM, "dimension d")
    within_budget(n, MAX_GROUND_SET, "point count n")


def lower_bound_instance(d, n, kind):
    """Deterministic rational instances: sphere, moment-curve or grid points."""
    _check_generator_size(d, n)
    if kind == "moment-curve":
        rows = [tuple(Fraction(t) ** e for e in range(1, d + 1)) for t in range(1, n + 1)]
        return PointSet(d, tuple(rows))
    if kind == "grid":
        # For d = 1 the side is n, which puts point i at coordinate i.
        # ``product`` varies the last coordinate fastest, so each cell is
        # reversed to vary the first.
        side = max(1, math.ceil(n ** (1.0 / d)))
        cells = islice(product(range(side), repeat=d), n)
        return PointSet(d, tuple(tuple(Fraction(c) for c in reversed(cell)) for cell in cells))
    if kind == "sphere":
        if d not in (2, 3):
            raise InputError("sphere instances support d in {2, 3}")
        pts = _circle_points(n) if d == 2 else _sphere_points(n)
        if len(set(pts.points)) != n:
            raise InputError(f"sphere instance with n={n} collides at this approximation scale")
        return pts
    raise InputError(f"unknown instance kind {kind!r}")


def _circle_points(n):
    """n rational points exactly on the unit circle, near equal angular
    spacing; the caller checks that they are distinct."""
    rows = []
    for i in range(n):
        half_angle = math.pi * i / n
        if abs(half_angle - math.pi / 2) < 1e-12:
            rows.append((Fraction(-1), Fraction(0)))
            continue
        t = Fraction(round(math.tan(half_angle) * _SPHERE_DEN), _SPHERE_DEN)
        den = 1 + t * t
        rows.append(((1 - t * t) / den, 2 * t / den))
    return PointSet(2, tuple(rows))


def _sphere_points(n):
    """n rational points exactly on the unit 2-sphere via inverse
    stereographic maps; the caller checks that they are distinct."""
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
    return PointSet(3, tuple(rows))


def random_point_set(d, n, seed):
    """Seeded distinct points of the grid [0, 2^31)^d, which n <= MAX_GROUND_SET
    never exhausts; general position is likely but not guaranteed —
    enumerators raise DegeneracyError when it fails."""
    _check_generator_size(d, n)
    rng = random.Random(seed)
    seen = set()
    rows = []
    while len(rows) < n:
        p = tuple(Fraction(rng.randrange(1 << 31)) for _ in range(d))
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
