"""Geometric range enumeration over exact rational point sets.

One path per input class.  Halfspaces on n >= 3 planar points take one
numpy kernel, ``_planar_kernel``: it sorts around each point the directions
to all others and reads the points strictly left of every directed line
through two of them off packed prefix masks, O(n^2 log n).  In general position the ranges
are the empty set, all points, and one set per ordered pair (i, j), the
points left of i -> j plus i (``_planar_halfspace_system`` has the proof),
which ``canonical_sort`` orders with no set and no boundary variants.
Halfspaces in every other dimension, and balls in d >= 2 through the
paraboloid lift to d + 1 >= 3, take one engine that yields sides: for each
hyperplane spanned by d of the points, both (spanning tuple, integer normal,
mask of the points strictly on the normal's side).  It scans all spanning
d-tuples against all points, O(n^(d+1)), with each normal's entries the
signed maximal minors of the tuple's difference rows, from one exact
determinant (``_det``) in every dimension.  The scan is the reference the
kernel is tested against, and both refuse exactly the same inputs (a
repeated point, or d+1 points on one hyperplane).  A 1-D ball is an
interval, so 1-D balls take the box enumerator's runs of equal coordinates
and refuse nothing.

In the kernel floats propose and integers decide: a float ``arctan2``
argsort proposes each point's angular order and ``searchsorted`` its
left-set pointers, exact integer cross products certify both, and what
fails is redone exactly.  It works on blocks of base points whose packed
masks stay within ``bitsets._BLOCK_CELLS`` cells.

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

import numpy as np

from . import bitsets
from .bitsets import unpack_masks
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
from .setsystem import SetSystem, canonical_sort

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
        is the coordinates over the lcm of its coordinates' denominators,
        each c * den as the exact integer c.numerator * (den // c.denominator)."""
        out = []
        for p in self.points:
            den = math.lcm(*(c.denominator for c in p))
            out.append((tuple(c.numerator * (den // c.denominator) for c in p), den))
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


def _check_spanning_budget(n, dim):
    """A d-tuple's sides give up to 2^(d+1) ranges and its normal costs more
    as d grows, so above d = 4 each tuple counts 2^(d-4) times."""
    weight = max(0, dim - 4)
    within_budget(math.comb(n, dim) << weight, MAX_SPANNING_TUPLES,
                  f"spanning-tuple count C({n}, {dim})" + (f" * 2^{weight}" if weight else "") + " =")


def _halfspace_sides(int_pts, dim):
    """Both sides of every hyperplane spanned by d of the points.

    A side is (spanning tuple, integer normal, mask of the points strictly on
    the normal's side); the tuple's points lie on the hyperplane.  With
    n <= d points no hyperplane is spanned: if they are affinely independent
    (the Gram matrix of their differences is nonsingular), the one side is
    the zero normal's, whose boundary holds every point and gives 2^n ranges.
    Otherwise the sides come from ``_spanning_tuple_sides`` in every
    dimension; planar halfspace systems of n >= 3 points do not come here.
    """
    n = len(int_pts)
    if n <= dim:
        within_budget(1 << n, MAX_SPANNING_TUPLES, f"boundary-subset count 2^{n} =")
        rows = [_cleared_difference(q, int_pts[0]) for q in int_pts[1:]]
        if not _det([[sum(x * y for x, y in zip(a, b)) for b in rows] for a in rows]):
            raise DegeneracyError("points are affinely dependent")
        return [(tuple(range(n)), (0,) * dim, 0)]
    _check_spanning_budget(n, dim)
    return _spanning_tuple_sides(int_pts, dim)


def _boundary_masks(side, tup):
    """``side | B`` for every subset B of the tuple; bit j of the list index
    says whether tup[j] is in B."""
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
# Direction coordinates below 2^31 in magnitude make every cross product of
# two of them exact in int64; cleared coordinates times denominators below
# 2^62 make the directions themselves exact there.
_INT64_DIRECTION = 1 << 31
_INT64_PRODUCT = 1 << 62
_TWO_PI = 2 * math.pi


def _angular_order(xs, ys, lower):
    """Positions of the directions (xs[k], ys[k]) in exact counterclockwise
    order from angle 0: the upper closed half-plane, then the lower one."""
    return sorted(range(len(xs)), key=lambda k: (lower[k], _BY_ANGLE((xs[k], ys[k]))))


def _float_angles(dx, dy):
    """Float angles in [0, 2pi] of integer directions, as a proposal only.
    Python-int directions are first shifted right by one common amount, so
    that every float conversion stays finite."""
    if dx.dtype == object:
        top = max(abs(int(v)) for v in (dx.min(), dx.max(), dy.min(), dy.max()))
        shift = max(0, top.bit_length() - 1000)
        dx, dy = (dx >> shift).astype(float), (dy >> shift).astype(float)
    angles = np.arctan2(dy, dx)
    angles[angles < 0] += _TWO_PI
    return angles


def _planar_kernel(int_pts):
    """Left sets of every directed line through two of n >= 3 planar points.

    Yields per block of base points ``(lo, left)``: row r is base point
    i = lo + r, and ``left[r, k]`` is the packed mask (``bitsets.pack_masks``
    words) of the points strictly left of the directed line from i to the
    k-th other point in exact angular order around i.  A repeated point or
    three collinear points raise DegeneracyError.

    Floats propose, integers decide.  The directions from i are exact
    integers: int64 when every coordinate is below 2^31 in magnitude, so
    that every cross product of two is exact, and Python ints in object
    arrays otherwise.  An ``arctan2`` argsort proposes each row's order, and
    it stands if every pair of neighbours is certified: the lower half-plane
    (y < 0, or y = 0 and x < 0) after the upper, or within one half-plane
    a positive cross product.  A row that fails is sorted again with the
    exact comparator ``_BY_ANGLE``; a zero cross product left between
    neighbours of one half-plane is two points in one direction from i.
    The directions strictly left of the one at position k are the next ones
    cyclically up to a pointer t, which ``searchsorted`` proposes from the
    float angles.  It stands if the cross product with the direction at
    t - 1 is positive (or t - 1 = k) and the one at t negative (or
    t = k + n - 1); else it is moved by exact steps, and a zero there is the
    opposite direction, a collinear triple.  Of any collinear triple, the
    other two points lie in one direction from an end point, so the
    neighbour test alone finds every one.

    With the prefix XOR P of the order's packed bits, that left set is
    P[t] ^ P[k+1], and P[t-m] ^ P[k+1] ^ P[m] when t passes the end of the
    m = n - 1 directions.  A block takes as many base points as keep
    P's n * words cells per point within ``bitsets._BLOCK_CELLS``, and at
    least one.
    """
    n = len(int_pts)
    m = n - 1
    words = max(1, (n + 63) // 64)
    xs, ys, ds = ([p[0][0] for p in int_pts], [p[0][1] for p in int_pts], [p[1] for p in int_pts])
    kind = np.int64 if max(map(abs, xs + ys)) * max(ds) < _INT64_PRODUCT else object
    px, py, pd = (np.array(v, dtype=kind) for v in (xs, ys, ds))
    step = max(1, bitsets._BLOCK_CELLS // (n * words))
    cols = np.arange(m)
    for lo in range(0, n, step):
        base = np.arange(lo, min(n, lo + step))
        rows = np.arange(len(base))
        others = cols + (cols >= base[:, None])
        dx = px[others] * pd[base, None] - px[base, None] * pd[others]
        dy = py[others] * pd[base, None] - py[base, None] * pd[others]
        if kind is not object and max(np.abs(dx).max(), np.abs(dy).max()) >= _INT64_DIRECTION:
            dx, dy = dx.astype(object), dy.astype(object)
        repeated = np.argwhere((dx == 0) & (dy == 0))
        if len(repeated):
            r, k = repeated[0]
            raise DegeneracyError(f"points {base[r]} and {others[r, k]} coincide")
        lower = (dy < 0) | ((dy == 0) & (dx < 0))
        angles = _float_angles(dx, dy)
        order = np.argsort(angles, axis=1, kind="stable")
        sx, sy, sh = (np.take_along_axis(a, order, 1) for a in (dx, dy, lower))
        cross = sx[:, :-1] * sy[:, 1:] - sy[:, :-1] * sx[:, 1:]
        unsure = (sh[:, :-1] > sh[:, 1:]) | ((sh[:, :-1] == sh[:, 1:]) & (cross <= 0))
        resorted = np.flatnonzero(unsure.any(axis=1))
        for r in resorted:
            rx, ry, low = dx[r].tolist(), dy[r].tolist(), lower[r].tolist()
            order[r] = row = _angular_order(rx, ry, low)
            for a, b in zip(row, row[1:]):
                if low[a] == low[b] and rx[a] * ry[b] == ry[a] * rx[b]:
                    raise DegeneracyError(f"points {base[r]}, {others[r, a]} and {others[r, b]} are collinear")
        if len(resorted):
            sx, sy = (np.take_along_axis(a, order, 1) for a in (dx, dy))
        del cross, unsure, lower, sh
        sorted_angles = np.take_along_axis(angles, order, 1)
        target = sorted_angles + math.pi
        wrapped = target >= _TWO_PI
        target[wrapped] -= _TWO_PI
        # Row r's angles lie in [8r, 8r + 7), so one flat search stays in its row.
        shift = rows[:, None] * 8.0
        t = np.searchsorted((sorted_angles + shift).ravel(), (target + shift).ravel()).reshape(order.shape)
        t = np.clip(t + m * wrapped - rows[:, None] * m, cols + 1, cols + m)
        del angles, sorted_angles, target, wrapped, shift

        def cross_at(pos):
            pos = pos % m
            return sx * np.take_along_axis(sy, pos, 1) - sy * np.take_along_axis(sx, pos, 1)

        certified = ((t - 1 == cols) | (cross_at(t - 1) > 0)) & ((t == cols + m) | (cross_at(t) < 0))
        for r, k in np.argwhere(~certified):
            x, y = int(sx[r, k]), int(sy[r, k])
            ex, ey = sx[r].tolist(), sy[r].tolist()
            p = int(t[r, k])
            while p - 1 > k and x * ey[(p - 1) % m] - y * ex[(p - 1) % m] <= 0:
                p -= 1
            while p < k + m and x * ey[p % m] - y * ex[p % m] > 0:
                p += 1
            if p < k + m and x * ey[p % m] - y * ex[p % m] == 0:
                a, b = others[r, order[r, [k, p % m]]]
                raise DegeneracyError(f"points {a}, {base[r]} and {b} are collinear")
            t[r, k] = p
        ordered = np.take_along_axis(others, order, 1)
        del dx, dy, sx, sy, certified, others, order
        prefix = np.zeros((len(base), n, words), np.uint64)
        prefix[rows[:, None], cols + 1, ordered >> 6] = np.uint64(1) << (ordered & 63).astype(np.uint64)
        np.bitwise_xor.accumulate(prefix, axis=1, out=prefix)
        wrap = t > m
        left = np.take_along_axis(prefix, (t - m * wrap)[:, :, None], 1)
        left ^= prefix[:, 1:]
        r, k = np.nonzero(wrap)
        left[r, k] ^= prefix[r, m]
        del prefix, t, wrap, ordered
        yield lo, left


def _planar_halfspace_system(int_pts):
    """Halfspace ranges of n >= 3 planar points by the ordered-pair rule.

    Let L(i -> j) be the points strictly left of the directed line from
    point i to point j.  In general position, which ``_planar_kernel``
    certifies, the ranges are exactly the empty set, P and the n(n-1) sets
    L(i -> j) | {i}, one per ordered pair and all distinct (Cover 1965:
    n(n-1) + 2 in all).  Proof: a slight counterclockwise turn of the line
    i -> j about the midpoint of i and j puts i on its left and j on its
    right, and moves no other point across, so each such set is a range.
    Conversely, for a range R other than the empty set and P, the
    directions of the lines with R weakly on their left and P \\ R weakly on
    their right form a closed arc.  The line at either end touches both
    hulls, in one point each since no three points are collinear: these are
    the two inner common tangents of R and P \\ R.  At the clockwise end,
    the point j of P \\ R lies ahead of the point i of R, since otherwise a
    slight clockwise turn about their midpoint would still separate; at the
    counterclockwise end it lies behind.  So exactly one of the two
    tangents has R \\ {i} on its left, as L(i -> j), and R = L(i -> j) | {i}
    for exactly one ordered pair.

    Each block's sets become Python ints as soon as the kernel yields it,
    and one ``canonical_sort`` orders them: the system is built without a
    set, and holds no packed array past its block.
    """
    n = len(int_pts)
    pairs = []
    for lo, left in _planar_kernel(int_pts):
        base = np.arange(lo, lo + len(left))
        left[base - lo, :, base >> 6] |= (np.uint64(1) << (base & 63).astype(np.uint64))[:, None]
        pairs += unpack_masks(left.reshape(-1, left.shape[2]))
    return SetSystem(n, ((1 << n) - 1, *canonical_sort(pairs), 0))


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
    """All distinct subsets cut from the points by halfspaces, incl. empty and
    full.  In the plane, n >= 3 points take the ordered-pair rule of
    ``_planar_halfspace_system``, in canonical order as built."""
    if pts.dim == 2 and pts.n > 2:
        _check_spanning_budget(pts.n, 2)
        return _planar_halfspace_system(pts.int_points)
    return SetSystem.from_masks(pts.n, _halfspace_masks(pts.int_points, pts.dim))


def enumerate_ball_ranges(pts):
    """Distinct subsets cut by closed balls (halfspaces included as limits).

    On a line these are the box ranges: a closed ball is a closed interval
    and a halfspace limit a half-line, while every interval of the sorted
    coordinates is some ball, and so is the empty set.  So the ranges are
    the empty set and the unions of consecutive runs of equal coordinates,
    which ``enumerate_box_ranges`` builds, repeated coordinates included.

    In d >= 2 they are found on the paraboloid lift (x, |x|^2); only lifted
    halfspaces whose last normal coefficient is <= 0 correspond to balls, so
    sides with a positive last coefficient (complements of balls) are
    filtered out.
    """
    if pts.dim == 1:
        return enumerate_box_ranges(pts)
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
