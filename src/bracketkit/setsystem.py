"""Finite set systems with exact primitive operations.

A ``SetSystem`` is a ground set {0,...,n-1} together with a deduplicated
family of subsets (ranges).  Ranges are bitmasks kept in canonical order:
decreasing cardinality, ties broken by ascending lexicographic order of the
sorted element lists.  Every operation in the package that consumes or emits
a family goes through this canonical form, which is what makes the greedy
constructions and protocol messages reproducible.

Because the order is size-descending, the ranges with lo <= |R| <= hi are
one contiguous slice of it.  ``size_band`` finds that slice by bisection,
and every size filter in the package (``filter_by_size``, the packing's
shallow cap, the cell profile, the heavy, boosting and bootstrap bands of
the constructions) is a call to it.
"""

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .bitsets import compress, expand, indices_from_mask, mask_from_indices
from .errors import InputError, json_index_mask, json_int, parse_json_object
from .rationals import ceil_frac, floor_frac, parse_fraction


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reversed_mask(mask, n):
    """Bit p of the result is bit w-1-p of mask, w = max(n, mask.bit_length())."""
    if n == 0:
        return 0
    width = max(n, mask.bit_length())
    nbytes = (width + 7) // 8
    flipped = mask.to_bytes(nbytes, "little").translate(_REVERSED_BYTE)
    return int.from_bytes(flipped, "big") >> (8 * nbytes - width)


def canonical_key(mask, n):
    """Sort key realizing: size descending, then sorted-element-list lex ascending.

    For equal sizes, ascending lexicographic order of sorted index lists is the
    same as descending numeric order of the bit-reversed mask.
    """
    return (-mask.bit_count(), -_reversed_mask(mask, n))


def canonical_sort(masks, n):
    return sorted(masks, key=lambda m: canonical_key(m, n))


@dataclass(frozen=True)
class SetSystem:
    """Ground set size plus ranges as canonical, deduplicated bitmasks."""

    n: int
    ranges: tuple

    @staticmethod
    def from_masks(n, masks):
        if n < 0:
            raise InputError("ground set size must be nonnegative")
        full = (1 << n) - 1
        dedup = set()
        for mask in masks:
            if mask & ~full:
                raise InputError("range has an element outside the ground set")
            dedup.add(mask)
        return SetSystem(n, tuple(canonical_sort(dedup, n)))

    @staticmethod
    def from_sets(n, sets):
        return SetSystem.from_masks(n, (mask_from_indices(s) for s in sets))

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def range_sets(self):
        """Ranges as sorted index tuples (mainly for json/pretty output)."""
        return [indices_from_mask(m) for m in self.ranges]

    def bool_matrix(self):
        """Ranges as a (num_ranges, n) boolean membership matrix."""
        out = np.zeros((len(self.ranges), self.n), dtype=bool)
        for row, mask in enumerate(self.ranges):
            for i in indices_from_mask(mask):
                out[row, i] = True
        return out

    def to_json(self):
        return json.dumps({"n": self.n, "ranges": [list(s) for s in self.range_sets()]})

    @staticmethod
    def from_json(text):
        return parse_json_object(
            text, "set system JSON",
            lambda data: SetSystem.from_masks(
                json_int(data["n"], "set system JSON: n", 0),
                [json_index_mask(s, "set system JSON") for s in data["ranges"]],
            ),
        )


@dataclass(frozen=True)
class Projection:
    """Result of projecting onto a subset: re-indexed system plus the map back."""

    system: SetSystem
    original_indices: tuple

    def lift_mask(self, mask):
        """Translate a mask over the projected indices back to original indices."""
        return expand([mask], mask_from_indices(self.original_indices))[0]


def project(system, subset):
    """Project the family onto ``subset``: ranges become {R cap subset}, re-indexed.

    ``subset`` is an iterable of element indices (or a bitmask).  The returned
    Projection keeps the re-index map back to original indices.
    """
    if isinstance(subset, int):
        subset_indices = indices_from_mask(subset)
    else:
        subset_indices = tuple(sorted(set(subset)))
    for i in subset_indices:
        if not 0 <= i < system.n:
            raise InputError(f"projection index {i} outside ground set of size {system.n}")
    projected = compress(system.ranges, mask_from_indices(subset_indices))
    return Projection(SetSystem.from_masks(len(subset_indices), projected), subset_indices)


def complement_family(system):
    """Complement every range with respect to the ground set (an involution)."""
    full = system.full_mask
    return SetSystem.from_masks(system.n, (full ^ m for m in system.ranges))


def _neg_size(mask):
    return -mask.bit_count()


def size_band(ranges, lo, hi):
    """The ranges with integer bounds lo <= |R| <= hi, as one slice of
    ``ranges``, which must be in canonical (size-descending) order."""
    return ranges[bisect_left(ranges, -hi, key=_neg_size):bisect_right(ranges, -lo, key=_neg_size)]


def filter_by_size(system, lower=None, upper=None, *, include_lower=True, include_upper=True):
    """Keep ranges whose cardinality lies in the given interval.

    Bounds may be ints or Fractions (or "p/q" strings).  They are rounded
    exactly to the integer band of sizes they admit, which ``size_band``
    slices out.
    """
    lo = parse_fraction(lower, name="lower bound") if lower is not None else Fraction(0)
    hi = parse_fraction(upper, name="upper bound") if upper is not None else Fraction(system.n)
    if lo > Fraction(system.n) or hi > Fraction(system.n) or lo < 0:
        raise InputError(f"size interval [{lo},{hi}] outside [0,{system.n}]")
    if lo > hi:
        raise InputError(f"inverted size interval: {lo} > {hi}")
    lo_int = ceil_frac(lo) if include_lower else floor_frac(lo) + 1
    hi_int = floor_frac(hi) if include_upper else ceil_frac(hi) - 1
    return SetSystem(system.n, size_band(system.ranges, lo_int, hi_int))


@dataclass(frozen=True)
class VcDimension:
    """Exact VC dimension, or a lower bound when the search cap was hit.

    ``value`` is the largest k for which a shattered k-subset was found,
    ``exact`` is False when every k <= cap was shattered (value >= cap holds,
    nothing more is claimed), and ``witness`` is a shattered set of size value.
    """

    value: int
    exact: bool
    witness: tuple


def vc_dimension_exact(system, cap):
    """Exhaustive VC dimension, searching shattered subsets by increasing size.

    Intended for small ground sets; stops at the first size with no shattered
    subset.  If all sizes up to ``cap`` are shattered, returns a >=cap marker
    (``exact=False``) rather than guessing.
    """
    if cap < 0:
        raise InputError("cap must be nonnegative")
    if not system.ranges:
        return VcDimension(-1, True, ())
    matrix = system.bool_matrix().astype(np.uint64)
    best = 0
    witness = ()
    for k in range(1, min(cap, system.n) + 1):
        powers = np.uint64(1) << np.arange(k, dtype=np.uint64)
        target = 1 << k
        found = None
        for subset in combinations(range(system.n), k):
            codes = matrix[:, subset] @ powers
            if np.unique(codes).size == target:
                found = subset
                break
        if found is None:
            return VcDimension(best, True, witness)
        best, witness = k, found
    return VcDimension(best, best == system.n or cap > system.n, witness)


@dataclass(frozen=True)
class SauerShelahReport:
    range_count: int
    binomial_sum: int
    growth_bound: float
    passed: bool


def sauer_shelah_check(system, d0):
    """Compare |family| against sum_{i<=d0} C(n,i) and the (en/d0)^d0 estimate."""
    if d0 < 0:
        raise InputError("d0 must be nonnegative")
    n = system.n
    binom_sum = sum(math.comb(n, i) for i in range(0, min(d0, n) + 1))
    if d0 == 0 or n == 0:
        growth = 1.0
    else:
        growth = (math.e * n / d0) ** d0
    return SauerShelahReport(
        range_count=len(system.ranges),
        binomial_sum=binom_sum,
        growth_bound=growth,
        passed=len(system.ranges) <= binom_sum,
    )


@dataclass(frozen=True)
class CellProfile:
    """Distinct projections of size at most ``at_most`` on a sample of given size."""

    subset_size: int
    at_most: int
    distinct_count: int

    @property
    def psi_hat(self):
        """Empirical shallow-cell ratio distinct_count / subset_size."""
        if self.subset_size == 0:
            return None
        return Fraction(self.distinct_count, self.subset_size)


def shallow_cell_profile(system, samples, caps):
    """CellProfiles for every (sample, cap) pair, row-major over samples then caps."""
    out = []
    for sample in samples:
        proj = project(system, sample).system
        out.extend(CellProfile(proj.n, cap, len(size_band(proj.ranges, 0, cap))) for cap in caps)
    return out
