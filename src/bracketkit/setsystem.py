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
shallow cap and bound report, the heavy, boosting and bootstrap bands of
the constructions) is a call to it.
"""

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bitsets import compress, indices_from_mask, pack_masks
from .errors import MAX_GROUND_SET, InputError, json_index_mask, json_int, parse_json_object


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
        dedup = set(masks)
        if any(mask >> n for mask in dedup):
            raise InputError("range has an element outside the ground set")
        return SetSystem(n, tuple(canonical_sort(dedup, n)))

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def bool_matrix(self):
        """Ranges as a (num_ranges, n) boolean membership matrix."""
        packed = pack_masks(self.ranges, self.n).view(np.uint8)
        return np.unpackbits(packed, axis=1, count=self.n, bitorder="little").astype(bool)

    def to_json(self):
        return json.dumps({"n": self.n, "ranges": [list(indices_from_mask(m)) for m in self.ranges]})

    @staticmethod
    def from_json(text):
        return parse_json_object(
            text, "set system JSON",
            lambda data: SetSystem.from_masks(
                json_int(data["n"], "set system JSON: n", 0, MAX_GROUND_SET),
                [json_index_mask(s, "set system JSON") for s in data["ranges"]],
            ),
        )


def project(system, mask):
    """Project the family onto the elements of ``mask``: ranges become
    {R cap mask}, re-indexed to the ground set {0,...,|mask|-1} in ascending
    order.  A negative mask, or one with a bit at or above n, is refused."""
    if mask < 0 or mask >> system.n:
        raise InputError(f"projection mask {mask:#x} outside ground set of size {system.n}")
    return SetSystem.from_masks(mask.bit_count(), compress(system.ranges, mask))


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


def filter_by_size(system, upper):
    """The ranges of size at most ``upper``, an int or Fraction in [0, n],
    rounded exactly down to the integer band that ``size_band`` slices out."""
    if not 0 <= upper <= system.n:
        raise InputError(f"size bound {upper} outside [0,{system.n}]")
    return SetSystem(system.n, size_band(system.ranges, 0, math.floor(upper)))


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
    passed: bool


def sauer_shelah_check(system, d0):
    """Compare |family| against the Sauer-Shelah bound sum_{i<=d0} C(n,i)."""
    if d0 < 0:
        raise InputError("d0 must be nonnegative")
    n = system.n
    binom_sum = sum(math.comb(n, i) for i in range(0, min(d0, n) + 1))
    return SauerShelahReport(
        range_count=len(system.ranges),
        binomial_sum=binom_sum,
        passed=len(system.ranges) <= binom_sum,
    )
