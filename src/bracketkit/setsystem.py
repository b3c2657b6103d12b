"""Finite set systems with exact primitive operations.

A ``SetSystem`` is a ground set {0,...,n-1} together with a deduplicated
family of subsets (ranges).  Ranges are bitmasks kept in canonical order:
decreasing cardinality, ties broken by ascending lexicographic order of the
sorted element lists.  Every operation in the package that consumes or emits
a family goes through this canonical form, which is what makes the greedy
constructions and protocol messages reproducible.

Because the order is size-descending, the ranges with lo <= |R| <= hi are
one contiguous slice of it.  ``size_band`` finds that slice by bisection,
and every size filter outside the verifiers (``filter_by_size``, the
packing's shallow cap and bound report, and every size split of the
constructions) is a call to it.

``canonical_sort`` makes the order by keys that Python's sort compares in C:
byte strings that rank masks of equal size lex, then a stable size pass.
``canonical_order`` makes it on ``pack_masks`` rows, from the same keys,
and ``canonical_rows`` keeps the distinct rows in that order.
"""

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bitsets import bit_matrix, indices_from_mask
from .errors import (
    MAX_GROUND_SET,
    MAX_JSON_INDICES,
    InputError,
    json_index_mask,
    json_int,
    parse_json_object,
    within_budget,
)


_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def canonical_sort(masks):
    """The masks as a list in canonical order.  The keys have equal length,
    the bytes of the widest mask, so they compare from the first byte, which
    holds bits 0-7, and within a byte ``_REVERSED_BYTE`` puts the lower bit
    first: the larger key holds the lowest element where two masks differ,
    which for equal sizes is lex ascending of the sorted element lists.
    ``reverse=True`` keeps ties stable, so the size pass keeps that order
    inside each size."""
    out = list(masks)
    width = (max(map(int.bit_length, out), default=0) + 7) // 8
    out.sort(key=lambda m: m.to_bytes(width, "little").translate(_REVERSED_BYTE), reverse=True)
    out.sort(key=int.bit_count, reverse=True)
    return out


_REVERSED_BYTE_ARRAY = np.frombuffer(_REVERSED_BYTE, np.uint8)


def canonical_order(packed):
    """The permutation that puts distinct ``pack_masks`` rows in canonical
    order, as ``canonical_sort`` would put their masks, from one
    ``np.lexsort``.  Reversing the bits of a little-endian word through
    ``_REVERSED_BYTE`` and reading it big-endian gives the integer whose
    bytes are ``canonical_sort``'s key bytes for that word, so comparing
    the reversed words, word 0 first and descending, compares the keys.
    The size comes before them, descending too.  The order is total on
    distinct rows, so it needs no stable tie-break."""
    reversed_words = np.take(_REVERSED_BYTE_ARRAY, packed.view(np.uint8)).view(">u8")
    sizes = np.bitwise_count(packed).sum(axis=1, dtype=np.int64)
    return np.lexsort((*~reversed_words.T[::-1], -sizes))


def canonical_rows(packed):
    """The distinct ``pack_masks`` rows of ``packed`` in canonical order, as
    ``canonical_sort`` of their set would put their masks.  Equal rows have
    equal sort keys, so ``canonical_order`` puts them next to each other,
    and a mask keeps the first row of each run."""
    rows = packed[canonical_order(packed)]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[first]


@dataclass(frozen=True)
class SetSystem:
    """Ground set {0,...,n-1} plus ranges as canonical, deduplicated
    bitmasks.  ``from_masks`` refuses a range with an element outside the
    ground set, a negative mask included."""

    n: int
    ranges: tuple

    @staticmethod
    def from_masks(n, masks):
        if n < 0:
            raise InputError("ground set size must be nonnegative")
        dedup = set(masks)
        if any(mask >> n for mask in dedup):
            raise InputError("range has an element outside the ground set")
        return SetSystem(n, tuple(canonical_sort(dedup)))

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def to_json(self):
        return json.dumps({"n": self.n, "ranges": index_lists(self.ranges, "set system JSON")})

    @staticmethod
    def from_json(text):
        return parse_json_object(
            text, "set system JSON",
            lambda data: SetSystem.from_masks(
                json_int(data["n"], "set system JSON: n", 0, MAX_GROUND_SET),
                [json_index_mask(s, "set system JSON") for s in data["ranges"]],
            ),
        )


def index_lists(masks, what):
    """The masks as lists of element indices, for ``what``, a JSON output.
    More than ``MAX_JSON_INDICES`` indices in all raise ResourceBudgetError
    before any list is built."""
    within_budget(sum(map(int.bit_count, masks)), MAX_JSON_INDICES, f"element indices in {what}")
    return [list(indices_from_mask(m)) for m in masks]


def project(system, mask):
    """Project the family onto the elements of ``mask``: ranges become
    {R cap mask}, re-indexed to the ground set {0,...,|mask|-1} in ascending
    order.  A mask that is not an int, or has an element outside the
    ground set, is refused."""
    if json_int(mask, "projection mask") & system.full_mask != mask:
        raise InputError(f"projection mask {mask:#x} outside ground set of size {system.n}")
    positions = indices_from_mask(mask)
    local = []
    for r in system.ranges:
        bits = 0
        for j, i in enumerate(positions):
            if r >> i & 1:
                bits |= 1 << j
        local.append(bits)
    return SetSystem.from_masks(len(positions), local)


def complement_family(system):
    """Complement every range with respect to the ground set (an involution).

    The complements, read in reverse, are already canonical, so no sort is
    needed.  Complementing maps size s to n - s, so the sizes come out
    ascending in the given order, and descending in reverse.  Of two ranges
    of one size, the one holding the lowest element where they differ comes
    first; complementing moves that element to the other range, so the
    complements of one size come out in exactly the opposite order.
    Distinct ranges have distinct complements."""
    full = system.full_mask
    return SetSystem(system.n, tuple(full ^ m for m in reversed(system.ranges)))


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
    subset.  If all sizes up to ``cap``, an int >= 0, are shattered, returns
    a >=cap marker (``exact=False``) rather than guessing.
    """
    json_int(cap, "cap", 0)
    if not system.ranges:
        return VcDimension(-1, True, ())
    matrix = bit_matrix(system.ranges, system.n).astype(np.uint64)
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
    """Compare |family| against the Sauer-Shelah bound sum_{i<=d0} C(n,i),
    for an int d0 >= 0."""
    json_int(d0, "d0", 0)
    n = system.n
    binom_sum = sum(math.comb(n, i) for i in range(0, min(d0, n) + 1))
    return SauerShelahReport(
        range_count=len(system.ranges),
        binomial_sum=binom_sum,
        passed=len(system.ranges) <= binom_sum,
    )
