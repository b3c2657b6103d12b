"""Greedy maximal packings under symmetric-difference separation.

A delta-packing keeps pairwise symmetric differences strictly above delta;
an optional shallow cap k restricts members to ranges of size <= k.  The
greedy scan in canonical order makes packings deterministic, and maximality
gives every in-cap range a nearest neighbour at distance <= delta.  The scan
also hands out groups: each scanned range joins the group of the first
member within delta.  Admission and grouping read the same distances, one
matrix per block of candidates against the members so far and the block;
the block shrinks as members accumulate, so that no matrix exceeds a fixed
cell budget.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bitsets
from .errors import InputError
from .setsystem import SetSystem, size_band

# A block holds at most _BLOCK_ROWS candidates, and fewer once the members
# admitted so far would make its matrix exceed bitsets._BLOCK_CELLS cells.
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class Packing:
    """Members in admission order; ``groups[i]`` holds, in scan order, the
    scanned ranges whose first member within delta is ``members[i]``, so it
    starts with that member and the groups partition the candidates."""

    base: SetSystem
    members: tuple
    groups: tuple
    delta: int
    shallow_cap: object = None


def greedy_delta_packing(system, delta, shallow_cap=None):
    """Scan ranges canonically, admit those farther than delta from all members.

    ``delta`` is an absolute count; admission uses the strict test
    |R1 symdiff R2| > delta.  With ``shallow_cap`` set (a negative cap is
    refused), only ranges of size <= cap are considered.  The result is
    inclusion-maximal by construction.

    The scan takes the candidates a block at a time.  One ``symdiff_counts``
    matrix compares the block with the members admitted before it and with
    the block itself, and a Python pass over its rows admits or groups each
    candidate in order.  The members and groups are those of the
    one-at-a-time scan: every earlier member precedes, in admission order,
    every member admitted within the block, so a candidate's first member
    within delta is its first hit among the earlier members if there is
    one, else its first hit among the block's members admitted before it.
    A row's first hit overall settles the first case, because the
    candidate's own column, at distance 0, comes after every earlier member.
    The block holds at most ``_BLOCK_ROWS`` candidates, and fewer as members
    accumulate, so a matrix stays within ``bitsets._BLOCK_CELLS`` cells
    unless one candidate alone needs more.
    """
    if not 0 <= delta <= system.n:
        raise InputError(f"delta {delta} outside [0, {system.n}]")
    if shallow_cap is not None and shallow_cap < 0:
        raise InputError(f"shallow cap {shallow_cap} is negative")
    candidates = system.ranges if shallow_cap is None else size_band(system.ranges, 0, shallow_cap)
    packed = bitsets.pack_masks(candidates, system.full_mask.bit_length())
    admitted = np.empty_like(packed)
    members = []
    groups = []
    start = 0
    while start < len(candidates):
        earlier = len(members)
        stop = start + max(1, min(_BLOCK_ROWS, bitsets._BLOCK_CELLS // (earlier + _BLOCK_ROWS)))
        block = packed[start:stop]
        admitted[earlier : earlier + len(block)] = block  # until the block's members overwrite it
        near = bitsets.symdiff_counts(block, admitted[: earlier + len(block)]) <= delta
        fresh = []  # (block column, member index) of the members this block admits
        for i, (mask, first, row) in enumerate(zip(candidates[start:stop], near.argmax(axis=1).tolist(),
                                                    near[:, earlier:].tolist())):
            if first >= earlier:
                first = next((member for column, member in fresh if row[column]), None)
            if first is None:
                fresh.append((i, len(members)))
                members.append(mask)
                groups.append([mask])
            else:
                groups[first].append(mask)
        admitted[earlier : len(members)] = block[[column for column, _ in fresh]]
        start = stop
    return Packing(system, tuple(members), tuple(map(tuple, groups)), delta, shallow_cap)


def nearest_neighbor(packing, mask):
    """Member minimizing the symmetric difference to ``mask`` (ties canonically).

    The query must respect the packing's size cap; maximality then guarantees
    the returned distance is <= delta.
    """
    if packing.shallow_cap is not None and mask.bit_count() > packing.shallow_cap:
        raise InputError("query range exceeds the packing's shallow cap")
    if not packing.members:
        raise InputError("packing has no members")
    best = min(packing.members, key=lambda member: (member ^ mask).bit_count())
    return best, (best ^ mask).bit_count()


@dataclass(frozen=True)
class PackingBoundReport:
    member_count: int
    haussler_volume: Fraction
    empirical_constant: float
    shallow_expression: float | None
    shallow_psi_hat: Fraction | None


def packing_bound_report(packing, d0):
    """Packing size next to (n/delta)^d0 and, when capped, the shallow expression.

    The empirical constant is delta/n * |members|^(1/d0); the shallow
    expression evaluates 24*d0*n/delta * psi_hat(4*d0*n/delta, 12*d0*k/delta)
    with psi_hat(m, c) measured as the number of distinct traces of at most c
    elements on the first m elements of the ground set, over m.  Values are
    reported side by side; no inequality with unspecified constants is
    asserted.
    """
    if packing.delta < 1:
        raise InputError("bound report needs delta >= 1")
    if d0 < 1:
        raise InputError("bound report needs d0 >= 1")
    n = packing.base.n
    volume = Fraction(n, packing.delta) ** d0
    count = len(packing.members)
    empirical = float(Fraction(packing.delta, n)) * count ** (1.0 / d0) if n else 0.0
    expression = None
    psi_hat = None
    if packing.shallow_cap is not None:
        sample_size = min(n, max(1, (4 * d0 * n) // packing.delta))
        cell_cap = min(sample_size, max(0, (12 * d0 * packing.shallow_cap) // packing.delta))
        sample = sum(1 << i for i in bitsets.indices_from_mask(packing.base.full_mask)[:sample_size])
        traces = {r & sample for r in packing.base.ranges}
        psi_hat = Fraction(sum(t.bit_count() <= cell_cap for t in traces), sample_size)
        expression = float(Fraction(24 * d0 * n, packing.delta) * psi_hat)
    return PackingBoundReport(count, volume, empirical, expression, psi_hat)
