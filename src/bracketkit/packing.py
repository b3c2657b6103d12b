"""Greedy maximal packings under symmetric-difference separation.

A delta-packing keeps pairwise symmetric differences strictly above delta;
an optional shallow cap k restricts members to ranges of size <= k.  The
greedy scan in canonical order makes packings deterministic, and maximality
gives every in-cap range a nearest neighbour at distance <= delta.
"""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bitsets
from .errors import InputError
from .setsystem import SetSystem, shallow_cell_profile, size_band


@dataclass(frozen=True)
class Packing:
    base: SetSystem
    members: tuple
    delta: int
    shallow_cap: object = None


def greedy_delta_packing(system, delta, shallow_cap=None):
    """Scan ranges canonically, admit those farther than delta from all members.

    ``delta`` is an absolute count; admission uses the strict test
    |R1 symdiff R2| > delta.  With ``shallow_cap`` set, only ranges of size
    <= cap are considered.  The result is inclusion-maximal by construction.
    """
    if not 0 <= delta <= system.n:
        raise InputError(f"delta {delta} outside [0, {system.n}]")
    candidates = system.ranges if shallow_cap is None else size_band(system.ranges, 0, shallow_cap)
    packed = bitsets.pack_masks(candidates, system.n)
    admitted = np.empty_like(packed)
    members = []
    for mask, row in zip(candidates, packed):
        if members and int(bitsets.symdiff_counts(row, admitted[: len(members)]).min()) <= delta:
            continue
        admitted[len(members)] = row
        members.append(mask)
    return Packing(system, tuple(members), delta, shallow_cap)


def nearest_neighbor(packing, mask):
    """Member minimizing the symmetric difference to ``mask`` (ties canonically).

    The query must respect the packing's size cap; maximality then guarantees
    the returned distance is <= delta.
    """
    if packing.shallow_cap is not None and mask.bit_count() > packing.shallow_cap:
        raise InputError("query range exceeds the packing's shallow cap")
    if not packing.members:
        raise InputError("packing has no members")
    best = None
    best_dist = None
    for member in packing.members:
        dist = (member ^ mask).bit_count()
        if best_dist is None or dist < best_dist:
            best, best_dist = member, dist
    return best, best_dist


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
    with psi_hat measured on a canonical prefix sample.  Values are reported
    side by side; no inequality with unspecified constants is asserted.
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
        profile = shallow_cell_profile(
            packing.base, [tuple(range(sample_size))], [cell_cap]
        )[0]
        psi_hat = profile.psi_hat
        expression = float(Fraction(24 * d0 * n, packing.delta) * (psi_hat or 0))
    return PackingBoundReport(count, volume, empirical, expression, psi_hat)
