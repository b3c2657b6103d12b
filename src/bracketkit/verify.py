"""Brute-force verifiers for Mnet/container/bracket families, plus the
packing-based container lower bound.

These are the trust anchor: every public construction re-verifies the
family it returns here.  A verifier takes the family alone and checks it
against the one set system the family carries, ``family.base``.  Witness
maps attached by constructions are used only as hints: a verifier looks up
the hint by range mask, ignores it unless it is one of the family's sets,
re-checks it, and scans the size band whenever it fails, so a wrong hint
can never turn an invalid family valid.  The hint-then-scan finders
``find_piece`` and ``find_cover`` hold the one test per definition; the
constructions call them too, with no sets to scan, to check the witness
they just built for a range.

The size band is the sizes a serving set can have; each verifier call
groups the family's sets by size once, and a range's band is walked only
after its hint fails.  A report is the verdict, the number of ranges
checked and the first failing range with its reason; none of these depends
on the order of the family's sets.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .families import BracketFamily, ContainerFamily, MnetFamily
from .packing import greedy_delta_packing


@dataclass(frozen=True)
class VerifyReport:
    passed: bool
    checked: int
    counterexample: object


def _size_bands(sets):
    """``band(lo, hi)``: a lazy iterator over the sets whose size lies in
    [lo, hi], largest size first (smallest first if ``ascending``), and
    within a size in the order of ``sets``."""
    groups = {}
    for s in sets:
        groups.setdefault(s.bit_count(), []).append(s)
    top = max(groups, default=-1)

    def band(lo, hi, ascending=False):
        sizes = range(max(lo, 0), min(hi, top) + 1)
        for size in sizes if ascending else reversed(sizes):
            yield from groups.get(size, ())

    return band


def find_piece(pieces, hint, mask, lam):
    """The piece inside ``mask`` of size >= lam*|mask|: the hinted set if it
    serves, else the first of ``pieces`` that does; None if none does.  The
    caller vouches that a hint is a set of the family and that ``pieces``
    holds every set of it that can serve."""
    need = lam.numerator * mask.bit_count()
    den = lam.denominator
    if hint is not None and (hint & mask) == hint and hint.bit_count() * den >= need:
        return hint
    for piece in pieces:
        if (piece & mask) == piece and piece.bit_count() * den >= need:
            return piece
    return None


def find_cover(covers, hint, mask, slack_cap):
    """The cover containing ``mask`` with at most ``slack_cap`` extra
    elements: the hinted set if it serves, else the first of ``covers`` that
    does; None if none does.  The caller vouches that a hint is a set of the
    family and that ``covers`` holds every set of it that can serve."""
    if hint is not None and (mask & hint) == mask and (hint & ~mask).bit_count() <= slack_cap:
        return hint
    for cover in covers:
        if (mask & cover) == mask and (cover & ~mask).bit_count() <= slack_cap:
            return cover
    return None


def verify_mnet(family):
    """Check: every range with |R| >= eps*n contains a piece of size >= lam*|R|.

    A range whose hint fails scans the pieces of sizes |R| down to
    ceil(lam*|R|).
    """
    heavy_at = math.ceil(family.eps * family.base.n)
    lam = Fraction(family.lam)
    band = _size_bands(family.pieces)
    members = set(family.pieces)
    witness = family.witness or {}
    checked = 0
    for mask in family.base.ranges:
        size = mask.bit_count()
        if size < heavy_at:
            continue
        checked += 1
        hint = witness.get(mask)
        found = find_piece((), hint, mask, lam) if hint in members else None
        if found is None:
            need = -(-lam.numerator * size // lam.denominator)
            found = find_piece(band(need, size), None, mask, lam)
        if found is None:
            return VerifyReport(False, checked, (mask, f"no piece of size >= {lam}*{size} inside range"))
    return VerifyReport(True, checked, None)


def verify_container(family):
    """Check: every range F has a cover C with F subset of C and |C \\ F| <= eps*n.

    A range whose hint fails scans the covers of sizes |F| + floor(eps*n)
    down to |F|.
    """
    slack_cap = math.floor(family.eps * family.base.n)
    band = _size_bands(family.covers)
    members = set(family.covers)
    witness = family.witness or {}
    checked = 0
    for mask in family.base.ranges:
        checked += 1
        hint = witness.get(mask)
        found = find_cover((), hint, mask, slack_cap) if hint in members else None
        if found is None:
            size = mask.bit_count()
            found = find_cover(band(size, size + slack_cap), None, mask, slack_cap)
        if found is None:
            return VerifyReport(False, checked, (mask, f"no cover within slack {slack_cap}"))
    return VerifyReport(True, checked, None)


def verify_bracket(family):
    """Check: every range F has sets B-, B+ with B- <= F <= B+, |B+ \\ B-| <= eps*n.

    For B- <= F <= B+ the slack |B+ \\ B-| is just |B+| - |B-|, so F has a
    pair iff a largest set inside F and a smallest set containing F form
    one.  The hinted pair is tried first.  The fallback asks ``find_piece``
    (at lam 0) for the first set inside F in sizes |F| down to
    |F| - floor(eps*n), and ``find_cover`` for the first set containing F in
    sizes |F| up to |F| + floor(eps*n): a largest and a smallest one, in any
    order of ``family.sets``, so a ``BracketFamily`` can be built directly.
    """
    slack_cap = math.floor(family.eps * family.base.n)
    band = _size_bands(family.sets)
    members = set(family.sets)
    pairing = family.pairing or {}
    checked = 0
    for mask in family.base.ranges:
        checked += 1
        lo, hi = pairing.get(mask, (None, None))
        if not (lo in members and hi in members and (lo & mask) == lo and (mask & hi) == mask
                and hi.bit_count() - lo.bit_count() <= slack_cap):
            size = mask.bit_count()
            lo = find_piece(band(size - slack_cap, size), None, mask, 0)
            hi = find_cover(band(size, size + slack_cap, ascending=True), None, mask, slack_cap)
            if lo is None or hi is None or hi.bit_count() - lo.bit_count() > slack_cap:
                return VerifyReport(False, checked, (mask, f"no bracket pair within slack {slack_cap}"))
    return VerifyReport(True, checked, None)


def verify_family(family):
    """Run the verifier for the family's type."""
    if isinstance(family, MnetFamily):
        return verify_mnet(family)
    if isinstance(family, ContainerFamily):
        return verify_container(family)
    if isinstance(family, BracketFamily):
        return verify_bracket(family)
    raise InputError(f"unknown family type {type(family).__name__}")


def container_lower_bound(system, eps):
    """Size of a greedy maximal packing at threshold 2*eps*n.

    Two ranges sharing a cover under slack eps*n differ by at most 2*eps*n
    elements, so members of a packing with pairwise symmetric difference
    strictly above 2*eps*n occupy distinct covers: the packing size lower
    bounds the size of any family accepted by verify_container at eps.
    """
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0,1), got {eps}")
    threshold = min(system.n, math.floor(2 * eps * system.n))
    packing = greedy_delta_packing(system, threshold)
    return len(packing.members)
