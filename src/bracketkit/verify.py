"""Brute-force verifiers for Mnet/container/bracket families, plus the
packing-based container lower bound.

These are the trust anchor: every construction re-verifies its output here
before returning it.  Witness maps attached by constructions are used only
as hints: a verifier looks up the hint by range mask, ignores it unless it
is one of the family's sets, re-checks it, and runs a full scan whenever it
fails, so a wrong hint can never turn an invalid family valid.  The
hint-then-scan finders ``find_piece`` and ``find_cover`` hold the one test
per definition; the constructions use them too, to fetch the set that
serves a range of a family they just built.
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
    witness_stats: dict

    def __bool__(self):
        return self.passed


def _stats(values):
    if not values:
        return {"count": 0}
    floats = [float(v) for v in values]
    return {
        "count": len(floats),
        "min": min(floats),
        "max": max(floats),
        "mean": sum(floats) / len(floats),
    }


def find_piece(pieces, hint, mask, lam):
    """The piece inside ``mask`` of size >= lam*|mask|: the hinted set if it
    serves, else the first of ``pieces`` that does; None if none does.  The
    caller vouches that a hint is one of ``pieces``."""
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
    does; None if none does.  The caller vouches that a hint is one of
    ``covers``."""
    if hint is not None and (mask & hint) == mask and (hint & ~mask).bit_count() <= slack_cap:
        return hint
    for cover in covers:
        if (mask & cover) == mask and (cover & ~mask).bit_count() <= slack_cap:
            return cover
    return None


def verify_mnet(system, family):
    """Check: every range with |R| >= eps*n contains a piece of size >= lam*|R|."""
    heavy_at = math.ceil(family.eps * system.n)
    lam = Fraction(family.lam)
    pieces = family.pieces
    members = set(pieces)
    witness = family.witness or {}
    ratios = []
    checked = 0
    for mask in system.ranges:
        size = mask.bit_count()
        if size < heavy_at:
            continue
        checked += 1
        hint = witness.get(mask)
        found = find_piece(pieces, hint if hint in members else None, mask, lam)
        if found is None:
            return VerifyReport(
                False,
                checked,
                (mask, f"no piece of size >= {lam}*{size} inside range"),
                _stats(ratios),
            )
        if size:
            ratios.append(found.bit_count() / size)
    return VerifyReport(True, checked, None, _stats(ratios))


def verify_container(system, family):
    """Check: every range F has a cover C with F subset of C and |C \\ F| <= eps*n."""
    slack_cap = math.floor(family.eps * system.n)
    covers = family.covers
    members = set(covers)
    witness = family.witness or {}
    slacks = []
    checked = 0
    for mask in system.ranges:
        checked += 1
        hint = witness.get(mask)
        found = find_cover(covers, hint if hint in members else None, mask, slack_cap)
        if found is None:
            return VerifyReport(
                False,
                checked,
                (mask, f"no cover within slack {slack_cap}"),
                _stats(slacks),
            )
        slacks.append((found & ~mask).bit_count())
    return VerifyReport(True, checked, None, _stats(slacks))


def verify_bracket(system, family):
    """Check: every range F has sets B-, B+ with B- <= F <= B+, |B+ \\ B-| <= eps*n.

    For B- <= F <= B+ the slack |B+ \\ B-| is just |B+| - |B-|, so F has a
    pair iff a largest set inside F and a smallest set containing F form
    one.  The hinted pair is tried first.  The fallback finds those two sets
    by a scan over every set, so it does not rely on the order of
    ``family.sets``: a ``BracketFamily`` can be built directly.
    """
    slack_cap = math.floor(family.eps * system.n)
    sets = family.sets
    members = set(sets)
    pairing = family.pairing or {}
    slacks = []
    checked = 0
    for mask in system.ranges:
        checked += 1
        lo, hi = pairing.get(mask, (None, None))
        if not (lo in members and hi in members and (lo & mask) == lo and (mask & hi) == mask
                and hi.bit_count() - lo.bit_count() <= slack_cap):
            lo = max((s for s in sets if (s & mask) == s), key=int.bit_count, default=None)
            hi = min((s for s in sets if (mask & s) == mask), key=int.bit_count, default=None)
            if lo is None or hi is None or hi.bit_count() - lo.bit_count() > slack_cap:
                return VerifyReport(
                    False,
                    checked,
                    (mask, f"no bracket pair within slack {slack_cap}"),
                    _stats(slacks),
                )
        slacks.append(hi.bit_count() - lo.bit_count())
    return VerifyReport(True, checked, None, _stats(slacks))


def verify_family(system, family):
    """Run the verifier for the family's type."""
    if isinstance(family, MnetFamily):
        return verify_mnet(system, family)
    if isinstance(family, ContainerFamily):
        return verify_container(system, family)
    if isinstance(family, BracketFamily):
        return verify_bracket(system, family)
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
