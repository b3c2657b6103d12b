"""Construction stack for Mnets, containers and uniform brackets.

The pipeline is: a greedy cover of the heavy ranges by the ranges and
their pairwise intersections makes Mnets at the base provider's heaviness
Lambda; boosting turns 1/2-threshold Mnets into eps-threshold ones;
complementation swaps Mnets and containers; a removal recursion builds
containers for small ranges; bootstrapping lifts those to heavy Mnets on a
size band; banding over a geometric size ladder yields Mnets of arbitrary
heaviness, full container families and brackets.

Checks sit at the public boundary.  Every public construction re-verifies
the family it returns (``_checked``), so a caller never receives an
unverified family.  The private helpers ``_greedy_assignment`` and
``_small_set_covers`` work on plain canonical mask lists and return steering
data, not families: a member's Mnet in boosting and a node's Mnet in the
removal recursion only steer them, and a local container only hands
bootstrap its witness covers.  Boosting and bootstrap check each range's
own witness with ``find_piece``/``find_cover``, scanning nothing else (their
docstrings prove that the witness serves), and verify their family.

The helpers serve a packing member or a recursion node, a universe U, in
the parent's element indices: U is a mask, |U| a count, U.bit_length() the
mask width.  That makes the same picks as re-indexing U to {0,...,|U|-1} in
ascending order.  The re-indexing is a bijection from the subsets of U onto
those of {0,...,|U|-1} that keeps sizes, subset tests, ANDs and XORs, and
the lowest element where two masks differ, so it keeps the canonical order
too.  The helpers read only sizes, subset tests, ANDs with U and |U| as a
count, so they make the same picks either way, and each set they return is
the re-indexed one's set in the parent's indices.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from . import bitsets
from .errors import (
    MAX_LADDER_RUNGS,
    MAX_SERVING_CELLS,
    InputError,
    InternalInvariantError,
    PreconditionFailure,
    ResourceBudgetError,
    within_budget,
)
from .families import make_bracket, make_container, make_mnet
from .packing import greedy_delta_packing, nearest_neighbor
from .setsystem import SetSystem, canonical_order, canonical_sort, complement_family, filter_by_size, size_band
from .trace import note
from .verify import find_cover, find_piece, verify_container, verify_family, verify_mnet

HALF = Fraction(1, 2)
PAIR_CAP = 64
# base_mnet's greedy cover runs on Python ints up to this many serving cells
# (candidates x heavy ranges) and on numpy above: 9,215 of the 9,620 greedy
# covers of a seed-2 n=256 protocol context build run the int loop.  Replayed
# both ways on that build's calls (candidate set, order and greedy loop, best
# of 9 per call), the int loop took 0.76 of the numpy loop's time at 385-512
# cells, 0.86 at 513-640, 0.95 at 641-768, 1.05 at 769-896 and 1.15 at
# 897-1,024 (2-core machine, Python 3.11).
_INT_CELLS = 768


def _checked(family, label):
    report = verify_family(family)
    if not report.passed:
        raise InternalInvariantError(f"{label} failed self-verification: {report.counterexample}")
    return family


def _log_inverse(q):
    """log(1/q) for a Fraction 0 < q < 1: below 1/2 from the exact numerator
    and denominator, which stay finite where a float 1/q overflows and q
    would be 0, and from 1/2 on as log1p of the exact gap to 1."""
    if q < HALF:
        return math.log(q.denominator) - math.log(q.numerator)
    return -math.log1p(float(q - 1))


def _ladder(start, ratio):
    """The geometric size ladder start*(1+ratio)^k, k = 0, 1, ..., as exact
    Fractions, up to and including its first rung of at least 1.  A ladder
    of more than ``MAX_LADDER_RUNGS`` rungs, by a float estimate of the
    count, or a ratio that is 0 as a float, raises ResourceBudgetError
    before any rung is built."""
    if start < 1:
        step = math.log1p(float(ratio))
        if step == 0 or _log_inverse(start) / step > MAX_LADDER_RUNGS - 1:
            raise ResourceBudgetError(f"size ladder from {start} by {ratio} exceeds the limit {MAX_LADDER_RUNGS} rungs")
    rungs = [start]
    while rungs[-1] < 1:
        rungs.append(rungs[-1] * (1 + ratio))
    return rungs


# ---------------------------------------------------------------------------
# Base provider
# ---------------------------------------------------------------------------


def base_mnet(system, lam, eps):
    """Greedy-cover Mnet: every range of size >= eps*n gets a contained piece
    of size >= lam*|range|.

    Candidate pieces are the heavy ranges themselves plus pairwise
    intersections of the first ``PAIR_CAP`` heavy ranges (canonical order);
    one greedy loop picks the first candidate serving the most uncovered
    heavy ranges, and runs no round when no range is heavy.  Since lam <= 1,
    every heavy range is a candidate that serves itself, so while a range is
    uncovered the best count is positive: no pick serves nothing, the loop
    ends with every heavy range served, and candidate capping only affects
    size.  A candidates x heavy serving matrix of more than
    ``MAX_SERVING_CELLS`` cells is refused before it is built.

    Up to ``_INT_CELLS`` cells the loop runs on Python ints, one per
    candidate with bit j set when it serves heavy[j]; larger inputs run it
    on the numpy serving matrix.  Both make the same picks.  The int loop
    counts a candidate's uncovered served ranges as popcount(row &
    uncovered), which is the numpy loop's running count, and ``max``
    returns the first index of the largest count, as ``np.argmax`` does.
    The int loop sorts its candidates with ``canonical_sort`` and the numpy
    loop orders their packed rows with ``canonical_order``, which gives the
    same order.  So ties go to the first candidate in canonical order on
    both paths; each pick assigns its newly served ranges in ascending j on
    both, and the witness map and the pieces are the same.
    """
    lam = Fraction(lam)
    eps = Fraction(eps)
    if not 0 < lam <= 1:
        raise InputError(f"lam must be in (0,1], got {lam}")
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    heavy = size_band(system.ranges, math.ceil(eps * system.n), system.n)
    assignment, _ = _greedy_assignment(heavy, lam, system.n)
    fam = make_mnet(system, assignment.values(), lam, eps, witness=assignment)
    return _checked(fam, "base_mnet")


def _greedy_assignment(heavy, lam, width):
    """``base_mnet``'s greedy cover below its input checks and its heavy
    slice, on the canonical list ``heavy`` of the ranges to serve, masks
    that fit in ``width`` bits: the witness assignment (heavy range ->
    piece, in pick order) and the picked pieces in canonical order.
    ``base_mnet`` slices its heavy ranges at ceil(eps*n), boosting a
    member's traces at ceil(|P|/2); a small-set node passes all its ranges,
    which are all heavy at its threshold.  The pieces
    come from sorting the picked candidate positions: the int loop's
    candidates are ``canonical_sort``ed and the numpy loop's columns are in
    ``canonical_order``, so on both loops position order is canonical order.
    Nothing is verified here."""
    cands = set(heavy).union(a & b for a, b in combinations(heavy[:PAIR_CAP], 2))
    within_budget(len(cands) * len(heavy), MAX_SERVING_CELLS, "serving matrix cells (candidates x heavy ranges)")
    if len(cands) * len(heavy) <= _INT_CELLS:
        return _int_greedy_cover(canonical_sort(cands), heavy, lam)
    return _numpy_greedy_cover(list(cands), heavy, lam, width)


def _int_greedy_cover(cands, heavy, lam):
    """The greedy cover with each candidate's served heavy ranges as one int
    (bit j for heavy[j]), under the serving test of ``_serving_matrix``."""
    num, den = lam.numerator, lam.denominator
    columns = [(1 << j, r, -(-r.bit_count() * num // den)) for j, r in enumerate(heavy)]
    rows = []
    for c in cands:
        size = c.bit_count()
        row = 0
        for bit, r, need in columns:
            if size >= need and c & r == c:
                row |= bit
        rows.append(row)
    assignment = {}
    picks = []
    uncovered = (1 << len(heavy)) - 1
    while uncovered:
        best = max(range(len(rows)), key=lambda i: (rows[i] & uncovered).bit_count())
        picks.append(best)
        piece = cands[best]
        newly = rows[best] & uncovered
        uncovered ^= newly
        while newly:
            low = newly & -newly
            assignment[heavy[low.bit_length() - 1]] = piece
            newly ^= low
    return assignment, [cands[i] for i in sorted(picks)]


def _numpy_greedy_cover(cands, heavy, lam, width):
    """The greedy cover on the heavy-major ``_serving_matrix`` of the
    candidates' packed rows in canonical order, with a running count of the
    uncovered heavy ranges each candidate serves.  A pick's newly served
    ranges are the uncovered entries of its column, and their rows are
    what the counts lose."""
    packed = bitsets.pack_masks(cands, width)
    order = canonical_order(packed)
    serves = _serving_matrix(packed[order], heavy, lam, width)
    assignment = {}
    picks = []
    uncovered = np.ones(len(heavy), dtype=bool)
    counts = serves.sum(axis=0, dtype=np.int32)
    left = len(heavy)
    while left:
        best = int(np.argmax(counts))
        picks.append(best)
        piece = cands[order[best]]
        newly = np.flatnonzero(serves[:, best] & uncovered)
        for j in newly.tolist():
            assignment[heavy[j]] = piece
        uncovered[newly] = False
        left -= len(newly)
        counts -= serves[newly].sum(axis=0, dtype=np.int32)
    return assignment, [cands[order[i]] for i in sorted(picks)]


def _serving_matrix(packed_cands, ranges, lam, width):
    """serves[j, i] = candidate i (a packed row) is inside ranges[j] and
    heavy enough for it, as one heavy-major bool matrix.  Each block of rows
    within ``bitsets._BLOCK_CELLS`` cells starts as the size test, and
    ``subset_matrix`` ANDs the subset test into it in place.  It tests the
    ranges' complements inside the candidates': complementing every bit of
    the packed words reverses inclusion, which puts the ranges on the rows."""
    # A range's need ceil(lam*|R|) is at most |R|, while lam.numerator*|R| can
    # overflow int64: the need is an exact int ceiling (a Fraction per range
    # costs far more) and only sizes go to numpy, as int32 (a size of 2**31
    # would take a 256 MB mask), which halves the size test's cost.
    num, den = lam.numerator, lam.denominator
    need = np.array([-(-r.bit_count() * num // den) for r in ranges], dtype=np.int32)
    sizes = np.bitwise_count(packed_cands).sum(axis=1, dtype=np.int32)
    serves = np.empty((len(ranges), len(packed_cands)), dtype=bool)
    step = max(1, bitsets._BLOCK_CELLS // max(1, len(packed_cands)))
    for start in range(0, len(ranges), step):
        np.greater_equal(sizes, need[start : start + step, None], out=serves[start : start + step])
    packed_ranges = bitsets.pack_masks(ranges, width)
    return bitsets.subset_matrix(~packed_ranges, ~packed_cands, out=serves)


class PropertyMProvider:
    """Produces verified fixed-heaviness Mnets for arbitrary subsystems.

    ``heaviness`` is the fixed constant 1/2 (as for halfspace-like systems);
    ``bound_log`` records (eps, produced size) for every ``mnet`` call.  No
    construction calls ``mnet``: each reads ``heaviness`` and runs the same
    greedy cover through ``_greedy_assignment``, boosting on a packing
    member's heavy traces and the small-set recursion on a node's ranges,
    which are all heavy at the node's threshold.
    """

    heaviness = HALF

    def __init__(self):
        self.bound_log = []

    def mnet(self, system, eps):
        family = base_mnet(system, self.heaviness, eps)
        self.bound_log.append((Fraction(eps), len(family.pieces)))
        return family


def default_provider():
    return PropertyMProvider()


# ---------------------------------------------------------------------------
# eps-boosting
# ---------------------------------------------------------------------------


def boost_epsilon(system, provider, eps, eta):
    """Turn the provider's 1/2-threshold Mnets into an eps-threshold Mnet.

    Size bands eps_i = (1+eta')^i * eps with eta' = min(1/4, eta/2) are each
    covered by a maximal packing at separation eta'*eps_i*n among ranges below
    the band top.  The band is grouped by nearest packing member
    (``nearest_neighbor``, ties to the earliest member).  Per member P, the
    greedy cover at the provider's heaviness serves the ranges' distinct
    traces on P of at least ceil(|P|/2) elements, in P's indices: a 1/2-Mnet
    of the traces.  A range R of P's group takes the piece that the greedy
    cover assigned to its trace R & P, and ``find_piece`` confirms it there
    without scanning other pieces.  The output heaviness is
    provider.heaviness * (1 - eta), and the family is verified.

    That piece exists.  The packing is maximal among the ranges of size at
    most the band top, so R's nearest member P has |R ^ P| <= floor(eta' *
    eps_i * n).  Since eta' <= 1/4, eta' * eps_i = eta' * (1 + eta') *
    eps_(i-1) < eps_(i-1), so |R| >= ceil(eps_(i-1) * n) >= floor(eta' * eps_i
    * n) >= |R ^ P| = |R| + |P| - 2|R & P|.  Hence 2|R & P| >= |P|: the trace
    R & P is one of P's heavy traces, and the greedy cover, which ends with
    every heavy trace served, assigned it a piece that serves it.  A
    witness that does not serve still raises InternalInvariantError.
    """
    eps = Fraction(eps)
    eta = Fraction(eta)
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0,1), got {eps}")
    if not 0 < eta < 1:
        raise InputError(f"eta must be in (0,1), got {eta}")
    n = system.n
    eta_p = min(Fraction(1, 4), eta / 2)
    lam_out = provider.heaviness * (1 - eta)
    rungs = _ladder(eps, eta_p)
    t = len(rungs) - 1
    bands = [(i, eps_i, eta_p * eps_i) for i, eps_i in enumerate(rungs)]
    note(op="boost", eta_prime=eta_p, t=t, eps=eps, eta=eta, bands=bands)
    witness = {}
    for i in range(1, t + 1):
        eps_lo, eps_hi = bands[i - 1][1], bands[i][1]
        delta_i = bands[i][2]
        lo_int = math.ceil(eps_lo * n)
        hi_int = math.ceil(eps_hi * n) - 1 if i < t else n
        # Consecutive bands meet at ceil(eps_i*n) without overlapping, so no
        # band range has a piece yet.
        band = size_band(system.ranges, lo_int, hi_int)
        if not band:
            continue
        packing = greedy_delta_packing(system, math.floor(delta_i * n), shallow_cap=hi_int)
        groups = {}
        for mask in band:
            groups.setdefault(nearest_neighbor(packing, mask)[0], []).append(mask)
        for member, group in groups.items():
            p_size = member.bit_count()
            traces = canonical_sort({r & member for r in system.ranges})
            heavy = size_band(traces, math.ceil(HALF * p_size), p_size)
            assignment, _ = _greedy_assignment(heavy, provider.heaviness, member.bit_length())
            for mask in group:
                trace = mask & member
                piece = find_piece((), assignment.get(trace), trace, provider.heaviness)
                if piece is None:
                    raise InternalInvariantError("Mnet has no piece for a heavy range")
                witness[mask] = piece
    fam = make_mnet(system, witness.values(), lam_out, eps, witness=witness)
    return _checked(fam, "boost_epsilon")


# ---------------------------------------------------------------------------
# Complement duality
# ---------------------------------------------------------------------------


def mnet_to_container(system, mnet, delta0, lam):
    """Complement a heavy Mnet of the complemented small ranges into a container.

    Input contract (verified, refused with a counterexample on failure): the
    pieces form a lam-heavy (1-delta0)-Mnet for the complements of the ranges
    of size <= delta0*n.  The complements of the pieces are then a
    (1 - lam + lam*delta0)-container for those small ranges.
    """
    delta0 = Fraction(delta0)
    lam = Fraction(lam)
    if not 0 < delta0 <= 1:
        raise InputError(f"delta0 must be in (0,1], got {delta0}")
    if not 0 < lam <= 1:
        raise InputError(f"lam must be in (0,1], got {lam}")
    n = system.n
    small = filter_by_size(system, upper=delta0 * Fraction(n))
    comp = complement_family(small)
    candidate = make_mnet(comp, mnet.pieces, lam, 1 - delta0)
    report = verify_mnet(candidate)
    if not report.passed:
        raise PreconditionFailure(
            f"input is not a {lam}-heavy {1 - delta0}-Mnet of the complemented small ranges: "
            f"counterexample {report.counterexample}",
            report,
        )
    full = system.full_mask
    covers = [full ^ p for p in candidate.pieces]
    fam = make_container(small, covers, 1 - lam + lam * delta0)
    return _checked(fam, "mnet_to_container")


def container_to_mnet(system, container, delta0, lam):
    """Complement a container for small ranges into a heavy Mnet of their complements.

    Input contract (verified): covers form a (1-lam)-container for the ranges
    of size <= delta0*n; needs lam > delta0, else the resulting heaviness
    lam - delta0 would be nonpositive.
    """
    delta0 = Fraction(delta0)
    lam = Fraction(lam)
    if not 0 < delta0 <= 1:
        raise InputError(f"delta0 must be in (0,1], got {delta0}")
    if lam <= delta0:
        raise InputError(f"need lam > delta0, got lam={lam}, delta0={delta0}")
    if lam > 1:
        raise InputError(f"lam must be at most 1, got {lam}")
    n = system.n
    small = filter_by_size(system, upper=delta0 * Fraction(n))
    candidate = make_container(small, container.covers, 1 - lam)
    report = verify_container(candidate)
    if not report.passed:
        raise PreconditionFailure(
            f"input is not a {1 - lam}-container for the small ranges: "
            f"counterexample {report.counterexample}",
            report,
        )
    full = system.full_mask
    pieces = [full ^ c for c in candidate.covers]
    comp = complement_family(small)
    fam = make_mnet(comp, pieces, lam - delta0, 1 - delta0)
    return _checked(fam, "container_to_mnet")


# ---------------------------------------------------------------------------
# Containers for small ranges (removal recursion)
# ---------------------------------------------------------------------------


def small_set_container(system, eps, rho, provider):
    """rho-slack containers for a family of ranges of size <= eps*n.

    At each node (Z, S) the base provider's greedy cover, at its heaviness
    Lambda, builds a heavy Mnet of the complements within Z at the node's
    own threshold; removing a piece shrinks Z by a constant factor, and a
    range is covered by the first node where its residual |Z \\ R| drops to
    rho*n.  Node universes are the covers.  The recursion depth cap
    (``_depth_cap``, computed once per call) is a float bound; exceeding it
    is an internal error.  The recursion (``_small_set_covers``) reads only
    ``provider.heaviness``.
    """
    eps = Fraction(eps)
    rho = Fraction(rho)
    if not 0 < rho <= eps < 1:
        raise InputError(f"need 0 < rho <= eps < 1, got rho={rho}, eps={eps}")
    n = system.n
    size_cap = math.floor(eps * n)
    if size_band(system.ranges, size_cap + 1, n):
        raise InputError("a base range exceeds eps*n; small-set containers do not apply")
    depth_cap = _depth_cap(eps, rho, provider.heaviness)
    covers, witness = _small_set_covers(system.ranges, system.full_mask, eps, rho, provider.heaviness, depth_cap)
    fam = make_container(system, covers, eps + rho, witness=witness)
    return _checked(fam, "small_set_container")


def _depth_cap(eps, rho, heaviness):
    """The removal recursion's depth cap, ceil(1 + log(1/rho)/log(1/s)) with
    shrink s = 1 - heaviness*rho/(eps+rho), a float bound.  It is the
    paper's ceil(1 + log(1/eps)/log(1/(1-Lambda/2))) at rho = eps and grows
    as rho falls (log(1/rho) up, log(1/s) down).  Where log(1/s) is 0 even
    as log1p of the exact gap, the cap is beyond float range and the input
    is refused with ResourceBudgetError."""
    shrink = 1 - heaviness * rho / (eps + rho)
    # log(1/s) is 0 as a float once s rounds to 1.0 (a gap 1 - s below about
    # 2**-53), and only there is it taken as log1p of the exact gap: that
    # form can move the cap by one where the quotient is an integer.  Where
    # the gap itself is 0 as a float, so is the log1p.
    step = math.log(1 / float(shrink)) or -math.log1p(float(shrink - 1))
    if not step:
        raise ResourceBudgetError(
            f"small-set container depth cap at eps={eps}, rho={rho} is beyond float range: "
            "the shrink 1 - Lambda*rho/(eps+rho) is 1 as a float"
        )
    return math.ceil(1 + _log_inverse(rho) / step)


def _small_set_covers(ranges, full, eps, rho, heaviness, depth_cap):
    """The removal recursion of ``small_set_container`` on plain masks: the
    covers (node universes, in visiting order) and the witness map, range
    -> the first cover that serves it.  ``ranges`` is a canonical,
    duplicate-free list of subsets of ``full``, the root universe, whose
    size ``full.bit_count()`` is the n of the residual bound rho*n.  The
    caller computes ``depth_cap`` (``_depth_cap``) once for all the
    recursions that share eps, rho and the heaviness.

    A node's ranges are ``universe & ~m`` over its survivors, read in
    reverse, and that list is canonical without a sort, by the argument of
    ``complement_family``: the survivors are a canonical list of distinct
    subsets of the universe, complementing within it maps size s to |Z| -
    s and reverses the order inside each size, and distinct survivors have
    distinct complements.  The node's threshold ceil((1 - |s0|/|Z|)*|Z|) for
    its largest survivor s0 is the integer |Z| - |s0|, and every node range
    has at least that size, so all of them are heavy and go to
    ``_greedy_assignment`` as they are.  Its pieces come in canonical
    order; they only steer the recursion, and nothing here is verified: the
    caller re-checks the witness covers it hands on."""
    residual_over = rho.numerator * full.bit_count() // rho.denominator  # residual must be strictly above rho*n
    covers = []
    witness = {}
    max_depth = 1
    # Node = (universe mask, surviving ranges, depth).  Every live range lies
    # inside its node's universe: the root's is the full set, and a child
    # keeps only the ranges inside its own.  The live ranges keep canonical
    # order, so the ones a node serves (residual at most rho*n) are its
    # largest, a prefix, and the first survivor is the largest one.
    stack = [(full, ranges, 1)]
    while stack:
        universe, live, depth = stack.pop()
        max_depth = max(max_depth, depth)
        covers.append(universe)
        u_size = universe.bit_count()
        served = size_band(live, u_size - residual_over, u_size)
        for mask in served:
            witness.setdefault(mask, universe)
        survivors = live[len(served):]
        if not survivors:
            continue
        if depth + 1 > depth_cap:
            raise InternalInvariantError(
                f"small-set container recursion exceeded its depth cap {depth_cap}"
            )
        node_ranges = [universe & ~m for m in reversed(survivors)]
        _, pieces = _greedy_assignment(node_ranges, heaviness, universe.bit_length())
        # No piece is empty: a survivor leaves more than floor(rho*n) >= 0 elements
        # of its universe, so every node range is non-empty and so is every piece.
        # An empty piece would repeat its node until the depth cap.
        children = []
        for piece in pieces:
            child_universe = universe & ~piece
            child_live = [m for m in survivors if (m & child_universe) == m]
            if child_live:
                children.append((child_universe, child_live, depth + 1))
        stack.extend(reversed(children))
    note(op="small-set-container", eps=eps, rho=rho, depth_cap=depth_cap, max_depth=max_depth)
    return covers, witness


# ---------------------------------------------------------------------------
# Bootstrapping a size band
# ---------------------------------------------------------------------------


def bootstrap_interval_mnet(system, eps, delta, provider):
    """(1-4*eps)-heavy delta-Mnet for the ranges of size in [delta*n, (1+eps)*delta*n].

    A maximal packing at separation eps*delta*n groups the band: a range is
    served through the first member within the separation, as recorded in
    ``Packing.groups``.  Within each member P the complements P & ~R of
    the group ranges are small (at most eps' = 3*eps/(2+2*eps) of |P|), so
    the small-set recursion covers them in the universe P, and the
    complements of the covers inside P are the pieces.  The recursion runs
    on the deduplicated, canonically sorted complements (two group ranges
    can share P & ~R); ``find_cover`` checks each range's witness cover,
    and scans no other cover.  All groups of a band share eps', eps and the
    heaviness, so the band computes the recursion's depth cap
    (``_depth_cap``) once, and eps' and eps' + eps once, whose integer
    floors at |P| are a group's bounds.

    The witness serves.  The recursion's witness for a complement C is the
    first node universe Z with C inside Z and residual |Z \\ C| at most
    floor(eps*|P|), which is within the slack cap floor((eps' + eps)*|P|).
    Every complement gets one unless the depth cap raises first: each
    survivor m of a node lies in the child universe Z & ~p of the piece p
    that the greedy cover put inside its node range Z & ~m.  A witness that
    does not serve still raises InternalInvariantError.

    A group of one is its member P alone, and its piece is P itself,
    without a local container; P serves P at any heaviness.  It is also the
    piece that the general path gives: the local system is P with the one
    range {empty set}.  For |P| > 0 the root of its small-set container is
    one node whose only survivor is the empty set (its residual |P| exceeds
    floor(eps*|P|)).  The node's one range is P, whose greedy-cover piece
    is P, so the child universe is the empty set, which becomes the
    empty set's witness cover.  For |P| = 0 the root itself is that cover.
    The piece is P ^ 0 = P.  The band's ``_checked`` still verifies every
    piece.
    """
    eps = Fraction(eps)
    delta = Fraction(delta)
    if not 0 < eps <= HALF:
        raise InputError(f"eps must be in (0,1/2], got {eps}")
    if not eps < delta <= 1:
        raise InputError(f"delta must be in (eps,1], got {delta}")
    n = system.n
    lo_int = math.ceil(delta * n)
    hi_int = min(n, math.floor((1 + eps) * delta * n))
    band_masks = size_band(system.ranges, lo_int, hi_int)
    band = SetSystem(n, band_masks)
    lam_out = max(Fraction(0), 1 - 4 * eps)
    if not band_masks:
        return _checked(make_mnet(band, [], lam_out, delta, witness={}), "bootstrap_interval_mnet")
    packing = greedy_delta_packing(band, math.floor(eps * delta * n))
    eps_prime = 3 * eps / (2 + 2 * eps)
    note(op="bootstrap", eps=eps, delta=delta, eps_prime=eps_prime,
         band=(lo_int, hi_int), packing_size=len(packing.members))
    depth_cap = _depth_cap(eps_prime, eps, provider.heaviness)
    slack = eps_prime + eps
    witness = {}
    for member, group in zip(packing.members, packing.groups):
        if len(group) == 1:
            witness[member] = member
            continue
        p_size = member.bit_count()
        comps = [member & ~mask for mask in group]
        if max(comp.bit_count() for comp in comps) > eps_prime.numerator * p_size // eps_prime.denominator:
            raise InternalInvariantError(
                "projected complement exceeds the eps' bound inside a packing member"
            )
        _, cover_of = _small_set_covers(
            canonical_sort(set(comps)), member, eps_prime, eps, provider.heaviness, depth_cap)
        slack_cap = slack.numerator * p_size // slack.denominator
        for mask, comp in zip(group, comps):
            cover = find_cover((), cover_of.get(comp), comp, slack_cap)
            if cover is None:
                raise InternalInvariantError("verified container has no cover for a range")
            witness[mask] = member ^ cover
    fam = make_mnet(band, witness.values(), lam_out, delta, witness=witness)
    return _checked(fam, "bootstrap_interval_mnet")


# ---------------------------------------------------------------------------
# Arbitrarily heavy Mnets, containers, brackets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeavyMnetParams:
    """Derived parameters of the heaviness construction.

    eps0 = (1-lam)/4 exactly; t0 is the ceiled recursion budget
    1 + log(4/(1-lam))/log(1/(1-Lambda/2)).  band_ratio is the step of the
    bands (eps0, dropping to eta/2 when eta <= eps0 so every band keeps its
    separation below its delta) and band_deltas the band bottoms
    delta_k = (1+band_ratio)^k * eta until the ladder reaches 1.
    """

    lam: Fraction
    eta: Fraction
    heaviness: Fraction
    eps0: Fraction
    t0_raw: float
    t0: int
    band_ratio: Fraction
    band_deltas: tuple

    @staticmethod
    def from_targets(lam, eta, heaviness):
        lam = Fraction(lam)
        eta = Fraction(eta)
        heaviness = Fraction(heaviness)
        if not 0 < lam < 1 or not 0 < eta < 1:
            raise InputError("lam and eta must lie in (0,1)")
        eps0 = (1 - lam) / 4
        ratio = eps0 if eta > eps0 else eta / 2
        # The ladder goes first: it refuses a ratio that is 0 as a float, and
        # 1 - lam >= 4*ratio, so t0_raw then never divides by 0.
        band_deltas = tuple(_ladder(eta, ratio)[:-1])
        t0_raw = 1 + math.log(4 / float(1 - lam)) / math.log(1 / (1 - float(heaviness) / 2))
        return HeavyMnetParams(lam, eta, heaviness, eps0, t0_raw, math.ceil(t0_raw), ratio, band_deltas)


def heavy_mnet(system, lam, eta, provider):
    """lam-heavy eta-Mnet for any lam in (0,1): bootstrap each band of the
    geometric size ladder delta_k = (1+ratio)^k * eta and take the union."""
    params = HeavyMnetParams.from_targets(lam, eta, provider.heaviness)
    note(op="heavy-mnet", params=params)
    witness = {}
    for delta_k in params.band_deltas:
        band_fam = bootstrap_interval_mnet(system, params.band_ratio, delta_k, provider)
        for mask, piece in band_fam.witness.items():
            witness.setdefault(mask, piece)
    fam = make_mnet(system, witness.values(), lam, eta, witness=witness)
    return _checked(fam, "heavy_mnet")


def build_container(system, eps, provider_complement):
    """eps-container: {X} for the big ranges, small-set containers for ranges
    up to (eps/2)*n, and complements of a (1-eps)-heavy eps-Mnet of the
    complement family for everything of size at most (1-eps)*n."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0,1), got {eps}")
    n = system.n
    full = system.full_mask
    small_sys = filter_by_size(system, upper=eps / 2 * Fraction(n))
    covers = list(small_set_container(small_sys, eps / 2, eps / 2, provider_complement).covers)
    mfam = heavy_mnet(complement_family(system), 1 - eps, eps, provider_complement)
    witness = dict.fromkeys(size_band(system.ranges, math.ceil((1 - eps) * n), n), full)
    for mask in system.ranges[len(witness):]:
        cover = full ^ mfam.witness[full ^ mask]
        covers.append(cover)
        witness[mask] = cover
    return _checked(make_container(system, covers, eps, witness=witness), "build_container")


def build_bracket(system, eps, provider, provider_complement):
    """eps-uniform bracket: upper sets from an (eps/2)-container, lower sets
    from a (1-eps/2)-heavy (eps/2)-Mnet of the system itself (empty set for
    ranges of size at most (eps/2)*n)."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0,1), got {eps}")
    n = system.n
    cont = build_container(system, eps / 2, provider_complement)
    mfam = heavy_mnet(system, 1 - eps / 2, eps / 2, provider)
    large = size_band(system.ranges, math.floor(eps / 2 * Fraction(n)) + 1, n)
    pairing = {mask: (mfam.witness[mask], cont.witness[mask]) for mask in large}
    pairing.update((mask, (0, cont.witness[mask])) for mask in system.ranges[len(large):])
    sets = [0, *chain.from_iterable(pairing.values())]
    return _checked(make_bracket(system, sets, eps, pairing=pairing), "build_bracket")
