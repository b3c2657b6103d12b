"""Construction stack for Mnets, containers and uniform brackets.

The pipeline is: a base provider hands out verified Lambda-heavy Mnets for
arbitrary subsystems (a greedy cover of the heavy ranges by the ranges and
their pairwise intersections); boosting turns 1/2-threshold Mnets into
eps-threshold ones; complementation swaps Mnets and containers; a removal
recursion builds containers for small ranges; bootstrapping lifts those to
heavy Mnets on a size band; banding over a geometric size ladder yields
Mnets of arbitrary heaviness, full container families and brackets.  Every
construction re-verifies its output before returning it and never returns an
unverified family.
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
from .setsystem import SetSystem, canonical_sort, complement_family, filter_by_size, size_band
from .trace import note
from .verify import find_cover, find_piece, verify_container, verify_family, verify_mnet

HALF = Fraction(1, 2)
PAIR_CAP = 64
# base_mnet's greedy cover runs on Python ints up to this many serving cells
# (candidates x heavy ranges) and on numpy above: 9,021 of the 9,620 calls
# of a seed-2 n=256 protocol context build run the int loop.  Replayed both
# ways on an earlier build's 8,917 calls, the int loop was about 1.3x faster
# at 384-512 cells and even with numpy at 640-768.
_INT_CELLS = 512


def _checked(family, label):
    report = verify_family(family.base, family)
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
    So ties go to the first candidate in canonical order on both paths; each
    pick assigns its newly served ranges in ascending j on both, and the
    witness map and the pieces are the same.
    """
    lam = Fraction(lam)
    eps = Fraction(eps)
    if not 0 < lam <= 1:
        raise InputError(f"lam must be in (0,1], got {lam}")
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    n = system.n
    heavy_at = math.ceil(eps * n)
    heavy = size_band(system.ranges, heavy_at, n)
    cands = set(heavy).union(a & b for a, b in combinations(heavy[:PAIR_CAP], 2))
    within_budget(len(cands) * len(heavy), MAX_SERVING_CELLS, "serving matrix cells (candidates x heavy ranges)")
    cands = canonical_sort(cands)
    if len(cands) * len(heavy) <= _INT_CELLS:
        assignment = _int_greedy_cover(cands, heavy, lam)
    else:
        assignment = _numpy_greedy_cover(cands, heavy, lam, system.full_mask.bit_length())
    fam = make_mnet(system, assignment.values(), lam, eps, witness=assignment)
    return _checked(fam, "base_mnet")


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
    uncovered = (1 << len(heavy)) - 1
    while uncovered:
        best = max(range(len(rows)), key=lambda i: (rows[i] & uncovered).bit_count())
        piece = cands[best]
        newly = rows[best] & uncovered
        uncovered ^= newly
        while newly:
            low = newly & -newly
            assignment[heavy[low.bit_length() - 1]] = piece
            newly ^= low
    return assignment


def _numpy_greedy_cover(cands, heavy, lam, width):
    """The greedy cover on the dense ``_serving_matrix``, with a running
    count of the uncovered heavy ranges each candidate serves."""
    serves = _serving_matrix(cands, heavy, lam, width)
    assignment = {}
    uncovered = np.ones(len(heavy), dtype=bool)
    counts = serves.sum(axis=1)
    while uncovered.any():
        best = int(np.argmax(counts))
        piece = cands[best]
        newly = serves[best] & uncovered
        for j in np.flatnonzero(newly):
            assignment[heavy[j]] = piece
        uncovered &= ~newly
        counts = counts - (serves[:, newly].sum(axis=1))
    return assignment


def _serving_matrix(cands, ranges, lam, width):
    """serves[i, j] = cands[i] is inside ranges[j] and heavy enough for it;
    the masks are packed at ``width`` bits."""
    cand_sizes = np.array([c.bit_count() for c in cands], dtype=np.int64)
    # A range's need ceil(lam*|R|) is at most |R|, while lam.numerator*|R| can
    # overflow int64: the need is an exact int ceiling (a Fraction per range
    # costs far more) and only sizes go to numpy.
    num, den = lam.numerator, lam.denominator
    need = np.array([-(-r.bit_count() * num // den) for r in ranges], dtype=np.int64)
    size_ok = cand_sizes[:, None] >= need[None, :]
    packed_c = bitsets.pack_masks(cands, width)
    packed_r = bitsets.pack_masks(ranges, width)
    return bitsets.subset_matrix(packed_c, packed_r) & size_ok


class PropertyMProvider:
    """Produces verified fixed-heaviness Mnets for arbitrary subsystems.

    ``heaviness`` is the fixed constant 1/2 (as for halfspace-like systems);
    ``bound_log`` records (eps, produced size) for every call.
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
    (``nearest_neighbor``, ties to the earliest member); a range R of the group
    of member P takes the piece that serves R & P in the provider's 1/2-Mnet
    of the ranges' traces on P, a system with ground set P.  The output
    heaviness is provider.heaviness * (1 - eta).
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
            traces = SetSystem.from_masks(member.bit_count(), (r & member for r in system.ranges), member)
            fam = provider.mnet(traces, HALF)
            for mask in group:
                trace = mask & member
                piece = find_piece(fam.pieces, fam.witness.get(trace), trace, fam.lam)
                if piece is None:
                    raise InternalInvariantError("verified Mnet has no piece for a heavy range")
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
    report = verify_mnet(comp, candidate)
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
    report = verify_container(small, candidate)
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

    At each node (Z, S) the provider builds a heavy Mnet of the complements
    within Z at the node's own threshold; removing a piece shrinks Z by a
    constant factor, and a range is covered by the first node where its
    residual |Z \\ R| drops to rho*n.  Node universes are the covers.  The
    recursion depth cap, a float bound, is ceil(1 + log(1/rho)/log(1/s))
    with shrink s = 1 - Lambda*rho/(eps+rho); exceeding it is an internal
    error.  It is the paper's ceil(1 + log(1/eps)/log(1/(1-Lambda/2))) at
    rho = eps and grows as rho falls (log(1/rho) up, log(1/s) down).
    """
    eps = Fraction(eps)
    rho = Fraction(rho)
    if not 0 < rho <= eps < 1:
        raise InputError(f"need 0 < rho <= eps < 1, got rho={rho}, eps={eps}")
    n = system.n
    size_cap = math.floor(eps * n)
    if size_band(system.ranges, size_cap + 1, n):
        raise InputError("a base range exceeds eps*n; small-set containers do not apply")
    shrink = 1 - provider.heaviness * rho / (eps + rho)
    depth_cap = math.ceil(1 + _log_inverse(rho) / math.log(1 / float(shrink)))
    residual_over = math.floor(rho * n)  # residual must be strictly above rho*n
    full = system.full_mask
    covers = []
    witness = {}
    max_depth = 1
    # Node = (universe mask, surviving ranges, depth).  Every live range lies
    # inside its node's universe: the root's is the full set, and a child
    # keeps only the ranges inside its own.  The live ranges keep canonical
    # order, so the ones a node serves (residual at most rho*n) are its
    # largest, a prefix, and the first survivor is the largest one.
    stack = [(full, system.ranges, 1)]
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
        eps_node = Fraction(survivors[0].bit_count(), u_size)
        node_sys = SetSystem.from_masks(u_size, [universe & ~m for m in survivors], universe)
        fam = provider.mnet(node_sys, 1 - eps_node)
        # No piece is empty: a survivor leaves more than floor(rho*n) >= 0 elements
        # of its universe, so every node range is non-empty and so is every piece.
        # An empty piece would repeat its node until the depth cap.
        children = []
        for piece in fam.pieces:
            child_universe = universe & ~piece
            child_live = [m for m in survivors if (m & child_universe) == m]
            if child_live:
                children.append((child_universe, child_live, depth + 1))
        stack.extend(reversed(children))
    note(op="small-set-container", eps=eps, rho=rho, depth_cap=depth_cap, max_depth=max_depth)
    fam = make_container(system, covers, eps + rho, witness=witness)
    return _checked(fam, "small_set_container")


# ---------------------------------------------------------------------------
# Bootstrapping a size band
# ---------------------------------------------------------------------------


def bootstrap_interval_mnet(system, eps, delta, provider):
    """(1-4*eps)-heavy delta-Mnet for the ranges of size in [delta*n, (1+eps)*delta*n].

    A maximal packing at separation eps*delta*n groups the band: a range is
    served through the first member within the separation, as recorded in
    ``Packing.groups``.  Within each member P the complements P & ~R of
    the group ranges are small (at most eps' = 3*eps/(2+2*eps) of |P|), so
    small_set_container covers them in a system with ground set P, and the
    complements of the covers inside P are the pieces.

    A group of one is its member P alone, and its piece is P itself,
    without a local container; P serves P at any heaviness.  It is also the
    piece that the general path gives: the local system is P with the one
    range {empty set}.  For |P| > 0 the root of its small-set container is
    one node whose only survivor is the empty set (its residual |P| exceeds
    floor(eps*|P|)).  The node's system is P alone, whose greedy-cover Mnet
    piece is P, so the child universe is the empty set, which becomes the
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
    band = SetSystem(n, band_masks, system.ground)
    lam_out = max(Fraction(0), 1 - 4 * eps)
    if not band_masks:
        return _checked(make_mnet(band, [], lam_out, delta, witness={}), "bootstrap")
    packing = greedy_delta_packing(band, math.floor(eps * delta * n))
    eps_prime = 3 * eps / (2 + 2 * eps)
    note(op="bootstrap", eps=eps, delta=delta, eps_prime=eps_prime,
         band=(lo_int, hi_int), packing_size=len(packing.members))
    witness = {}
    for member, group in zip(packing.members, packing.groups):
        if len(group) == 1:
            witness[member] = member
            continue
        p_size = member.bit_count()
        comps = [member & ~mask for mask in group]
        if max(comp.bit_count() for comp in comps) > math.floor(eps_prime * p_size):
            raise InternalInvariantError(
                "projected complement exceeds the eps' bound inside a packing member"
            )
        cont = small_set_container(SetSystem.from_masks(p_size, comps, member), eps_prime, eps, provider)
        slack_cap = math.floor(cont.eps * p_size)
        for mask, comp in zip(group, comps):
            cover = find_cover(cont.covers, cont.witness.get(comp), comp, slack_cap)
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
