"""Construction stack for Mnets, containers and uniform brackets.

The pipeline is: a base provider hands out verified Lambda-heavy Mnets for
arbitrary subsystems (greedy cover with a truncation fallback); boosting
turns 1/2-threshold Mnets into eps-threshold ones; complementation swaps
Mnets and containers; a removal recursion builds containers for small
ranges; bootstrapping lifts those to heavy Mnets on a size band; banding
over a geometric size ladder yields Mnets of arbitrary heaviness, full
container families and brackets.  Every construction re-verifies its output
before returning it and never returns an unverified family.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bitsets
from .errors import InputError, InternalInvariantError, PreconditionFailure
from .families import make_bracket, make_container, make_mnet
from .packing import greedy_delta_packing
from .rationals import ceil_frac, floor_frac
from .setsystem import SetSystem, canonical_sort, complement_family, filter_by_size, project, size_band
from .verify import find_cover, find_piece, verify_container, verify_family, verify_mnet

HALF = Fraction(1, 2)
PAIR_CAP = 64


def _checked(family, label):
    report = verify_family(family.base, family)
    if not report.passed:
        raise InternalInvariantError(f"{label} failed self-verification: {report.counterexample}")
    return family


# ---------------------------------------------------------------------------
# Base provider
# ---------------------------------------------------------------------------


def base_mnet(system, lam, eps):
    """Greedy-cover Mnet: every range of size >= eps*n gets a contained piece
    of size >= lam*|range|.

    Candidate pieces are the heavy ranges themselves plus pairwise
    intersections of the first ``PAIR_CAP`` heavy ranges (canonical order);
    the greedy loop picks the candidate serving the most uncovered heavy
    ranges.  Any range left unserved falls back to its own prefix truncation,
    so the construction always succeeds; candidate capping only affects size.
    """
    lam = Fraction(lam)
    eps = Fraction(eps)
    if not 0 < lam <= 1:
        raise InputError(f"lam must be in (0,1], got {lam}")
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    n = system.n
    heavy_at = ceil_frac(eps * n)
    heavy = size_band(system.ranges, heavy_at, n)
    if not heavy:
        return _checked(make_mnet(system, [], lam, eps, witness={}), "base_mnet")
    cands = set(heavy)
    prefix = heavy[:PAIR_CAP]
    for i in range(len(prefix)):
        for j in range(i + 1, len(prefix)):
            cands.add(prefix[i] & prefix[j])
    cands = canonical_sort(cands, n)

    serves = _serving_matrix(cands, heavy, lam, n)
    keep = serves.any(axis=1)
    cands = [c for c, k in zip(cands, keep) if k]
    serves = serves[keep]

    assignment = {}
    uncovered = np.ones(len(heavy), dtype=bool)
    counts = serves.sum(axis=1)
    while uncovered.any() and len(cands):
        best = int(np.argmax(counts))
        if counts[best] <= 0:
            break
        piece = cands[best]
        newly = serves[best] & uncovered
        for j in np.flatnonzero(newly):
            assignment[heavy[j]] = piece
        uncovered &= ~newly
        counts = counts - (serves[:, newly].sum(axis=1))
    for j in np.flatnonzero(uncovered):
        mask = heavy[j]
        assignment[mask] = _prefix_bits(mask, ceil_frac(lam * mask.bit_count()))
    fam = make_mnet(system, assignment.values(), lam, eps, witness=assignment)
    return _checked(fam, "base_mnet")


def _serving_matrix(cands, ranges, lam, n):
    """serves[i, j] = cands[i] is inside ranges[j] and heavy enough for it."""
    cand_sizes = np.array([c.bit_count() for c in cands], dtype=np.int64)
    range_sizes = np.array([r.bit_count() for r in ranges], dtype=np.int64)
    if lam.numerator >= 1 << 30 or lam.denominator >= 1 << 30:
        raise InputError("heaviness fraction too large for the fast path")
    size_ok = cand_sizes[:, None] * lam.denominator >= range_sizes[None, :] * lam.numerator
    packed_c = bitsets.pack_masks(cands, n)
    packed_r = bitsets.pack_masks(ranges, n)
    return bitsets.subset_matrix(packed_c, packed_r) & size_ok


def _prefix_bits(mask, count):
    out = 0
    remaining = mask
    for _ in range(count):
        low = remaining & -remaining
        out |= low
        remaining ^= low
    return out


class PropertyMProvider:
    """Produces verified fixed-heaviness Mnets for arbitrary subsystems.

    ``heaviness`` plays the role of the fixed constant (1/2 for halfspace-like
    systems); ``bound_log`` records (eps, produced size) for every call.
    """

    def __init__(self, heaviness=HALF):
        heaviness = Fraction(heaviness)
        if not 0 < heaviness < 1:
            raise InputError(f"provider heaviness must be in (0,1), got {heaviness}")
        self.heaviness = heaviness
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


def boost_epsilon(system, provider, eps, eta, run_log=None):
    """Turn the provider's 1/2-threshold Mnets into an eps-threshold Mnet.

    Size bands eps_i = (1+eta')^i * eps with eta' = min(1/4, eta/2) are each
    covered by a maximal packing at separation eta'*eps_i*n among ranges below
    the band top; every band range inherits a piece from the provider's
    1/2-Mnet of the projection onto its nearest packing member.  The output
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
    t = 0
    power = Fraction(1)
    inv = 1 / eps
    while power < inv:
        power *= 1 + eta_p
        t += 1
    bands = [(i, (1 + eta_p) ** i * eps, eta_p * (1 + eta_p) ** i * eps) for i in range(t + 1)]
    if run_log is not None:
        run_log.append(
            {"op": "boost", "eta_prime": eta_p, "t": t, "eps": eps, "eta": eta, "bands": bands}
        )
    witness = {}
    for i in range(1, t + 1):
        eps_lo, eps_hi = bands[i - 1][1], bands[i][1]
        delta_i = bands[i][2]
        lo_int = ceil_frac(eps_lo * n)
        hi_int = ceil_frac(eps_hi * n) - 1 if i < t else n
        # Consecutive bands meet at ceil(eps_i*n) without overlapping, so no
        # band range has a piece yet.
        band = size_band(system.ranges, lo_int, hi_int)
        if not band:
            continue
        packing = greedy_delta_packing(system, floor_frac(delta_i * n), shallow_cap=hi_int)
        members = packing.members
        if not members:
            continue
        packed_members = bitsets.pack_masks(members, n)
        member_cache = {}
        for mask in band:
            row = bitsets.pack_masks([mask], n)[0]
            dists = bitsets.symdiff_counts(row, packed_members)
            p_i = int(np.argmin(dists))
            member = members[p_i]
            if member not in member_cache:
                proj = project(system, member)
                member_cache[member] = (proj, provider.mnet(proj.system, HALF))
            proj, fam = member_cache[member]
            local = bitsets.compress([mask], member)[0]
            piece_local = find_piece(fam.pieces, fam.witness.get(local), local, fam.lam)
            if piece_local is None:
                raise InternalInvariantError("verified Mnet has no piece for a heavy range")
            witness[mask] = proj.lift_mask(piece_local)
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


def small_set_container(system, eps, rho, provider, run_log=None):
    """rho-slack containers for a family of ranges of size <= eps*n.

    At each node (Z, S) the provider builds a heavy Mnet of the complements
    within Z at the node's own threshold; removing a piece shrinks Z by a
    constant factor, and a range is covered by the first node where its
    residual |Z \\ R| drops to rho*n.  Node universes are the covers.  The
    recursion depth is capped at ceil(1 + log(1/eps)/log(1/(1-Lambda/2)))
    (its sound generalization when rho < eps) and exceeding the cap is an
    internal error.
    """
    eps = Fraction(eps)
    rho = Fraction(rho)
    if not 0 < rho <= eps < 1:
        raise InputError(f"need 0 < rho <= eps < 1, got rho={rho}, eps={eps}")
    n = system.n
    size_cap = floor_frac(eps * n)
    for mask in system.ranges:
        if mask.bit_count() > size_cap:
            raise InputError("a base range exceeds eps*n; small-set containers do not apply")
    Lam = provider.heaviness
    shrink = 1 - Lam * rho / (eps + rho)
    depth_cap = math.ceil(1 + math.log(1 / eps) / math.log(1 / float(1 - Lam / 2)))
    if rho < eps:
        depth_cap = max(depth_cap, math.ceil(1 + math.log(1 / rho) / math.log(1 / float(shrink))))
    residual_over = floor_frac(rho * n)  # residual must be strictly above rho*n
    full = system.full_mask
    covers = []
    witness = {}
    max_depth = 1
    # Node = (universe mask, surviving ranges, depth).  Every live range lies
    # inside its node's universe: the root's is the full set, and a child
    # keeps only the ranges inside its own.
    stack = [(full, list(system.ranges), 1)]
    while stack:
        universe, live, depth = stack.pop()
        max_depth = max(max_depth, depth)
        covers.append(universe)
        u_size = universe.bit_count()
        survivors = []
        for mask in live:
            if u_size - mask.bit_count() <= residual_over:
                witness.setdefault(mask, universe)
            else:
                survivors.append(mask)
        if not survivors:
            continue
        if depth + 1 > depth_cap:
            raise InternalInvariantError(
                f"small-set container recursion exceeded its depth cap {depth_cap}"
            )
        eps_node = Fraction(max(m.bit_count() for m in survivors), u_size)
        local_comps = bitsets.compress([~m for m in survivors], universe)
        node_sys = SetSystem.from_masks(u_size, local_comps)
        fam = provider.mnet(node_sys, 1 - eps_node)
        children = []
        for piece in bitsets.expand(fam.pieces, universe):
            if piece == 0:
                continue
            child_universe = universe & ~piece
            child_live = [m for m in survivors if (m & child_universe) == m]
            if child_live:
                children.append((child_universe, child_live, depth + 1))
        for child in reversed(children):
            stack.append(child)
    if run_log is not None:
        run_log.append(
            {"op": "small-set-container", "eps": eps, "rho": rho, "depth_cap": depth_cap, "max_depth": max_depth}
        )
    fam = make_container(system, covers, eps + rho, witness=witness)
    return _checked(fam, "small_set_container")


# ---------------------------------------------------------------------------
# Bootstrapping a size band
# ---------------------------------------------------------------------------


def bootstrap_interval_mnet(system, eps, delta, provider, run_log=None):
    """(1-4*eps)-heavy delta-Mnet for the ranges of size in [delta*n, (1+eps)*delta*n].

    A maximal packing at separation eps*delta*n groups the band; within each
    member P the complements of the projected group ranges are small (at most
    eps' = 3*eps/(2+2*eps) of |P|), so small_set_container covers them and the
    complements of the covers inside P are the pieces.
    """
    eps = Fraction(eps)
    delta = Fraction(delta)
    if not 0 < eps <= HALF:
        raise InputError(f"eps must be in (0,1/2], got {eps}")
    if not eps < delta <= 1:
        raise InputError(f"delta must be in (eps,1], got {delta}")
    n = system.n
    lo_int = ceil_frac(delta * n)
    hi_int = min(n, floor_frac((1 + eps) * delta * n))
    band_masks = size_band(system.ranges, lo_int, hi_int)
    band = SetSystem(n, band_masks)
    lam_out = max(Fraction(0), 1 - 4 * eps)
    if not band_masks:
        return _checked(make_mnet(band, [], lam_out, delta, witness={}), "bootstrap")
    sep = floor_frac(eps * delta * n)
    packing = greedy_delta_packing(band, sep)
    eps_prime = 3 * eps / (2 + 2 * eps)
    if run_log is not None:
        run_log.append(
            {"op": "bootstrap", "eps": eps, "delta": delta, "eps_prime": eps_prime,
             "band": (lo_int, hi_int), "packing_size": len(packing.members)}
        )
    packed_band = bitsets.pack_masks(band.ranges, n)
    witness = {}
    for member in packing.members:
        member_row = bitsets.pack_masks([member], n)[0]
        dists = bitsets.symdiff_counts(member_row, packed_band)
        group = [
            band_masks[j] for j in np.flatnonzero(dists <= sep).tolist()
            if band_masks[j] not in witness
        ]
        if not group:
            continue
        p_size = member.bit_count()
        local_full = (1 << p_size) - 1
        comp_cap = floor_frac(eps_prime * p_size)
        local_comp = {}
        for mask, local in zip(group, bitsets.compress(group, member)):
            comp = local_full ^ local
            if comp.bit_count() > comp_cap:
                raise InternalInvariantError(
                    "projected complement exceeds the eps' bound inside a packing member"
                )
            local_comp[mask] = comp
        comp_sys = SetSystem.from_masks(p_size, set(local_comp.values()))
        cont = small_set_container(comp_sys, eps_prime, eps, provider, run_log=run_log)
        slack_cap = floor_frac(cont.eps * p_size)
        pieces_local = []
        for comp in local_comp.values():
            cover = find_cover(cont.covers, cont.witness.get(comp), comp, slack_cap)
            if cover is None:
                raise InternalInvariantError("verified container has no cover for a range")
            pieces_local.append(local_full ^ cover)
        witness.update(zip(local_comp, bitsets.expand(pieces_local, member)))
    fam = make_mnet(band, witness.values(), lam_out, delta, witness=witness)
    return _checked(fam, "bootstrap_interval_mnet")


# ---------------------------------------------------------------------------
# Arbitrarily heavy Mnets, containers, brackets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeavyMnetParams:
    """Derived parameters of the heaviness construction.

    eps0 = (1-lam)/4 exactly; t0 is the ceiled recursion budget
    1 + log(4/(1-lam))/log(1/(1-Lambda/2)); delta_seq/l_seq are the geometric
    band bottoms/tops delta_k = (1+eps0)^k * eta until the ladder reaches 1.
    band_ratio is the step actually used for the bands (eps0, dropping to
    eta/2 when eta <= eps0 so every band keeps its separation below its
    delta) and band_deltas the corresponding ladder.
    """

    lam: Fraction
    eta: Fraction
    heaviness: Fraction
    eps0: Fraction
    t0_raw: float
    t0: int
    delta_seq: tuple
    l_seq: tuple
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
        t0_raw = 1 + math.log(4 / float(1 - lam)) / math.log(1 / (1 - float(heaviness) / 2))
        ratio = eps0 if eta > eps0 else eta / 2

        def ladder(step):
            out = []
            d = eta
            while d < 1:
                out.append(d)
                d = (1 + step) * d
            return tuple(out)

        deltas = ladder(eps0)
        tops = tuple((1 + eps0) * d for d in deltas)
        return HeavyMnetParams(
            lam, eta, heaviness, eps0, t0_raw, math.ceil(t0_raw),
            deltas, tops, ratio, ladder(ratio),
        )


def heavy_mnet(system, lam, eta, provider, run_log=None):
    """lam-heavy eta-Mnet for any lam in (0,1): bootstrap each band of the
    geometric size ladder delta_k = (1+ratio)^k * eta and take the union."""
    params = HeavyMnetParams.from_targets(lam, eta, provider.heaviness)
    if run_log is not None:
        run_log.append({"op": "heavy-mnet", "params": params})
    witness = {}
    for delta_k in params.band_deltas:
        band_fam = bootstrap_interval_mnet(system, params.band_ratio, delta_k, provider, run_log=run_log)
        for mask, piece in band_fam.witness.items():
            witness.setdefault(mask, piece)
    fam = make_mnet(system, witness.values(), lam, eta, witness=witness)
    return _checked(fam, "heavy_mnet")


def build_container(system, eps, provider_complement, run_log=None):
    """eps-container: {X} for the big ranges, small-set containers for ranges
    up to (eps/2)*n, and complements of a (1-eps)-heavy eps-Mnet of the
    complement family for everything of size at most (1-eps)*n."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0,1), got {eps}")
    n = system.n
    full = system.full_mask
    covers = [full]
    witness = {}
    big_at = ceil_frac((1 - eps) * n)
    small_sys = filter_by_size(system, upper=eps / 2 * Fraction(n))
    if small_sys.ranges:
        c1 = small_set_container(small_sys, eps / 2, eps / 2, provider_complement, run_log=run_log)
        covers.extend(c1.covers)
    mfam = heavy_mnet(complement_family(system), 1 - eps, eps, provider_complement, run_log=run_log)
    for mask in system.ranges:
        if mask.bit_count() >= big_at:
            witness[mask] = full
            continue
        cover = full ^ mfam.witness[full ^ mask]
        covers.append(cover)
        witness[mask] = cover
    return _checked(make_container(system, covers, eps, witness=witness), "build_container")


def build_bracket(system, eps, provider, provider_complement, run_log=None):
    """eps-uniform bracket: upper sets from an (eps/2)-container, lower sets
    from a (1-eps/2)-heavy (eps/2)-Mnet of the system itself (empty set for
    ranges of size at most (eps/2)*n)."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0,1), got {eps}")
    n = system.n
    cont = build_container(system, eps / 2, provider_complement, run_log=run_log)
    mfam = heavy_mnet(system, 1 - eps / 2, eps / 2, provider, run_log=run_log)
    small_at = floor_frac(eps / 2 * Fraction(n))
    sets = [0]
    pairing = {}
    for mask in system.ranges:
        lower = 0 if mask.bit_count() <= small_at else mfam.witness[mask]
        pairing[mask] = (lower, cont.witness[mask])
        sets.extend(pairing[mask])
    return _checked(make_bracket(system, sets, eps, pairing=pairing), "build_bracket")
