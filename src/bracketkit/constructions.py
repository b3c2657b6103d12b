"""Construction stack for Mnets, containers and uniform brackets.

The pipeline is: a greedy cover of the heavy ranges by the ranges and
their pairwise intersections makes Mnets at the base provider's heaviness
Lambda; boosting turns 1/2-threshold Mnets into eps-threshold ones;
complementation swaps Mnets and containers; a removal recursion builds
containers for small ranges; bootstrapping lifts those to heavy Mnets on a
size band; banding over a geometric size ladder yields Mnets of arbitrary
heaviness, full container families and brackets.

Checks sit at the public boundary, under one rule: the outermost public
call checks what it returns (``_checked``), and nothing below it builds or
checks a family.  So a caller never receives an unverified family, and one
call makes one self-check.  A public construction that builds on another
calls that one's private core, which returns a witness map and no family:
``heavy_mnet`` is the core ``_heavy_witness`` and a check, and
``build_container`` is its small-set root, the core ``_container_witness``
and a check; ``build_bracket`` runs that one core on the system, for its
upper sets, and on the system's dual, the complement family, for its lower
sets, and on a system that is its own dual one run serves both.
``_heavy_witness`` and ``bootstrap_interval_mnet`` run the one band loop
``_bootstrap_bands``, and ``build_container`` enters the removal recursion
``_small_set_covers`` at its root, as ``small_set_container`` does.  The
private helpers ``_greedy_assignment``, ``_small_set_covers`` and
``_bootstrap_bands`` work on plain canonical mask lists and return steering
or witness data, not families: a member's Mnet in boosting and a node's Mnet
in the removal recursion only steer them, and a local container only hands
the band loop its witness covers.  Boosting and the band loop check each
range's own witness with ``find_piece``/``find_cover``, scanning nothing
else (their docstrings prove that the witness serves).

The one outer check covers what the caller receives.  A caller is promised
the family's definition, and a verifier checks it for every range of the
family's base (a witness is only a hint).  An inner witness reaches the
caller only as a set of the outer family, in the one role the outer family
gives it.  A container check reads every range's cover: in
``build_container`` a heavy piece's complement is a range's cover, so the
check reads it as that cover.  A bracket check reads every range's pair: in
``build_bracket`` a range's upper set is its cover in the system's
container and its lower set the complement of its complement's cover in
the dual's, so the check reads both as that range's pair.  An
inner check would verify a family that no caller receives.

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
from functools import reduce
from itertools import chain, combinations
from operator import and_

import numpy as np

from . import bitsets
from .errors import (
    MAX_LADDER_RUNGS,
    MAX_SERVING_CELLS,
    InputError,
    InternalInvariantError,
    PreconditionFailure,
    ResourceBudgetError,
    exact_fraction,
    within_budget,
)
from .families import make_bracket, make_container, make_mnet
from .packing import greedy_delta_packing
from .setsystem import SetSystem, canonical_rows, canonical_sort, complement_family, filter_by_size, size_band, size_band_slice
from .trace import note
from .verify import find_cover, find_piece, verify_family

HALF = Fraction(1, 2)
PAIR_CAP = 64
# The index pairs i < j below PAIR_CAP, ordered by j, so that the pairs of
# the first k indices are the first C(k, 2); made once, as
# np.triu_indices(k, 1) costs about 30 us a call (2-core machine).
_PAIR_SECOND, _PAIR_FIRST = np.tril_indices(PAIR_CAP, -1)
# base_mnet's greedy cover serves a one-pick input from the meet of its
# ranges, and otherwise runs its loop on Python ints up to this many serving
# cells (candidates x heavy ranges) and on numpy above.  A cover of more than
# sqrt(_INT_CELLS) heavy ranges has more cells than this whatever its pairs,
# so it makes its candidates as packed rows, never as a set.  Of the 9,620
# greedy covers of a seed-2 n=256 protocol context build, 7,711 are one-pick,
# 1,648 run the int loop and 261 the numpy loop, and 132 (41 one-pick, 91
# numpy) make rows.  Replayed both ways on that build's loop calls
# (tools/greedy_crossover.py: candidate set, order and loop, best of 9 per
# call), the int loop took 0.72 of the numpy loop's time at 385-512 cells,
# 0.81 at 513-640, 0.90 at 641-768, 0.99 at 769-896 and 1.04 at 897-1,024
# (2-core machine, Python 3.11): the loops break even between 769 and 896
# cells, as they did before the one-pick path.
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

    One pick needs no serving relation: when the meet of the heavy ranges
    (their AND) is a candidate of at least lam times the largest heavy
    range's size, it is the only candidate that serves every heavy range,
    the loop's first and last pick, and every range gets it
    (``_greedy_assignment`` has the proof).  Otherwise, up to
    ``_INT_CELLS`` cells the loop runs on Python ints, one per
    candidate with bit j set when it serves heavy[j]; larger inputs run it
    on the numpy serving matrix.  Both make the same picks.  The int loop
    counts a candidate's uncovered served ranges as popcount(row &
    uncovered), which is the numpy loop's running count, and ``max``
    returns the first index of the largest count, as ``np.argmax`` does.
    The int loop sorts its candidates with ``canonical_sort`` and the numpy
    loop takes their packed rows from ``canonical_rows``, which gives the
    same order.  So ties go to the first candidate in canonical order on
    both paths; each pick assigns its newly served ranges in ascending j on
    both, and the witness map and the pieces are the same.

    More than sqrt(``_INT_CELLS``) heavy ranges make more cells than the
    int loop takes, since every heavy range is a candidate, so such a cover
    makes its candidates as packed rows in canonical order from the start
    (the row gate).  There, the meet is a candidate exactly when the last
    row, the smallest candidate, has as many bits as the meet.
    """
    lam = exact_fraction(lam, "lam")
    eps = exact_fraction(eps, "eps")
    if not 0 < lam <= 1:
        raise InputError(f"lam must be in (0,1], got {lam}")
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps}")
    heavy = size_band(system.ranges, math.ceil(eps * system.n), system.n)
    assignment, _ = _greedy_assignment(heavy, lam, system.n)
    fam = make_mnet(system, assignment.values(), lam, eps, witness=assignment)
    return _checked(fam, "base_mnet")


def _greedy_assignment(heavy, lam, width, wanted=None, heavy_rows=None):
    """``base_mnet``'s greedy cover below its input checks and its heavy
    slice, on the canonical list ``heavy`` of the ranges to serve, masks
    that fit in ``width`` bits: the witness assignment (heavy range ->
    piece, in pick order) and the picked pieces in canonical order.
    ``base_mnet`` slices its heavy ranges at ceil(eps*n), boosting a
    member's traces at ceil(|P|/2); a small-set node passes all its ranges,
    which are all heavy at its threshold.  The pieces
    come from sorting the picked candidate positions: the int loop's
    candidates are ``canonical_sort``ed and the numpy loop's rows are
    ``canonical_rows``, so on both loops position order is canonical order.
    Nothing is verified here.  ``heavy_rows``, when given, are the
    ``pack_masks(heavy, width)`` rows, which the numpy paths then take
    instead of packing ``heavy`` again.

    Wanted ranges.  ``wanted``, a set of masks or None for every heavy
    range, names the heavy ranges whose pieces the caller reads.  Both
    loops end at the pick that gives the last wanted heavy range its piece
    (at once when none is wanted), so the assignment holds every wanted
    heavy range and the ranges served by the picks made so far, and the
    pieces are those picks.  Every wanted range gets the piece of the full
    cover: the loop is deterministic and a range keeps the piece of the
    first pick that serves it, so the shortened run makes the full run's
    first picks.  The candidates, the cell budget, the one-pick path and the
    tie rule do not depend on ``wanted``.  Boosting reads only its group's
    traces, and ignores the pieces.

    Rows.  There are at least len(heavy) candidates, the heavy ranges, so
    when len(heavy)**2 exceeds ``_INT_CELLS`` the int loop cannot run, and
    the candidates are made as ``pack_masks`` rows (``_candidate_rows``)
    instead of a set: the same candidates, in canonical order.  Below that
    gate they are the set ``_candidates``, which the int loop sorts and,
    over ``_INT_CELLS`` cells, ``canonical_rows`` packs for the numpy loop.
    Either way the budget counts the same cells.

    One pick.  Once the candidates pass the cell budget, the meet M of the
    heavy ranges (their AND) is served without a serving relation when it
    is a candidate heavy enough for heavy[0]: every range then gets M, in
    ascending j, and M is the one piece.  That is what either loop returns.
    Every candidate contains M, since it is a heavy range or the AND of
    two.  A candidate that serves every heavy range lies inside each of
    them, so inside M, and so it is M: no other candidate's count can
    reach len(heavy).  The need ceil(lam*|R|) is nondecreasing in |R| and
    heavy[0] is the largest range (``heavy`` is canonical), so an M heavy
    enough for heavy[0] serves every range.  Its count len(heavy) is then
    the unique maximum, the first pick is M, it assigns every range in
    ascending j, and the loop ends.  Conversely a single pick must serve
    every range, so every one-pick cover takes this path.  On rows, M is a
    candidate exactly when the last row, the smallest candidate, has |M|
    bits: a candidate contains M, so it is M exactly when it has |M| bits,
    and M would be the smallest."""
    rows = len(heavy) ** 2 > _INT_CELLS
    if heavy_rows is None and rows:
        heavy_rows = bitsets.pack_masks(heavy, width)
    cands = _candidate_rows(heavy_rows) if rows else _candidates(heavy)
    cells = len(cands) * len(heavy)
    within_budget(cells, MAX_SERVING_CELLS, "serving matrix cells (candidates x heavy ranges)")
    meet = reduce(and_, heavy, -1)  # -1 has every bit set; an empty heavy list has no candidate
    has_meet = np.bitwise_count(cands[-1]).sum() == meet.bit_count() if rows else meet in cands
    if has_meet and meet.bit_count() * lam.denominator >= heavy[0].bit_count() * lam.numerator:
        return dict.fromkeys(heavy, meet), [meet]
    if cells <= _INT_CELLS:
        return _int_greedy_cover(canonical_sort(cands), heavy, lam, wanted)
    if not rows:
        cands = canonical_rows(bitsets.pack_masks(list(cands), width))
        if heavy_rows is None:
            heavy_rows = bitsets.pack_masks(heavy, width)
    return _numpy_greedy_cover(cands, heavy, heavy_rows, lam, wanted)


def _candidates(heavy):
    """The greedy cover's candidate pieces, as a set: the heavy ranges and
    the pairwise ANDs of the first ``PAIR_CAP`` of them."""
    return set(heavy).union(a & b for a, b in combinations(heavy[:PAIR_CAP], 2))


def _candidate_rows(heavy_rows):
    """``_candidates`` as ``canonical_rows``, from the heavy ranges'
    ``pack_masks`` rows: the rows and the ANDs of the pairs of the first
    ``PAIR_CAP`` of them (a prefix of ``_PAIR_FIRST``, ``_PAIR_SECOND``)."""
    pairs = math.comb(min(len(heavy_rows), PAIR_CAP), 2)
    ands = heavy_rows[_PAIR_FIRST[:pairs]] & heavy_rows[_PAIR_SECOND[:pairs]]
    return canonical_rows(np.concatenate((heavy_rows, ands)))


def _int_greedy_cover(cands, heavy, lam, wanted=None):
    """The greedy cover with each candidate's served heavy ranges as one int
    (bit j for heavy[j]), under the serving test of ``_serving_matrix``,
    until no heavy range in ``wanted`` (every one when None) is uncovered."""
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
    pending = uncovered if wanted is None else sum(1 << j for j, r in enumerate(heavy) if r in wanted)
    while uncovered & pending:
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


def _numpy_greedy_cover(cands, heavy, heavy_rows, lam, wanted=None):
    """The greedy cover on the heavy-major ``_serving_matrix`` of the
    candidates, ``canonical_rows``, and ``heavy_rows``, the ``pack_masks``
    rows of ``heavy`` at the candidates' width, with a running count of the
    uncovered heavy ranges each candidate serves.  A pick's newly served
    ranges are the uncovered entries of its column, and their rows are
    what the counts lose.  Those rows ascend, and the size bands [lo_j,
    hi_j) of ``_serving_matrix`` are nondecreasing in j at both ends, so
    every true cell of the rows lies in the columns [lo of the first, hi
    of the last): only that slice of the counts is updated.  The picked
    rows are unpacked once, after the loop, and each assigns its newly
    served ranges in pick order, ascending j within a pick.  ``left``
    counts the uncovered heavy ranges in ``wanted`` (every one when None),
    and the loop ends when it reaches 0."""
    serves, counts, lo, hi = _serving_matrix(cands, heavy_rows, lam)
    picks = []
    served = []
    uncovered = np.ones(len(heavy), dtype=bool)
    pending = None if wanted is None else np.fromiter(map(wanted.__contains__, heavy), bool, len(heavy))
    left = len(heavy) if pending is None else np.count_nonzero(pending)
    while left:
        best = int(np.argmax(counts))
        newly = np.flatnonzero(serves[:, best] & uncovered)
        picks.append(best)
        served.append(newly.tolist())
        uncovered[newly] = False
        left -= len(newly) if pending is None else np.count_nonzero(pending[newly])
        a, b = lo[newly[0]], hi[newly[-1]]
        counts[a:b] -= serves[newly, a:b].sum(axis=0, dtype=np.int32)
    pieces = bitsets.unpack_masks(cands[picks])
    assignment = {heavy[j]: piece for piece, js in zip(pieces, served) for j in js}
    return assignment, [piece for _, piece in sorted(zip(picks, pieces))]


def _serving_matrix(cands, heavy_rows, lam):
    """serves[j, i] = candidate row i is inside range row j and heavy
    enough for it, as one heavy-major bool matrix, with its column sums
    (the ranges each candidate serves) and the size bands lo, hi.

    Both row arrays are in canonical order, so the candidates' sizes and the
    ranges' sizes descend.  A candidate serves range j only with a size
    in [ceil(lam*|R_j|), |R_j|], and those candidates are the columns
    [lo[j], hi[j]), from one ``np.searchsorted`` of each bound on the
    ascending negated sizes; both ends are nondecreasing in j.  The matrix
    starts all False, and a block of rows [a, b) within
    ``bitsets._BLOCK_CELLS`` cells tests only the columns [lo[a], hi[b-1]),
    the union of its rows' bands: the size test fills that slice and
    ``subset_matrix`` ANDs the subset test into it in place.  Every cell
    outside it is False by the band argument.  The column sums add up the
    tested slices as the blocks are filled.  It tests the ranges'
    complements inside the candidates': complementing every bit of the
    packed words reverses inclusion, which puts the ranges on the rows."""
    # A range's need ceil(lam*|R|) is at most |R|, while lam.numerator*|R| can
    # overflow int64: the need is an exact int ceiling (a Fraction per range
    # costs far more) and only sizes go to numpy, as int32 (a size of 2**31
    # would take a 256 MB mask), which halves the size test's cost.
    num, den = lam.numerator, lam.denominator
    range_sizes = np.bitwise_count(heavy_rows).sum(axis=1, dtype=np.int32)
    need = np.array([-(-s * num // den) for s in range_sizes.tolist()], dtype=np.int32)
    sizes = np.bitwise_count(cands).sum(axis=1, dtype=np.int32)
    lo = np.searchsorted(-sizes, -range_sizes, side="left")
    hi = np.searchsorted(-sizes, -need, side="right")
    serves = np.zeros((len(heavy_rows), len(cands)), dtype=bool)
    counts = np.zeros(len(cands), dtype=np.int32)
    flipped_ranges = ~heavy_rows
    flipped_cands = ~cands
    step = max(1, bitsets._BLOCK_CELLS // max(1, len(cands)))
    for a in range(0, len(heavy_rows), step):
        b = min(a + step, len(heavy_rows))
        c0, c1 = lo[a], hi[b - 1]
        block = serves[a:b, c0:c1]
        np.greater_equal(sizes[c0:c1], need[a:b, None], out=block)
        bitsets.subset_matrix(flipped_ranges[a:b], flipped_cands[c0:c1], out=block)
        counts[c0:c1] += block.sum(axis=0, dtype=np.int32)
    return serves, counts, lo, hi


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
        self.bound_log.append((exact_fraction(eps, "eps"), len(family.pieces)))
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
    the band top.  The ranges are packed once per call.  The band is grouped
    by nearest packing member, ties to the earliest member, as
    ``nearest_neighbor`` groups it, from one distance matrix of the band's
    rows against the members' rows per block (``_nearest_members``).  Per
    member P, the greedy cover at the provider's heaviness serves the
    ranges' distinct traces on P of at least ceil(|P|/2) elements, in P's
    indices: a 1/2-Mnet of the traces.  Each member's heavy traces are the
    heavy rows of the ranges' AND with P's row, deduplicated and ordered by
    ``canonical_rows`` (``_heavy_traces``), and the greedy cover takes
    those rows too; a member with more than sqrt(``_INT_CELLS``) of them,
    every member on circle-40, has its greedy cover make its candidates as
    rows.  The cover ends at the pick that serves the last of the traces
    R & P of P's group, the only ones read (``_greedy_assignment`` shows
    that each gets the piece of the full cover): on the seed-2 circle-40
    system at eps = 1/5 its 124 member covers make 317 picks in place of
    1,823.  A range R of P's group takes the piece that the greedy cover
    assigned to its trace R & P, and ``find_piece`` confirms it there
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
    eps = exact_fraction(eps, "eps")
    eta = exact_fraction(eta, "eta")
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
    packed = bitsets.pack_masks(system.ranges, n)
    witness = {}
    for i in range(1, t + 1):
        eps_lo, eps_hi = bands[i - 1][1], bands[i][1]
        delta_i = bands[i][2]
        lo_int = math.ceil(eps_lo * n)
        hi_int = math.ceil(eps_hi * n) - 1 if i < t else n
        # Consecutive bands meet at ceil(eps_i*n) without overlapping, so no
        # band range has a piece yet.
        rows = size_band_slice(system.ranges, lo_int, hi_int)
        band = system.ranges[rows]
        if not band:
            continue
        packing = greedy_delta_packing(system, math.floor(delta_i * n), shallow_cap=hi_int)
        nearest = _nearest_members(packed[rows], bitsets.pack_masks(packing.members, n))
        groups = {}
        for mask, k in zip(band, nearest):
            groups.setdefault(k, []).append(mask)
        for k, group in groups.items():
            member = packing.members[k]
            heavy, heavy_rows = _heavy_traces(packed, member)
            traces = {mask & member for mask in group}
            assignment, _ = _greedy_assignment(heavy, provider.heaviness, member.bit_length(), traces, heavy_rows)
            for mask in group:
                trace = mask & member
                piece = find_piece((), assignment.get(trace), trace, provider.heaviness)
                if piece is None:
                    raise InternalInvariantError("Mnet has no piece for a heavy range")
                witness[mask] = piece
    fam = make_mnet(system, witness.values(), lam_out, eps, witness=witness)
    return _checked(fam, "boost_epsilon")


def _nearest_members(rows, member_rows):
    """The position in ``member_rows`` of each of the ``rows``' nearest
    member, the first of least symmetric difference, as ``nearest_neighbor``
    finds it: its ``min`` keeps the first minimum over the members in
    admission order, and so does ``argmin`` over their rows in that order.
    One ``symdiff_counts`` matrix per block of rows within
    ``bitsets._BLOCK_CELLS`` cells (at least one row)."""
    step = max(1, bitsets._BLOCK_CELLS // len(member_rows))
    return [k for a in range(0, len(rows), step)
            for k in bitsets.symdiff_counts(rows[a : a + step], member_rows).argmin(axis=1).tolist()]


def _heavy_traces(packed, member):
    """A packing member P's heavy traces, the distinct R & P of at least
    ceil(|P|/2) elements, in canonical order, as masks and as their rows
    at P's own width, ``pack_masks(traces, P.bit_length())``, from
    ``packed``, the ``pack_masks`` rows of the ranges R.  The masks are
    ``size_band(canonical_sort({R & P}), ceil(|P|/2), |P|)``: a filter by
    size commutes with dedup and with the canonical order, and no trace has
    more than |P| elements.  The AND of the ranges' words below P's width
    with P's row runs in blocks of rows within ``bitsets._BLOCK_CELLS``
    cells, ``canonical_rows`` dedups and orders the heavy rows, and one
    ``unpack_masks`` returns their masks."""
    member_row = bitsets.pack_masks([member], member.bit_length())
    need = math.ceil(HALF * member.bit_count())
    step = max(1, bitsets._BLOCK_CELLS // packed.shape[1])
    heavy = []
    for a in range(0, len(packed), step):
        traces = packed[a : a + step, : member_row.shape[1]] & member_row
        heavy.append(traces[np.bitwise_count(traces).sum(axis=1) >= need])
    rows = canonical_rows(np.concatenate(heavy))
    return bitsets.unpack_masks(rows), rows


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
    delta0 = exact_fraction(delta0, "delta0")
    lam = exact_fraction(lam, "lam")
    if not 0 < delta0 <= 1:
        raise InputError(f"delta0 must be in (0,1], got {delta0}")
    if not 0 < lam <= 1:
        raise InputError(f"lam must be in (0,1], got {lam}")
    small = filter_by_size(system, upper=delta0 * Fraction(system.n))
    candidate = make_mnet(complement_family(small), mnet.pieces, lam, 1 - delta0)
    covers = _complements(
        candidate, candidate.pieces, f"{lam}-heavy {1 - delta0}-Mnet of the complemented small ranges")
    return _checked(make_container(small, covers, 1 - lam + lam * delta0), "mnet_to_container")


def container_to_mnet(system, container, delta0, lam):
    """Complement a container for small ranges into a heavy Mnet of their complements.

    Input contract (verified): covers form a (1-lam)-container for the ranges
    of size <= delta0*n; needs lam > delta0, else the resulting heaviness
    lam - delta0 would be nonpositive.
    """
    delta0 = exact_fraction(delta0, "delta0")
    lam = exact_fraction(lam, "lam")
    if not 0 < delta0 <= 1:
        raise InputError(f"delta0 must be in (0,1], got {delta0}")
    if lam <= delta0:
        raise InputError(f"need lam > delta0, got lam={lam}, delta0={delta0}")
    if lam > 1:
        raise InputError(f"lam must be at most 1, got {lam}")
    small = filter_by_size(system, upper=delta0 * Fraction(system.n))
    candidate = make_container(small, container.covers, 1 - lam)
    pieces = _complements(candidate, candidate.covers, f"{1 - lam}-container for the small ranges")
    return _checked(make_mnet(complement_family(small), pieces, lam - delta0, 1 - delta0), "container_to_mnet")


def _complements(candidate, sets, what):
    """The complements of ``sets``, the candidate's own sets, once the
    candidate verifies; else PreconditionFailure that names ``what``, the
    family the candidate had to be, with the counterexample and the report."""
    report = verify_family(candidate)
    if not report.passed:
        raise PreconditionFailure(f"input is not a {what}: counterexample {report.counterexample}", report)
    full = candidate.base.full_mask
    return [full ^ s for s in sets]


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
    eps = exact_fraction(eps, "eps")
    rho = exact_fraction(rho, "rho")
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

    The input checks, then the band loop ``_bootstrap_bands`` over the one
    band of ``delta``.  Every band range gets a witness piece or the loop
    raises, so the witness map's keys are the band, the family's base.  The
    family is verified.
    """
    eps = exact_fraction(eps, "eps")
    delta = exact_fraction(delta, "delta")
    if not 0 < eps <= HALF:
        raise InputError(f"eps must be in (0,1/2], got {eps}")
    if not eps < delta <= 1:
        raise InputError(f"delta must be in (eps,1], got {delta}")
    witness = _bootstrap_bands(system, eps, [delta], provider.heaviness)
    band = SetSystem(system.n, tuple(canonical_sort(witness)))
    fam = make_mnet(band, witness.values(), max(Fraction(0), 1 - 4 * eps), delta, witness=witness)
    return _checked(fam, "bootstrap_interval_mnet")


def _bootstrap_bands(system, eps, deltas, heaviness):
    """The band loop of ``bootstrap_interval_mnet`` and ``_heavy_witness``, below
    their input checks: the witness map (band range -> piece) of the bands
    [delta*n, (1+eps)*delta*n] of the Fractions ``deltas``, served in order.
    A range in two bands keeps its first band's piece (``setdefault``), and
    an empty band is skipped.  Each non-empty band notes itself; nothing is
    verified here beyond each range's own witness.

    A maximal packing at separation eps*delta*n groups a band: a range is
    served through the first member within the separation, as recorded in
    ``Packing.groups``.  Within each member P the complements P & ~R of
    the group ranges are small (at most eps' = 3*eps/(2+2*eps) of |P|), so
    the small-set recursion covers them in the universe P, and the
    complements of the covers inside P are the pieces.  The recursion runs
    on the deduplicated, canonically sorted complements (two group ranges
    can share P & ~R); ``find_cover`` checks each range's witness cover,
    and scans no other cover.  All groups of all bands share eps', eps and
    the heaviness, so eps', eps' + eps (whose integer floors at |P| are a
    group's bounds) and the recursion's depth cap (``_depth_cap``) are
    computed once per call, before the band loop.  For eps in (0, 1/2] and
    the provider's heaviness 1/2 the cap's shrink lies in [3/4, 4/5), so
    computing it with every band empty raises nothing.

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
    The piece is P ^ 0 = P.  The outermost public call still checks every
    piece that reaches its family.
    """
    n = system.n
    eps_prime = 3 * eps / (2 + 2 * eps)
    slack = eps_prime + eps
    depth_cap = _depth_cap(eps_prime, eps, heaviness)
    witness = {}
    for delta in deltas:
        lo_int = math.ceil(delta * n)
        hi_int = min(n, math.floor((1 + eps) * delta * n))
        band = SetSystem(n, size_band(system.ranges, lo_int, hi_int))
        if not band.ranges:
            continue
        packing = greedy_delta_packing(band, math.floor(eps * delta * n))
        note(op="bootstrap", eps=eps, delta=delta, eps_prime=eps_prime,
             band=(lo_int, hi_int), packing_size=len(packing.members))
        for member, group in zip(packing.members, packing.groups):
            if len(group) == 1:
                witness.setdefault(member, member)
                continue
            p_size = member.bit_count()
            comps = [member & ~mask for mask in group]
            if max(comp.bit_count() for comp in comps) > eps_prime.numerator * p_size // eps_prime.denominator:
                raise InternalInvariantError(
                    "projected complement exceeds the eps' bound inside a packing member"
                )
            _, cover_of = _small_set_covers(canonical_sort(set(comps)), member, eps_prime, eps, heaviness, depth_cap)
            slack_cap = slack.numerator * p_size // slack.denominator
            for mask, comp in zip(group, comps):
                cover = find_cover((), cover_of.get(comp), comp, slack_cap)
                if cover is None:
                    raise InternalInvariantError("local container has no cover for a range")
                witness.setdefault(mask, member ^ cover)
    return witness


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
        lam = exact_fraction(lam, "lam")
        eta = exact_fraction(eta, "eta")
        heaviness = exact_fraction(heaviness, "heaviness")
        if not 0 < lam < 1 or not 0 < eta < 1:
            raise InputError("lam and eta must lie in (0,1)")
        eps0 = (1 - lam) / 4
        ratio = eps0 if eta > eps0 else eta / 2
        # The ladder goes first: it refuses a ratio that is 0 as a float, and
        # 1 - lam >= 4*ratio, so t0_raw then never divides by 0.
        band_deltas = tuple(_ladder(eta, ratio)[:-1])
        t0_raw = 1 + math.log(4 / float(1 - lam)) / math.log(1 / (1 - float(heaviness) / 2))
        return HeavyMnetParams(lam, eta, heaviness, eps0, t0_raw, math.ceil(t0_raw), ratio, band_deltas)


def _heavy_witness(system, lam, eta, heaviness):
    """The core of ``heavy_mnet``: the witness map (range of size at least
    eta*n -> piece) of its lam-heavy eta-Mnet, unverified.  One band loop
    (``_bootstrap_bands``) bootstraps each band of the geometric size ladder
    delta_k = (1+ratio)^k * eta in order, and a range in two bands keeps its
    first band's piece.  Every band lies within ``bootstrap_interval_mnet``'s
    input bounds: ratio <= eps0 < 1/4, ratio < eta <= delta_k < 1, and lam
    is at most every band's 1 - 4*ratio."""
    params = HeavyMnetParams.from_targets(lam, eta, heaviness)
    note(op="heavy-mnet", params=params)
    return _bootstrap_bands(system, params.band_ratio, params.band_deltas, heaviness)


def heavy_mnet(system, lam, eta, provider):
    """lam-heavy eta-Mnet for any lam in (0,1): the pieces of
    ``_heavy_witness``, verified once at lam; the check reads every band
    range's piece."""
    witness = _heavy_witness(system, lam, eta, provider.heaviness)
    return _checked(make_mnet(system, witness.values(), lam, eta, witness=witness), "heavy_mnet")


def _container_witness(system, eps, heaviness):
    """The core of ``build_container``: the witness map (range -> cover) of
    an eps-container, unverified.  A big range, of size at least
    ceil((1-eps)*n), gets the full set X; every other range F gets X ^ p for
    the piece p that ``_heavy_witness`` gives its complement X ^ F in a
    (1-eps)-heavy eps-Mnet of the complement family.  |X ^ F| >= eps*n, so
    that piece exists, and p inside X ^ F with |p| >= (1-eps)*|X ^ F| puts F
    inside X ^ p with at most eps*|X ^ F| <= eps*n extra elements."""
    full = system.full_mask
    pieces = _heavy_witness(complement_family(system), 1 - eps, eps, heaviness)
    witness = dict.fromkeys(size_band(system.ranges, math.ceil((1 - eps) * system.n), system.n), full)
    witness.update((mask, full ^ pieces[full ^ mask]) for mask in system.ranges[len(witness):])
    return witness


def build_container(system, eps, provider_complement):
    """eps-container: the covers of the small-set recursion
    (``_small_set_covers``, as ``small_set_container`` runs it at eps = rho
    = eps/2) for the ranges up to (eps/2)*n, whose root cover is the full
    set, and the witness covers of ``_container_witness``; verified once."""
    eps = exact_fraction(eps, "eps")
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0,1), got {eps}")
    half, heaviness = eps / 2, provider_complement.heaviness
    small = size_band(system.ranges, 0, math.floor(half * system.n))
    covers, _ = _small_set_covers(small, system.full_mask, half, half, heaviness, _depth_cap(half, half, heaviness))
    witness = _container_witness(system, eps, heaviness)
    return _checked(make_container(system, [*covers, *witness.values()], eps, witness=witness), "build_container")


def build_bracket(system, eps, provider, provider_complement):
    """eps-uniform bracket, verified once: the witness covers of an
    (eps/2)-container of the system are the upper sets, and the complements
    of those of an (eps/2)-container of its dual, the complement family, are
    the lower sets.  A range F gets the pair (X ^ C, U) for its cover U and
    the cover C of X ^ F; both containers come from ``_container_witness``.
    F lies inside U with |U \\ F| <= floor(eps*n/2), and X ^ F inside C with
    |C \\ (X ^ F)| = |F \\ (X ^ C)| <= floor(eps*n/2).  So X ^ C lies
    inside F, and |U \\ (X ^ C)| <= floor(eps*n/2) + floor(eps*n/2) <=
    floor(eps*n).

    The dual's core runs ``_heavy_witness`` on the dual's complement
    family, which is the system itself (complementing is an involution on
    the range tuple).  So F's lower set is its piece in a (1-eps/2)-heavy
    (eps/2)-Mnet of the system, except where |F| <= floor(eps*n/2): X ^ F is
    then big in the dual, of size at least ceil((1-eps/2)*n), so its cover
    is X and F's lower set the empty set.  When the dual has the system's
    ranges (every planar halfspace system does) and both providers one
    heaviness, the two cores make the same call, so the system's container
    serves as the dual's and one band loop serves both.  The bracket runs no
    small-set root: ``build_container``'s root covers are no range's
    witness, so no bracket set came from them."""
    eps = exact_fraction(eps, "eps")
    if not 0 < eps < 1:
        raise InputError(f"eps must be in (0,1), got {eps}")
    full, dual, half = system.full_mask, complement_family(system), eps / 2
    upper = _container_witness(system, half, provider_complement.heaviness)
    self_dual = dual == system and provider.heaviness == provider_complement.heaviness
    lower = upper if self_dual else _container_witness(dual, half, provider.heaviness)
    pairing = {mask: (full ^ lower[full ^ mask], upper[mask]) for mask in system.ranges}
    sets = [0, *chain.from_iterable(pairing.values())]
    return _checked(make_bracket(system, sets, eps, pairing=pairing), "build_bracket")
