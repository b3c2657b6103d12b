"""Deterministic two-party protocol simulators over a known point domain.

Both parties share the domain U, the halfspace range family over U, and a
canonical hypothesis list: the covers of an eps0-container for the ranges,
followed by the other ranges (the fallback block: every range is a
hypothesis, so one is consistent whenever the labeled set is realizable, and
the protocol aborts exactly on non-realizable inputs).  Messages carry exact
bit costs: a counterexample is a domain index plus a label bit, an OK is one
flag bit, a family index costs max(1, ceil(log2(family size))) bits, so an
index into a family of one hypothesis still costs one bit.
"""

import json
import math
import numbers
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

import numpy as np

from .bitsets import bit_matrix
from .constructions import build_container, default_provider
from .errors import InputError, InternalInvariantError, NonRealizableError, exact_fraction, json_int
from .geometry import PointSet, enumerate_halfspace_ranges
from .lp import solve_equality_feasibility

_COLUMN_BLOCK = 4096  # masks unpacked at a time; a multiple of 8, so a block fills whole bytes

@dataclass(frozen=True)
class LearningInstance:
    """Labeled examples split between the parties; labels are +1/-1 on domain
    indices.  Instances are generated realizable (a halfspace separates the
    positives from the negatives) and checked by the hull oracle in tests."""

    domain: PointSet
    alice: tuple
    bob: tuple


@dataclass(frozen=True)
class DisjointnessInstance:
    """Domain indices split between the parties; the question is whether the
    convex hulls of the two point sets intersect."""

    domain: PointSet
    alice: tuple
    bob: tuple


@dataclass(frozen=True)
class Message:
    sender: str
    kind: str
    payload: object
    bits: int


@dataclass(frozen=True)
class Transcript:
    messages: tuple

    @property
    def total_bits(self):
        return sum(m.bits for m in self.messages)

    @property
    def rounds(self):
        return sum(1 for m in self.messages if m.sender == "alice")

    def to_jsonl(self):
        return "".join(json.dumps(asdict(m)) + "\n" for m in self.messages)


@dataclass(frozen=True)
class Classifier:
    """Domain classifier x -> +1 iff index in the positive mask."""

    positive_mask: int
    n: int

    def __call__(self, index):
        _check_index(index, self.n, "index")
        return 1 if self.positive_mask >> index & 1 else -1


@dataclass(frozen=True)
class SharedContext:
    """State both parties can derive on their own: range family + hypothesis list."""

    system: object
    hypotheses: tuple
    cover_count: int

    @staticmethod
    def from_covers(system, covers):
        """The cover block first (the compressed class), then the other
        ranges, in their canonical order, as the consistency fallback."""
        covers = tuple(covers)
        seen = set(covers)
        return SharedContext(system, covers + tuple(m for m in system.ranges if m not in seen), len(covers))

    @cached_property
    def columns(self):
        """``(rcol, ccol, cover_ranges)``, built on the context's first round
        and dropped with it: bit j of ``rcol[p]`` (``ccol[p]``) is set when
        range (cover) j contains point p, and bit i of ``cover_ranges`` when
        range i is also a cover."""
        ranges, covers = self.system.ranges, self.hypotheses[: self.cover_count]
        seen = set(covers)
        flags = np.packbits(np.fromiter((m in seen for m in ranges), bool, len(ranges)), bitorder="little")
        n = self.system.n
        return _point_columns(ranges, n), _point_columns(covers, n), int.from_bytes(flags.tobytes(), "little")


def _point_columns(masks, n):
    """For each of the n points, the int whose bit j is set when masks[j]
    contains the point: each block's ``bit_matrix`` transposed and packed."""
    cols = np.empty((n, (len(masks) + 7) // 8), np.uint8)
    for start in range(0, len(masks), _COLUMN_BLOCK):
        block = bit_matrix(masks[start:start + _COLUMN_BLOCK], n).T
        cols[:, start // 8:(start + _COLUMN_BLOCK) // 8] = np.packbits(block, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in cols]


@lru_cache(maxsize=8)
def shared_protocol_context(domain, eps0):
    system = enumerate_halfspace_ranges(domain)
    return SharedContext.from_covers(system, build_container(system, eps0, default_provider()).covers)


def _check_index(i, n, what):
    """Refuse ``i`` unless it is an int (a bool is not) in [0, n)."""
    if not 0 <= json_int(i, what) < n:
        raise InputError(f"{what} {i} outside domain")


def _index_cost(n):
    """Bits to name one of n items: ceil(log2(n)), and 0 for n <= 1."""
    return max(n - 1, 0).bit_length()


def _first_error(examples, cover, witness_range):
    """Lowest-index example misclassified by the cover, or positive outside
    the witness range (positives must end up inside the separating range)."""
    for idx, label in examples:
        if label > 0:
            if not witness_range >> idx & 1:
                return (idx, label)
        else:
            if cover >> idx & 1:
                return (idx, label)
    return None


def _pick_hypothesis(ctx, r_alive, c_alive):
    """The round's hypothesis: (its index in ``ctx.hypotheses``, the
    hypothesis, its witness range), given the consistent ranges ``r_alive``
    and the consistent covers ``c_alive`` as bit sets over range and cover
    positions.

    It is the first consistent cover that contains a consistent range, with
    the first such range as witness.  The covers are visited lowest bit
    first.  A range is inside a cover exactly when it meets no point
    outside it, that is, when its bit is in no column of an outside point:
    not in the spill, the OR of those columns.  So a visit first tests the
    consistent ranges in bit order, one ``ranges[i] & outside`` each, and
    returns the first that passes.  It stops after as many tests as the
    cover has outside points, the number of ORs the spill takes; then it
    builds the spill and takes the lowest untested consistent range whose
    bit is not in it, if there is one.  Both find the lowest consistent
    range inside the cover, the lowest bit of ``r_alive & ~spill``, and a
    visit costs at most about twice the spill alone.  Only the cover block
    needs a search: when no cover qualifies, no consistent range is a cover
    (it would contain itself), so the first consistent range is the first
    consistent hypothesis of the fallback block and its own witness.  Its
    index is past the covers, at its position among the ranges that are
    not covers.
    """
    rcol, _, cover_ranges = ctx.columns
    ranges = ctx.system.ranges
    while c_alive:
        low = c_alive & -c_alive
        j = low.bit_length() - 1
        cover = ctx.hypotheses[j]
        outside = ctx.system.full_mask ^ cover
        untested, tests = r_alive, outside.bit_count()
        while untested and tests:
            i = (untested & -untested).bit_length() - 1
            if not ranges[i] & outside:
                return j, cover, ranges[i]
            untested &= untested - 1
            tests -= 1
        if untested:
            spill = 0
            while outside:
                point = outside & -outside
                spill |= rcol[point.bit_length() - 1]
                outside ^= point
            inside = untested & ~spill
            if inside:
                return j, cover, ranges[(inside & -inside).bit_length() - 1]
        c_alive ^= low
    i = (r_alive & -r_alive).bit_length() - 1
    return ctx.cover_count + i - (cover_ranges & ((1 << i) - 1)).bit_count(), ranges[i], ranges[i]


def _rounds(ctx, alice, bob):
    """Learning rounds on a shared context; the examples are sorted and
    valid.  Returns the agreed (hypothesis index, hypothesis, transcript).

    The parties keep the ranges and the covers that are consistent with the
    labels so far as two bit sets, bit j for range or cover j, and a
    counterexample (p, label) ANDs each with the column of the items that
    contain p (label +1) or exclude it (label -1).  The picks are those of
    re-testing every mask against all labels each round: labels only
    accumulate, bit order is canonical order, a cover qualifies exactly when
    its bit survives, and the protocol aborts exactly when no range bit is
    left.  At most 2n + 2 rounds run (see ``learn_halfspace_protocol``).
    """
    n = ctx.system.n
    rcol, ccol, _ = ctx.columns
    r_alive = (1 << len(ctx.system.ranges)) - 1
    c_alive = (1 << ctx.cover_count) - 1
    ce_cost = _index_cost(n) + 1
    history = []
    messages = []
    for _ in range(2 * n + 2):
        if not r_alive:
            raise NonRealizableError(
                "no halfspace range is consistent with the exchanged examples",
                certificate=history,
                transcript=Transcript(tuple(messages)),
            )
        index, cover, witness_range = _pick_hypothesis(ctx, r_alive, c_alive)
        for sender, examples in (("alice", alice), ("bob", bob)):
            error = _first_error(examples, cover, witness_range)
            if error is not None:
                messages.append(Message(sender, "counterexample", list(error), ce_cost))
                history.append(error)
                idx, label = error
                if label > 0:
                    r_alive &= rcol[idx]
                    c_alive &= ccol[idx]
                else:
                    r_alive &= ~rcol[idx]
                    c_alive &= ~ccol[idx]
                break
            messages.append(Message(sender, "ok", None, 1))
        else:
            return index, cover, Transcript(tuple(messages))
    raise InternalInvariantError("protocol did not terminate within its round budget")


def _run_learning(domain, alice, bob, eps0):
    """Sort the checked examples and run the rounds on the domain's shared
    context."""
    alice = tuple(sorted(map(tuple, alice)))
    bob = tuple(sorted(map(tuple, bob)))
    ctx = shared_protocol_context(domain, exact_fraction(eps0, "eps0"))
    return ctx, *_rounds(ctx, alice, bob)


def learn_halfspace_protocol(inst, eps0):
    """Counterexample-driven search over the shared hypothesis list.

    Each round both parties select the first hypothesis consistent with the
    exchanged labeled set that contains a consistent halfspace range (the
    consistent ranges and covers are bit sets that narrow by one AND with a
    per-point column at each counterexample); Alice then Bob either send
    their lowest-index counterexample or a 1-bit OK.  Two OKs terminate.
    Raises NonRealizableError (with the inconsistent subset as certificate)
    when no consistent range is left.

    The pick is not a halving step: nothing bounds how many consistent
    ranges a counterexample removes.  The only proven bound is the loop's
    2n + 2 rounds.  A counterexample is a point outside the consistent
    witness range labeled +1, or inside the consistent cover labeled -1, so
    it adds a (point, label) pair the exchanged set lacks; there are at most
    2n such pairs, then one round of two OKs.
    """
    n = inst.domain.n
    alice, bob = tuple(inst.alice), tuple(inst.bob)
    # Each example must be a two-item list or tuple of an index and a label;
    # all are checked, in the given order, before any sorting or context work.
    for example in alice + bob:
        if not isinstance(example, (list, tuple)) or len(example) != 2:
            raise InputError(f"example {example!r} is not an [index, label] pair")
        idx, label = example
        _check_index(idx, n, "example index")
        if type(label) is not int or label not in (1, -1):
            raise InputError(f"label must be +1 or -1, got {label}")
    _, _, cover, transcript = _run_learning(inst.domain, alice, bob, eps0)
    return Classifier(cover, n), transcript


def convex_disjointness_protocol(inst, eps0):
    """Decide whether the parties' convex hulls intersect.

    Runs the learning protocol on the induced labeling (Alice +1, Bob -1).
    An abort certifies that no halfspace range separates the sets, i.e. the
    hulls intersect; termination yields a separating range inside the agreed
    cover, announced as a family index, i.e. the hulls are disjoint.
    Every index is checked, in the given order, before it gets its label.
    """
    for i in (*inst.alice, *inst.bob):
        _check_index(i, inst.domain.n, "index")
    alice = tuple((i, 1) for i in inst.alice)
    bob = tuple((j, -1) for j in inst.bob)
    try:
        ctx, index, _, transcript = _run_learning(inst.domain, alice, bob, eps0)
    except NonRealizableError as err:
        return "intersecting", err.transcript
    announce = Message("alice", "family_index", index, max(1, _index_cost(len(ctx.hypotheses))))
    return "disjoint", Transcript(transcript.messages + (announce,))


# ---------------------------------------------------------------------------
# Exact hull intersection oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HullResult:
    """Either a common point of the two hulls, or a strictly separating
    functional (w, c) with w.x < c on the first hull and w.x > c on the second."""

    intersecting: bool
    witness: tuple = None
    functional: tuple = None


def exact_hull_intersection(domain, a, b):
    """Decide conv(a-points) cap conv(b-points) by exact LP feasibility.

    Every index must be an int (a bool is not) in [0, domain.n); the first
    one that is not, in the given order, is refused with InputError.  A
    separating functional is checked on every point of both sets before it
    is returned, and one that fails raises InternalInvariantError."""
    a, b = tuple(a), tuple(b)
    for i in a + b:
        _check_index(i, domain.n, "index")
    a = sorted(set(a))
    b = sorted(set(b))
    d = domain.dim
    if not a or not b:
        e1 = tuple(Fraction(1) if k == 0 else Fraction(0) for k in range(d))
        proj = [domain.points[i][0] for i in a + b]
        c = min(proj, default=Fraction(1)) - 1 if not a else max(proj) + 1
        return HullResult(False, functional=(e1, c))
    # Point p = num/den enters as the integer column (num, den) of the
    # coordinate and convexity rows: p's column (p, 1) scaled by den > 0.
    # That multiplies the column's reduced cost, and every ratio-test ratio
    # it takes part in, by the same positive factor, so Bland's rule makes
    # the same pivots; the weight mu = lambda/den gives the witness
    # sum(mu * num).
    ints = domain.int_points
    pa = [ints[i] for i in a]
    pb = [ints[j] for j in b]
    rows = []
    for k in range(d):
        rows.append([num[k] for num, _ in pa] + [-num[k] for num, _ in pb])
    rows.append([den for _, den in pa] + [0] * len(pb))
    rows.append([0] * len(pa) + [den for _, den in pb])
    rhs = [0] * d + [1, 1]
    status, cert = solve_equality_feasibility(rows, rhs)
    if status == "feasible":
        # At most d + 2 weights are basic, so only they enter the sum.  Over
        # L, the lcm of their denominators, each weight is the integer
        # w = mu * L, and coordinate k is the one Fraction sum(w * num[k]) / L.
        weighted = [(mu, num) for mu, (num, _) in zip(cert, pa) if mu]
        scale = math.lcm(*(mu.denominator for mu, _ in weighted))
        weights = [mu.numerator * (scale // mu.denominator) for mu, _ in weighted]
        point = tuple(Fraction(sum(map(mul, weights, coords)), scale)
                      for coords in zip(*(num for _, num in weighted)))
        return HullResult(True, witness=point)
    w = cert[:d]
    alpha, beta = cert[d], cert[d + 1]
    # Farkas gives w.p <= -alpha on conv(a) and w.q >= beta on conv(b) with
    # -alpha < beta; split the gap for a strict threshold.
    c = (beta - alpha) / 2
    # Checked before it is returned, in integers: with L the lcm of the
    # denominators of w and c, w.p < c at p = num/den is (L*w).num < (L*c)*den.
    scale = math.lcm(c.denominator, *(v.denominator for v in w))
    big_w = [v.numerator * (scale // v.denominator) for v in w]
    big_c = c.numerator * (scale // c.denominator)
    gaps = [sum(map(mul, big_w, num)) - big_c * den for num, den in pa + pb]
    if max(gaps[:len(pa)]) >= 0 or min(gaps[len(pa):]) <= 0:
        raise InternalInvariantError("hull functional does not strictly separate the two point sets")
    return HullResult(False, functional=(tuple(w), c))


# ---------------------------------------------------------------------------
# Seeded instance generators
# ---------------------------------------------------------------------------


def realizable_learning_instance(domain, seed, labeled_share=0.8):
    """Seeded realizable instance: labels come from an actual halfspace cut,
    points are split between Alice, Bob and unlabeled.  An empty domain
    gives the empty instance.  A seed that is not an int, or a share that
    is not a real number in [0, 1] (a bool, a str and NaN are not), raises
    InputError; a valid share is used as given."""
    json_int(seed, "seed")
    if (isinstance(labeled_share, bool) or not isinstance(labeled_share, numbers.Real)
            or not 0 <= labeled_share <= 1):
        raise InputError(f"labeled_share {labeled_share!r} is not a real number in [0, 1]")
    if not domain.points:
        return LearningInstance(domain, (), ())
    rng = random.Random(seed)
    d = domain.dim
    while True:
        w = tuple(Fraction(rng.randint(-8, 8)) for _ in range(d))
        if any(w):
            break
    proj = sorted({sum(wk * xk for wk, xk in zip(w, p)) for p in domain.points})
    if len(proj) == 1:
        threshold = proj[0] - 1
    else:
        cut = rng.randrange(1, len(proj))
        threshold = (proj[cut - 1] + proj[cut]) / 2
    alice = []
    bob = []
    for i, p in enumerate(domain.points):
        roll = rng.random()
        if roll >= labeled_share:
            continue
        label = 1 if sum(wk * xk for wk, xk in zip(w, p)) > threshold else -1
        if roll < labeled_share / 2:
            alice.append((i, label))
        else:
            bob.append((i, label))
    return LearningInstance(domain, tuple(alice), tuple(bob))


def random_disjointness_instance(domain, seed):
    """Seeded disjointness instance; parties get random disjoint index sets
    (occasionally overlapping to exercise the trivially-intersecting path).
    A seed that is not an int raises InputError."""
    rng = random.Random(json_int(seed, "seed"))
    alice = []
    bob = []
    for i in range(domain.n):
        roll = rng.random()
        if roll < 0.15:
            alice.append(i)
        elif roll < 0.3:
            bob.append(i)
        elif roll < 0.315:
            alice.append(i)
            bob.append(i)
    return DisjointnessInstance(domain, tuple(alice), tuple(bob))
