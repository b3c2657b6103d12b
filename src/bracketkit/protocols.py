"""Deterministic two-party protocol simulators over a known point domain.

Both parties share the domain U, the halfspace range family over U, and a
canonical hypothesis list: the covers of an eps0-container for the ranges,
followed by the ranges themselves (the fallback block guarantees a
consistent hypothesis exists whenever the labeled set is realizable, so the
protocol aborts exactly on non-realizable inputs).  Messages carry exact bit
costs: a counterexample is a domain index plus a label bit, an OK is one
flag bit, a family index costs ceil(log2(family size)) bits.
"""

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .constructions import build_container, default_provider
from .errors import InputError, InternalInvariantError, NonRealizableError
from .geometry import PointSet, enumerate_halfspace_ranges
from .lp import solve_equality_feasibility

DEFAULT_EPS0 = Fraction(1, 8)


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
        lines = []
        for m in self.messages:
            lines.append(json.dumps(
              {"sender": m.sender, "kind": m.kind, "payload": m.payload, "bits": m.bits}
            ))
        return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class Classifier:
    """Domain classifier x -> +1 iff index in the positive mask."""

    positive_mask: int
    n: int

    def __call__(self, index):
        if not 0 <= index < self.n:
            raise InputError(f"index {index} outside domain of size {self.n}")
        return 1 if self.positive_mask >> index & 1 else -1

    def labels(self):
        return tuple(self(i) for i in range(self.n))


@dataclass(frozen=True)
class SharedContext:
    """State both parties can derive on their own: range family + hypothesis list."""

    domain: PointSet
    eps0: Fraction
    system: object
    hypotheses: tuple
    cover_count: int


@lru_cache(maxsize=8)
def shared_protocol_context(domain, eps0):
    system = enumerate_halfspace_ranges(domain)
    covers = build_container(system, eps0, default_provider()).covers
    # Cover block first (the compressed class), then the other ranges, in
    # their canonical order, as the consistency fallback.
    seen = set(covers)
    hypotheses = covers + tuple(m for m in system.ranges if m not in seen)
    return SharedContext(domain, Fraction(eps0), system, hypotheses, len(covers))


def _index_cost(n):
    return max(1, (n - 1).bit_length()) if n > 1 else 0


def _counterexample_cost(n):
    return _index_cost(n) + 1


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


def _run_learning(domain, alice, bob, eps0):
    ctx = shared_protocol_context(domain, Fraction(eps0))
    n = domain.n
    ranges = ctx.system.ranges
    alice = tuple(sorted(alice))
    bob = tuple(sorted(bob))
    for idx, label in alice + bob:
        if not 0 <= idx < n:
            raise InputError(f"example index {idx} outside domain")
        if label not in (1, -1):
            raise InputError(f"label must be +1 or -1, got {label}")
    ce_cost = _counterexample_cost(n)
    pos = 0
    neg = 0
    history = []
    messages = []
    for _ in range(2 * n + 2):
        consistent = [r for r in ranges if (pos & r) == pos and (neg & r) == 0]
        if not consistent:
            raise NonRealizableError(
                "no halfspace range is consistent with the exchanged examples",
                certificate=history,
                transcript=Transcript(tuple(messages)),
            )
        cover = None
        witness_range = None
        for candidate in ctx.hypotheses:
            if (pos & candidate) == pos and (neg & candidate) == 0:
                for r in consistent:
                    if (r & candidate) == r:
                        cover, witness_range = candidate, r
                        break
                if cover is not None:
                    break
        if cover is None:
            raise InternalInvariantError("hypothesis search failed on a consistent state")
        for sender, examples in (("alice", alice), ("bob", bob)):
            error = _first_error(examples, cover, witness_range)
            if error is not None:
                messages.append(Message(sender, "counterexample", list(error), ce_cost))
                history.append(error)
                idx, label = error
                if label > 0:
                    pos |= 1 << idx
                else:
                    neg |= 1 << idx
                break
            messages.append(Message(sender, "ok", None, 1))
        else:
            return ctx, cover, Transcript(tuple(messages))
    raise InternalInvariantError("protocol did not terminate within its round budget")


def learn_halfspace_protocol(inst, eps0=DEFAULT_EPS0):
    """Counterexample-driven halving over the shared hypothesis list.

    Each round both parties deterministically select the first hypothesis
    consistent with the exchanged labeled set (and containing a consistent
    halfspace range); Alice then Bob either send their lowest-index
    counterexample or a 1-bit OK.  Two OKs terminate.  Raises
    NonRealizableError (with the inconsistent subset as certificate) when no
    consistent hypothesis exists.
    """
    _, cover, transcript = _run_learning(inst.domain, inst.alice, inst.bob, eps0)
    return Classifier(cover, inst.domain.n), transcript


def convex_disjointness_protocol(inst, eps0=DEFAULT_EPS0):
    """Decide whether the parties' convex hulls intersect.

    Runs the learning protocol on the induced labeling (Alice +1, Bob -1).
    An abort certifies that no halfspace range separates the sets, i.e. the
    hulls intersect; termination yields a separating range inside the agreed
    cover, announced as a family index, i.e. the hulls are disjoint.
    """
    alice = tuple((i, 1) for i in sorted(set(inst.alice)))
    bob = tuple((j, -1) for j in sorted(set(inst.bob)))
    try:
        ctx, cover, transcript = _run_learning(inst.domain, alice, bob, eps0)
    except NonRealizableError as err:
        return "intersecting", err.transcript
    index = ctx.hypotheses.index(cover)
    announce = Message(
        "alice", "family_index", index, max(1, (len(ctx.hypotheses) - 1).bit_length())
    )
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
    """Decide conv(a-points) cap conv(b-points) by exact LP feasibility."""
    a = sorted(set(a))
    b = sorted(set(b))
    d = domain.dim
    for i in a + b:
        if not 0 <= i < domain.n:
            raise InputError(f"index {i} outside domain")
    e1 = tuple(Fraction(1) if k == 0 else Fraction(0) for k in range(d))
    if not a or not b:
        if not a and not b:
            return HullResult(False, functional=(e1, Fraction(0)))
        other = b if not a else a
        proj = [domain.points[i][0] for i in other]
        c = (min(proj) - 1) if not a else (max(proj) + 1)
        return HullResult(False, functional=(e1, c))
    pa = [domain.points[i] for i in a]
    pb = [domain.points[j] for j in b]
    rows = []
    for k in range(d):
        rows.append([p[k] for p in pa] + [-q[k] for q in pb])
    rows.append([Fraction(1)] * len(pa) + [Fraction(0)] * len(pb))
    rows.append([Fraction(0)] * len(pa) + [Fraction(1)] * len(pb))
    rhs = [Fraction(0)] * d + [Fraction(1), Fraction(1)]
    status, cert = solve_equality_feasibility(rows, rhs)
    if status == "feasible":
        lams = cert[: len(pa)]
        point = tuple(sum(l * p[k] for l, p in zip(lams, pa)) for k in range(d))
        return HullResult(True, witness=point)
    w = cert[:d]
    alpha, beta = cert[d], cert[d + 1]
    # Farkas gives w.p <= -alpha on conv(a) and w.q >= beta on conv(b) with
    # -alpha < beta; split the gap for a strict threshold.
    c = (beta - alpha) / 2
    return HullResult(False, functional=(tuple(w), c))


# ---------------------------------------------------------------------------
# Seeded instance generators
# ---------------------------------------------------------------------------


def realizable_learning_instance(domain, seed, labeled_share=0.8):
    """Seeded realizable instance: labels come from an actual halfspace cut,
    points are split between Alice, Bob and unlabeled."""
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


def random_disjointness_instance(domain, seed, share=0.3):
    """Seeded disjointness instance; parties get random disjoint index sets
    (occasionally overlapping to exercise the trivially-intersecting path)."""
    rng = random.Random(seed)
    alice = []
    bob = []
    for i in range(domain.n):
        roll = rng.random()
        if roll < share / 2:
            alice.append(i)
        elif roll < share:
            bob.append(i)
        elif roll < share * 1.05:
            alice.append(i)
            bob.append(i)
    return DisjointnessInstance(domain, tuple(alice), tuple(bob))
