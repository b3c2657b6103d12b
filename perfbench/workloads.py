"""The three benchmark workloads.

A workload builds its inputs from the seed in ``setup`` and yields, per
closed-loop cycle, ``(op, run, check)`` triples: ``run`` is the timed call
into bracketkit and ``check(result)`` validates the output outside the timed
region, raising ``CheckFailed`` on a wrong answer and returning
``(key, digest)`` for the golden record (``None`` when there is nothing to
digest).  Checks never call the traced bracketkit functions, so they add no
spans.
"""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

import bracketkit as bk
from bracketkit import cli, protocols

EPS0 = Fraction(1, 8)
# Captured before tracing wraps the function; the wrapper has no cache_clear.
CLEAR_CONTEXT_CACHE = protocols.shared_protocol_context.cache_clear


class CheckFailed(Exception):
    pass


def sha(text):
    data = text if isinstance(text, bytes) else text.encode()
    return hashlib.sha256(data).hexdigest()


def masks_digest(masks, n):
    width = max(1, (n + 7) // 8)
    return sha(b"".join(m.to_bytes(width, "little") for m in masks))


def pick_domain(n, seed):
    """Seeded general-position domain, keeping the system of the attempt
    that enumerates, so the domain is never enumerated twice."""
    for attempt in range(20):
        points = bk.random_point_set(2, n, seed * 1000 + attempt)
        try:
            return points, bk.enumerate_halfspace_ranges(points), attempt
        except bk.DegeneracyError:
            continue
    raise CheckFailed(f"no general-position domain for n={n} seed={seed}")


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


class ConstructCircle:
    """Construction stack on circle-40/60 (one uint64 word per mask)."""

    name = "construct-circle"
    setup_repeats = 5
    min_cycles = 4
    trace_cycles = 1
    golden_length = {"bracket": 1, "boost": 1, "container": 1, "verify": 1, "system": 1}
    op_metrics = (("bracket", "bracket_s"), ("boost", "boost_s"),
                  ("container", "container_s"), ("verify", "verify_s"))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def _system(self, n):
        # The seed shuffles the point labels.  The ranges of points in convex
        # position are the arcs of their cyclic order, so a rotation would
        # give the same system; a shuffle changes the canonical range order
        # that the greedy constructions scan, on the same points.
        rows = list(bk.lower_bound_instance(2, n, "sphere").points)
        random.Random(self.seed * 1000 + n).shuffle(rows)
        system = bk.enumerate_halfspace_ranges(bk.PointSet(2, tuple(rows)))
        path = self.workdir / f"circle{n}.json"
        path.write_text(system.to_json())
        return system, path

    def setup(self):
        self.s40, self.s40_path = self._system(40)
        self.s60, self.s60_path = self._system(60)
        self.bracket_path = self.workdir / "bracket40.json"
        self.container_path = self.workdir / "container60.json"

    def _emit(self, family, path):
        text = bk.family_to_json(family)
        path.write_text(text)
        return text

    def cycle(self, index):
        quarter, fifth, half, twentieth = (Fraction(1, k) for k in (4, 5, 2, 20))
        if index == 0:
            yield "system", None, lambda _: (
                ("system", 0),
                masks_digest(self.s40.ranges + self.s60.ranges, 64),
            )
        yield "bracket", lambda: self._emit(
            bk.build_bracket(self.s40, quarter, bk.default_provider(), bk.default_provider()),
            self.bracket_path,
        ), lambda text: (("bracket", 0), sha(text))
        yield "boost", lambda: bk.family_to_json(
            bk.boost_epsilon(self.s40, bk.default_provider(), fifth, half)
        ), lambda text: (("boost", 0), sha(text))
        yield "container", lambda: self._emit(
            bk.build_container(self.s60, twentieth, bk.default_provider()),
            self.container_path,
        ), lambda text: (("container", 0), sha(text))
        yield "verify", self._verify_both, self._check_verify

    def _verify_both(self):
        out = []
        for system, family in ((self.s60_path, self.container_path),
                               (self.s40_path, self.bracket_path)):
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(["verify", "--system", str(system), "--family", str(family)])
            out.append((code, buffer.getvalue()))
        return out

    def _check_verify(self, out):
        for code, text in out:
            _require(code == 0, f"cli verify exited {code}: {text.strip()}")
        return ("verify", 0), sha(repr(out))


class ProtocolN64:
    """Protocol rounds and the exact hull LP on the criterion-9 domain."""

    name = "protocol-n64"
    setup_repeats = 3
    min_cycles = 500
    trace_cycles = 500
    golden_length = {"learn": 1000, "disjoint": 1000, "hull": 1000, "context": 1}
    op_metrics = (("learn", "learn_ms"), ("disjoint", "disjoint_ms"), ("hull", "oracle_ms"))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.paths = {"disjoint": 0, "intersecting": 0}
        self.protocol_runs = []  # (rounds, bits, aborted) over the golden slots

    def setup(self):
        CLEAR_CONTEXT_CACHE()
        self.domain, self.system, _ = pick_domain(64, 11)
        self.context = bk.shared_protocol_context(self.domain, EPS0)

    def _stream(self, stream, index):
        return (self.seed * 8 + stream) * 1_000_003 + index

    def _cut_instance(self, index):
        # Halfspace-cut labels: positives to Alice, negatives to Bob, so the
        # hulls are disjoint and the protocol runs to termination.
        cut = bk.realizable_learning_instance(self.domain, self._stream(1, index), 0.3)
        labeled = cut.alice + cut.bob
        return bk.DisjointnessInstance(
            self.domain,
            tuple(i for i, label in labeled if label > 0),
            tuple(i for i, label in labeled if label < 0),
        )

    def cycle(self, index):
        if index == 0:
            yield "context", None, self._check_context
        for k, make in enumerate((self._cut_instance, self._random_instance)):
            slot = 2 * index + k
            learn = bk.realizable_learning_instance(self.domain, self._stream(0, slot))
            yield "learn", lambda: bk.learn_halfspace_protocol(learn, EPS0), (
                lambda result, learn=learn, slot=slot: self._check_learn(learn, slot, result)
            )
            inst = make(index)
            answer = {}
            yield "disjoint", lambda: bk.convex_disjointness_protocol(inst, EPS0), (
                lambda result, slot=slot, answer=answer: self._check_disjoint(slot, answer, result)
            )
            yield "hull", lambda: bk.exact_hull_intersection(self.domain, inst.alice, inst.bob), (
                lambda result, inst=inst, slot=slot, answer=answer, k=k:
                self._check_hull(inst, slot, answer, k, result)
            )

    def _random_instance(self, index):
        return bk.random_disjointness_instance(self.domain, self._stream(2, index))

    def _check_context(self, _):
        ctx = self.context
        _require(ctx.system == self.system, "context system differs from the enumerated domain")
        return ("context", 0), masks_digest(ctx.hypotheses, 64) + f":{ctx.cover_count}"

    def _count_run(self, slot, transcript, aborted):
        if slot < self.golden_length["learn"]:
            self.protocol_runs.append((transcript.rounds, transcript.total_bits, aborted))

    def _check_learn(self, inst, slot, result):
        classifier, transcript = result
        for i, label in inst.alice + inst.bob:
            _require(classifier(i) == label, f"learned classifier mislabels point {i}")
        self._count_run(slot, transcript, False)
        return ("learn", slot), sha(f"{classifier.positive_mask:x}\n{transcript.to_jsonl()}")

    def _check_disjoint(self, slot, answer, result):
        verdict, transcript = result
        answer["verdict"] = verdict
        self._count_run(slot, transcript, verdict == "intersecting")
        return ("disjoint", slot), sha(f"{verdict}\n{transcript.to_jsonl()}")

    def _check_hull(self, inst, slot, answer, k, result):
        _require("verdict" in answer, "no protocol answer to compare with the oracle")
        _require((answer["verdict"] == "intersecting") == result.intersecting,
                 "disjointness answer disagrees with exact_hull_intersection")
        if k == 0:
            _require(not result.intersecting, "halfspace-cut input has intersecting hulls")
        if not result.intersecting:
            w, c = result.functional
            points = self.domain.points
            dot = lambda i: sum(wk * xk for wk, xk in zip(w, points[i]))  # noqa: E731
            _require(all(dot(i) < c for i in inst.alice) and all(dot(j) > c for j in inst.bob),
                     "oracle functional does not separate the hulls")
        self.paths["intersecting" if result.intersecting else "disjoint"] += 1
        return ("hull", slot), sha(repr(result))


class ContextN256:
    """Enumeration and the protocol context container at n=256 (4-word masks)."""

    name = "context-n256"
    setup_repeats = 21
    min_cycles = 1
    trace_cycles = 1
    golden_length = {"enumerate": 1, "context": 1}
    op_metrics = (("enumerate", "enumerate_s"), ("context", "container_s"))

    def __init__(self, seed, workdir):
        self.seed = seed
        self.attempt = 0

    def setup(self):
        self.domain = bk.random_point_set(2, 256, self.seed * 1000 + self.attempt)

    def _enumerate(self):
        # Retry on a degenerate domain with the next attempt, keeping the
        # system of the attempt that succeeds.
        while True:
            try:
                return bk.enumerate_halfspace_ranges(self.domain)
            except bk.DegeneracyError:
                self.attempt += 1
                _require(self.attempt < 20, "no general-position domain")
                self.setup()

    def _check_enumerate(self, system):
        _require(len(system.ranges) == 256 * 255 + 2, f"{len(system.ranges)} halfspace ranges")
        self.system = system
        return ("enumerate", 0), masks_digest(system.ranges, 256) + f":{self.attempt}"

    def _context(self):
        CLEAR_CONTEXT_CACHE()
        return bk.shared_protocol_context(self.domain, EPS0)

    def _check_context(self, ctx):
        _require(ctx.system == self.system, "context system differs from the enumerated domain")
        return ("context", 0), masks_digest(ctx.hypotheses, 256) + f":{ctx.cover_count}"

    def cycle(self, index):
        yield "enumerate", self._enumerate, self._check_enumerate
        yield "context", self._context, self._check_context


WORKLOADS = {w.name: w for w in (ConstructCircle, ProtocolN64, ContextN256)}
