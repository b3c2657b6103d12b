import json
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketkit as bk
from bracketkit import protocols

from conftest import general_position_points
from naive_checks import reference_learning_rounds

EPS0 = Fraction(1, 8)


def test_empty_instance_two_bits(collinear4):
    pts, _ = collinear4
    inst = bk.LearningInstance(pts, (), ())
    classifier, transcript = bk.learn_halfspace_protocol(inst, EPS0)
    assert transcript.total_bits == 2
    assert [m.kind for m in transcript.messages] == ["ok", "ok"]


def test_single_positive_terminates_quickly(collinear4):
    pts, _ = collinear4
    inst = bk.LearningInstance(pts, ((0, 1),), ())
    classifier, transcript = bk.learn_halfspace_protocol(inst, EPS0)
    assert transcript.rounds <= 2
    assert classifier(0) == 1


def test_transcript_bit_costs(collinear4):
    pts, _ = collinear4
    inst = bk.LearningInstance(pts, ((0, 1), (3, -1)), ())
    _, transcript = bk.learn_halfspace_protocol(inst, EPS0)
    n = pts.n
    ce_bits = (n - 1).bit_length() + 1
    for m in transcript.messages:
        if m.kind == "counterexample":
            assert m.bits == ce_bits
        elif m.kind == "ok":
            assert m.bits == 1
    assert transcript.total_bits == sum(m.bits for m in transcript.messages)


def test_determinism_bit_for_bit():
    dom = bk.random_point_set(2, 16, 301)
    inst = bk.realizable_learning_instance(dom, 5)
    _, t1 = bk.learn_halfspace_protocol(inst, EPS0)
    _, t2 = bk.learn_halfspace_protocol(inst, EPS0)
    assert t1 == t2


def test_consistency_and_progress():
    dom = bk.random_point_set(2, 16, 302)
    for seed in range(25):
        inst = bk.realizable_learning_instance(dom, seed)
        classifier, transcript = bk.learn_halfspace_protocol(inst, EPS0)
        for idx, label in inst.alice + inst.bob:
            assert classifier(idx) == label
        assert transcript.rounds <= dom.n + 1


def test_realizable_instance_on_one_point():
    # One projection: the threshold falls below it, so the point is positive.
    dom = bk.PointSet.from_signed_rows(2, [["1", "2"]])
    for seed in range(5):
        inst = bk.realizable_learning_instance(dom, seed, labeled_share=1.0)
        assert inst.alice + inst.bob == ((0, 1),)


def test_realizability_oracle_agrees_with_generator():
    dom = bk.random_point_set(2, 12, 303)
    for seed in range(10):
        inst = bk.realizable_learning_instance(dom, seed)
        pos = [i for i, l in inst.alice + inst.bob if l > 0]
        neg = [i for i, l in inst.alice + inst.bob if l < 0]
        assert not bk.exact_hull_intersection(dom, pos, neg).intersecting


# Wrong Farkas certificates (w, alpha, beta) for {0, 1} against {2, 3} on the
# 1-D grid, each returned with c = (beta - alpha) / 2: the zero functional;
# c = 2, which puts point 2 on the threshold; and w = -1 with c = -3/2,
# which puts every point on the wrong side.
@pytest.mark.parametrize("cert", [(0, 1, 1), (1, -1, 3), (-1, 1, -2)])
def test_a_functional_that_does_not_separate_is_an_internal_error(collinear4, monkeypatch, cert):
    pts, _ = collinear4
    assert not bk.exact_hull_intersection(pts, [0, 1], [2, 3]).intersecting
    monkeypatch.setattr(protocols, "solve_equality_feasibility",
                        lambda rows, rhs: ("infeasible", tuple(map(Fraction, cert))))
    with pytest.raises(bk.InternalInvariantError, match="^hull functional does not strictly separate"):
        bk.exact_hull_intersection(pts, [0, 1], [2, 3])


def test_abort_on_nonrealizable():
    dom = bk.lower_bound_instance(1, 4, "grid")
    # 0 and 2 positive, 1 negative: no ray separates on a line
    inst = bk.LearningInstance(dom, ((0, 1), (2, 1)), ((1, -1),))
    with pytest.raises(bk.NonRealizableError) as err:
        bk.learn_halfspace_protocol(inst, EPS0)
    cert = err.value.certificate
    assert cert, "certificate must carry the inconsistent subset"
    assert err.value.transcript is not None


def test_rounds_past_their_budget_are_an_internal_error(collinear4, monkeypatch):
    # Alice repeats the counterexample (0, +1) every round: the ranges that
    # contain point 0 stay consistent, so the rounds run out of budget.
    pts, _ = collinear4
    monkeypatch.setattr(protocols, "_first_error", lambda examples, cover, witness_range: (0, 1))
    inst = bk.LearningInstance(pts, ((0, 1),), ())
    with pytest.raises(bk.InternalInvariantError, match="protocol did not terminate within its round budget"):
        bk.learn_halfspace_protocol(inst, EPS0)


def test_conflicting_labels_abort(collinear4):
    pts, _ = collinear4
    inst = bk.LearningInstance(pts, ((0, 1),), ((0, -1),))
    with pytest.raises(bk.NonRealizableError):
        bk.learn_halfspace_protocol(inst, EPS0)


def test_disjointness_trivial_cases(collinear4):
    pts, _ = collinear4
    empty = bk.DisjointnessInstance(pts, (), (1, 2))
    answer, transcript = bk.convex_disjointness_protocol(empty, EPS0)
    assert answer == "disjoint"
    same = bk.DisjointnessInstance(pts, (2,), (2,))
    answer, _ = bk.convex_disjointness_protocol(same, EPS0)
    assert answer == "intersecting"


def test_disjointness_announces_family_index(collinear4):
    pts, _ = collinear4
    inst = bk.DisjointnessInstance(pts, (0,), (3,))
    answer, transcript = bk.convex_disjointness_protocol(inst, EPS0)
    assert answer == "disjoint"
    last = transcript.messages[-1]
    assert last.kind == "family_index"
    ctx = bk.shared_protocol_context(pts, EPS0)
    assert last.bits == max(1, (len(ctx.hypotheses) - 1).bit_length())
    # the announced cover separates the parties' points
    cover = ctx.hypotheses[last.payload]
    assert all(cover >> i & 1 for i in inst.alice)
    assert not any(cover >> j & 1 for j in inst.bob)


def test_disjointness_oracle_agreement():
    dom = bk.random_point_set(2, 12, 304)
    for seed in range(30):
        inst = bk.random_disjointness_instance(dom, seed)
        answer, _ = bk.convex_disjointness_protocol(inst, EPS0)
        oracle = bk.exact_hull_intersection(dom, inst.alice, inst.bob)
        assert (answer == "intersecting") == oracle.intersecting


def test_transcript_jsonl_roundtrip(collinear4):
    pts, _ = collinear4
    inst = bk.LearningInstance(pts, ((0, 1),), ())
    _, transcript = bk.learn_halfspace_protocol(inst, EPS0)
    lines = transcript.to_jsonl().strip().splitlines()
    assert len(lines) == len(transcript.messages)
    first = json.loads(lines[0])
    assert set(first) == {"sender", "kind", "payload", "bits"}


def test_shared_context_is_deterministic_and_verified():
    dom = bk.random_point_set(2, 12, 305)
    ctx = bk.shared_protocol_context(dom, EPS0)
    ctx2 = bk.shared_protocol_context(dom, EPS0)
    assert ctx.hypotheses == ctx2.hypotheses
    assert ctx.cover_count <= len(ctx.hypotheses)
    # every range appears in the hypothesis list (fallback block)
    assert set(ctx.system.ranges) <= set(ctx.hypotheses)


def test_classifier_validation(collinear4):
    pts, _ = collinear4
    inst = bk.LearningInstance(pts, (), ())
    classifier, _ = bk.learn_halfspace_protocol(inst, EPS0)
    with pytest.raises(bk.InputError):
        classifier(99)
    with pytest.raises(bk.InputError):
        bk.learn_halfspace_protocol(bk.LearningInstance(pts, ((0, 2),), ()), EPS0)


@pytest.mark.parametrize("bad", [2.0, True, "1", None])
def test_non_int_index_is_refused(collinear4, bad):
    pts, _ = collinear4
    with pytest.raises(bk.InputError, match="example index .* is not an integer"):
        bk.learn_halfspace_protocol(bk.LearningInstance(pts, ((0, 1), (bad, 1)), ()), EPS0)
    with pytest.raises(bk.InputError, match="^index .* is not an integer"):
        bk.convex_disjointness_protocol(bk.DisjointnessInstance(pts, (0,), (bad, 3)), EPS0)
    with pytest.raises(bk.InputError, match="index .* is not an integer"):
        bk.exact_hull_intersection(pts, [0], [bad, 3])
    with pytest.raises(bk.InputError, match="index .* is not an integer"):
        bk.Classifier(0b1, 4)(bad)


@pytest.mark.parametrize("bad", [1.0, True, "1"])
def test_non_int_label_is_refused(collinear4, bad):
    pts, _ = collinear4
    with pytest.raises(bk.InputError, match="label must be \\+1 or -1"):
        bk.learn_halfspace_protocol(bk.LearningInstance(pts, ((0, bad),), ()), EPS0)


def test_bad_examples_are_refused_before_the_context(monkeypatch):
    calls = []
    enumerate_ranges = protocols.enumerate_halfspace_ranges
    monkeypatch.setattr(
        protocols, "enumerate_halfspace_ranges", lambda domain: calls.append(domain) or enumerate_ranges(domain)
    )
    protocols.shared_protocol_context.cache_clear()
    dom = bk.random_point_set(2, 16, 11000)
    refused = [
        (bk.LearningInstance(dom, ((0, 1), (999, 1)), ()), "example index 999 outside domain"),
        (bk.LearningInstance(dom, (), ((-1, -1),)), "example index -1 outside domain"),
        (bk.LearningInstance(dom, ((0, 2),), ()), "label must be \\+1 or -1, got 2"),
        (bk.LearningInstance(dom, ((1, 1), ("a", 1)), ()), "example index 'a' is not an integer"),
        (bk.LearningInstance(dom, ((1,),), ()), "example \\(1,\\) is not an \\[index, label\\] pair"),
        (bk.LearningInstance(dom, (5,), ()), "example 5 is not an \\[index, label\\] pair"),
        (bk.LearningInstance(dom, (), ((1, 1, 1),)), "example \\(1, 1, 1\\) is not an \\[index, label\\] pair"),
        (bk.LearningInstance(dom, ("ab",), ()), "example 'ab' is not an \\[index, label\\] pair"),
    ]
    for inst, message in refused:
        with pytest.raises(bk.InputError, match=message):
            bk.learn_halfspace_protocol(inst, EPS0)
    with pytest.raises(bk.InputError, match="^index 16 outside domain"):
        bk.convex_disjointness_protocol(bk.DisjointnessInstance(dom, (16,), (0,)), EPS0)
    assert calls == []
    bk.learn_halfspace_protocol(bk.LearningInstance(dom, ((0, 1),), ()), EPS0)
    assert calls == [dom]


def test_each_disjointness_index_is_checked_once(monkeypatch):
    domain, _ = general_position_points(2, 64, 11)
    inst = bk.random_disjointness_instance(domain, 3)
    calls = []
    check = protocols._check_index
    monkeypatch.setattr(protocols, "_check_index", lambda *args: calls.append(args) or check(*args))
    bk.convex_disjointness_protocol(inst, EPS0)
    assert len(calls) == len(inst.alice) + len(inst.bob) > 0
    assert {what for _, _, what in calls} == {"index"}


def _full_list_search(ctx, r_alive, c_alive, tail_picks):
    """Reference search over the whole hypothesis list, cover block and
    fallback block alike; records whether each pick came from the fallback.
    A hypothesis is consistent with the labels exactly when it is a
    surviving cover or a consistent range."""
    position = {m: k for k, m in enumerate(ctx.system.ranges)}
    consistent = [m for k, m in enumerate(ctx.system.ranges) if r_alive >> k & 1]
    for i, candidate in enumerate(ctx.hypotheses):
        alive = c_alive >> i & 1 if i < ctx.cover_count else r_alive >> position[candidate] & 1
        if alive:
            for r in consistent:
                if (r & candidate) == r:
                    tail_picks.append(i >= ctx.cover_count)
                    return i, candidate, r
    raise AssertionError("no hypothesis contains a consistent range")


def test_cover_block_search_matches_full_list_search(monkeypatch):
    dom, _ = general_position_points(2, 16, 11)

    def runs():
        out = []
        for seed in range(40):
            out.append(bk.learn_halfspace_protocol(bk.realizable_learning_instance(dom, seed), EPS0))
            out.append(bk.convex_disjointness_protocol(bk.random_disjointness_instance(dom, seed), EPS0))
        return out

    expected = runs()
    tail_picks = []
    monkeypatch.setattr(
        protocols, "_pick_hypothesis",
        lambda ctx, r_alive, c_alive: _full_list_search(ctx, r_alive, c_alive, tail_picks),
    )
    assert runs() == expected
    assert any(tail_picks), "no round reached the fallback block"


@st.composite
def abstract_rounds(draw):
    """A context on a random abstract system with a random cover list (some
    covers are ranges, some contain one, some are arbitrary), and sorted
    examples labeled by a set that is mostly one of the ranges, with a few
    labels flipped."""
    n = draw(st.integers(0, 70))
    word = st.integers(0, (1 << n) - 1)
    truth = draw(word)
    system = bk.SetSystem.from_masks(n, draw(st.lists(word, max_size=24)) + [truth] * draw(st.integers(0, 3)))
    covers = []
    for _ in range(draw(st.integers(0, 10))):
        base = draw(st.sampled_from(system.ranges)) if system.ranges and draw(st.booleans()) else 0
        covers.append(draw(st.sampled_from([base, base | draw(word), draw(word)])))
    alice, bob = [], []
    for i in draw(st.lists(st.integers(0, n - 1), max_size=12)) if n else ():
        label = 1 if truth >> i & 1 else -1
        if draw(st.integers(0, 9)) == 0:
            label = -label
        (alice if draw(st.booleans()) else bob).append((i, label))
    return protocols.SharedContext.from_covers(system, covers), tuple(sorted(alice)), tuple(sorted(bob))


@given(abstract_rounds())
@settings(max_examples=300, deadline=None)
def test_bit_sliced_rounds_match_list_rounds(case):
    ctx, alice, bob = case
    picks = []
    pick = protocols._pick_hypothesis
    with mock.patch.object(protocols, "_pick_hypothesis", lambda *args: picks.append(pick(*args)) or picks[-1]):
        try:
            index, cover, transcript = protocols._rounds(ctx, alice, bob)
            got = "learned", picks, (index, cover), transcript
        except bk.NonRealizableError as err:
            got = "abort", picks, err.certificate, err.transcript
    outcome, ref_picks, history, messages = reference_learning_rounds(
        ctx.system.n, ctx.system.ranges, ctx.hypotheses, ctx.cover_count, alice, bob)
    # A run ends on its last pick, or aborts with the counterexamples so far.
    end = ref_picks[-1][:2] if outcome == "learned" else tuple(history)
    assert got[:3] == (outcome, ref_picks, end)
    assert [(m.sender, m.kind, m.payload, m.bits) for m in got[3].messages] == messages


def test_equal_domains_hash_equal_and_share_one_context():
    rows = [["1/3", "2"], ["5", "-7/4"], ["0", "1/2"], ["3", "3"]]
    first, second = (bk.PointSet.from_signed_rows(2, rows) for _ in range(2))
    assert first is not second and first == second and hash(first) == hash(second)
    assert hash(first) == hash((first.dim, first.points))
    assert first != bk.PointSet.from_signed_rows(2, rows[::-1])
    assert bk.shared_protocol_context(first, EPS0) is bk.shared_protocol_context(second, EPS0)


@pytest.mark.parametrize("n", [1, 9, 64, 70])
def test_point_columns_match_per_bit_reference(n):
    # Mask counts around and between multiples of the block size, so that a
    # short last block and a block edge inside a byte column would show.
    block = protocols._COLUMN_BLOCK
    rng = random.Random(n)
    for count in (0, 1, 7, block - 1, block, block + 1, 2 * block + 13):
        masks = [rng.getrandbits(n) for _ in range(count)]
        expected = [sum(1 << j for j, m in enumerate(masks) if m >> p & 1) for p in range(n)]
        assert protocols._point_columns(masks, n) == expected


def _rebuild_each_round(inst):
    """The learning rounds with the consistent ranges rebuilt from all
    exchanged labels every round, and every cover re-tested against them:
    the classifier mask and transcript JSONL, or the abort's certificate
    and transcript JSONL."""
    ctx = bk.shared_protocol_context(inst.domain, EPS0)
    n = inst.domain.n
    alice, bob = sorted(inst.alice), sorted(inst.bob)
    pos = neg = 0
    history, lines = [], []
    for _ in range(2 * n + 2):
        consistent = [r for r in ctx.system.ranges if (pos & r) == pos and (neg & r) == 0]
        if not consistent:
            return "abort", tuple(history), "".join(lines)
        cover, witness = next(
            ((c, r) for c in ctx.hypotheses[: ctx.cover_count] if (pos & c) == pos and (neg & c) == 0
             for r in consistent if (r & c) == r),
            (consistent[0], consistent[0]),
        )
        for sender, examples in (("alice", alice), ("bob", bob)):
            wrong = [(i, label) for i, label in examples
                     if (label > 0 and not witness >> i & 1) or (label < 0 and cover >> i & 1)]
            if wrong:
                idx, label = wrong[0]
                lines.append(json.dumps({"sender": sender, "kind": "counterexample", "payload": [idx, label],
                                         "bits": max(n - 1, 0).bit_length() + 1}) + "\n")
                history.append((idx, label))
                if label > 0:
                    pos |= 1 << idx
                else:
                    neg |= 1 << idx
                break
            lines.append(json.dumps({"sender": sender, "kind": "ok", "payload": None, "bits": 1}) + "\n")
        else:
            return "learned", cover, "".join(lines)
    raise AssertionError("reference did not terminate within its round budget")


def _library_run(inst):
    try:
        classifier, transcript = bk.learn_halfspace_protocol(inst, EPS0)
    except bk.NonRealizableError as err:
        return "abort", err.certificate, err.transcript.to_jsonl()
    return "learned", classifier.positive_mask, transcript.to_jsonl()


@pytest.mark.parametrize("d, n, seed", [(1, 12, 21), (2, 16, 11), (3, 10, 22)])
def test_narrowed_rounds_match_per_round_rebuild(d, n, seed):
    dom, _ = general_position_points(d, n, seed)
    instances = []
    for s in range(30):
        instances.append(bk.realizable_learning_instance(dom, s))
        cut = bk.realizable_learning_instance(dom, 1000 + s, 0.3)
        labeled = cut.alice + cut.bob
        instances.append(bk.LearningInstance(dom, tuple(x for x in labeled if x[1] > 0),
                                             tuple(x for x in labeled if x[1] < 0)))
        mixed = bk.random_disjointness_instance(dom, s)
        instances.append(bk.LearningInstance(dom, tuple((i, 1) for i in mixed.alice),
                                             tuple((j, -1) for j in mixed.bob)))
    outcomes = [_library_run(inst) for inst in instances]
    assert outcomes == [_rebuild_each_round(inst) for inst in instances]
    assert {"abort", "learned"} <= {outcome[0] for outcome in outcomes}
