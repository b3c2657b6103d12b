import json
from fractions import Fraction

import pytest

import bracketkit as bk
from bracketkit import protocols

from conftest import general_position_points

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


def test_realizability_oracle_agrees_with_generator():
    dom = bk.random_point_set(2, 12, 303)
    for seed in range(10):
        inst = bk.realizable_learning_instance(dom, seed)
        pos = [i for i, l in inst.alice + inst.bob if l > 0]
        neg = [i for i, l in inst.alice + inst.bob if l < 0]
        assert not bk.exact_hull_intersection(dom, pos, neg).intersecting


def test_abort_on_nonrealizable():
    dom = bk.lower_bound_instance(1, 4, "grid")
    # 0 and 2 positive, 1 negative: no ray separates on a line
    inst = bk.LearningInstance(dom, ((0, 1), (2, 1)), ((1, -1),))
    with pytest.raises(bk.NonRealizableError) as err:
        bk.learn_halfspace_protocol(inst, EPS0)
    cert = err.value.certificate
    assert cert, "certificate must carry the inconsistent subset"
    assert err.value.transcript is not None


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


def _full_list_search(ctx, pos, neg, consistent, tail_picks):
    """Reference search over the whole hypothesis list, cover block and
    fallback block alike; records whether each pick came from the fallback."""
    for i, candidate in enumerate(ctx.hypotheses):
        if (pos & candidate) == pos and (neg & candidate) == 0:
            for r in consistent:
                if (r & candidate) == r:
                    tail_picks.append(i >= ctx.cover_count)
                    return candidate, r
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
        lambda ctx, pos, neg, consistent: _full_list_search(ctx, pos, neg, consistent, tail_picks),
    )
    assert runs() == expected
    assert any(tail_picks), "no round reached the fallback block"
