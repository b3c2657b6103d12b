import random
from fractions import Fraction

import pytest

import bracketkit as bk

from conftest import general_position_points, mask_set


def naive_greedy_packing(system, delta, cap=None):
    """Independent reimplementation with frozensets, no bit tricks.

    Returns the members and, per member, the in-cap ranges whose first
    member within delta it is, in canonical order.
    """
    n = system.n
    sets = [mask_set(m, n) for m in system.ranges if cap is None or m.bit_count() <= cap]
    members = []
    for s in sets:
        if all(len(s ^ m) > delta for m in members):
            members.append(s)
    groups = [[] for _ in members]
    for s in sets:
        first = next(i for i, m in enumerate(members) if len(s ^ m) <= delta)
        groups[first].append(s)
    return members, groups


def test_greedy_collinear4_example(collinear4):
    _, system = collinear4
    packing = bk.greedy_delta_packing(system, 1)
    got = [mask_set(m, 4) for m in packing.members]
    assert got == [
        frozenset({0, 1, 2, 3}),
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset(),
    ]


def test_greedy_extremes(collinear4):
    _, system = collinear4
    all_in = bk.greedy_delta_packing(system, 0)
    assert len(all_in.members) == len(system.ranges)
    single = bk.greedy_delta_packing(system, system.n)
    assert len(single.members) == 1
    assert single.members[0] == system.ranges[0]
    with pytest.raises(bk.InputError):
        bk.greedy_delta_packing(system, system.n + 1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_greedy_matches_naive(seed, monkeypatch):
    # 7 points give about 44 ranges, one block.  12 points give 134 ranges,
    # three blocks of up to 64 candidates; the abstract system on 70
    # elements (two words) has about 190.  The small cell budget shrinks the
    # block as members accumulate, down to one candidate past 64 members.
    rng = random.Random(seed)
    abstract = bk.SetSystem.from_masks(70, [rng.getrandbits(70) >> rng.randrange(70) for _ in range(200)])
    inputs = [(general_position_points(2, 7, seed + 10)[1], (0, 1, 2, 4), (None, 3, 5)),
              (general_position_points(2, 12, seed + 10)[1], (0, 1, 2, 4), (None, 3, 6)),
              (abstract, (0, 70), (None,))]
    for cells in (bk.bitsets._BLOCK_CELLS, 1 << 8):
        monkeypatch.setattr(bk.bitsets, "_BLOCK_CELLS", cells)
        for system, deltas, caps in inputs:
            for delta in deltas:
                for cap in caps:
                    packing = bk.greedy_delta_packing(system, delta, shallow_cap=cap)
                    got = [mask_set(m, system.n) for m in packing.members]
                    got_groups = [[mask_set(m, system.n) for m in g] for g in packing.groups]
                    assert (got, got_groups) == naive_greedy_packing(system, delta, cap)


@pytest.mark.parametrize("n, delta, cap", [(70, 30, None), (70, 12, 20), (130, 60, 40)])
def test_greedy_matches_naive_multiword(n, delta, cap):
    # Masks span two or three uint64 words, and members straddle word edges.
    system = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, n, "sphere"))
    packing = bk.greedy_delta_packing(system, delta, shallow_cap=cap)
    got = [mask_set(m, system.n) for m in packing.members]
    got_groups = [[mask_set(m, system.n) for m in g] for g in packing.groups]
    assert (got, got_groups) == naive_greedy_packing(system, delta, cap)


def test_packing_invariants(collinear4):
    _, system = collinear4
    packing = bk.greedy_delta_packing(system, 1)
    members = packing.members
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            assert (members[i] ^ members[j]).bit_count() > packing.delta
    # maximality: every range has a nearest neighbour within delta
    for mask in system.ranges:
        _, dist = bk.nearest_neighbor(packing, mask)
        assert dist <= packing.delta


def test_shallow_cap_respected(collinear4):
    _, system = collinear4
    packing = bk.greedy_delta_packing(system, 1, shallow_cap=2)
    assert all(m.bit_count() <= 2 for m in packing.members)
    for mask in system.ranges:
        if mask.bit_count() <= 2:
            _, dist = bk.nearest_neighbor(packing, mask)
            assert dist <= 1
    with pytest.raises(bk.InputError):
        bk.nearest_neighbor(packing, system.full_mask)


def test_nearest_neighbor_examples(collinear4):
    _, system = collinear4
    packing = bk.greedy_delta_packing(system, 1)
    member, dist = bk.nearest_neighbor(packing, 0b0111)
    assert mask_set(member, 4) == frozenset({0, 1, 2, 3}) and dist == 1
    member, dist = bk.nearest_neighbor(packing, 0b1000)
    assert mask_set(member, 4) == frozenset({2, 3}) and dist == 1
    member, dist = bk.nearest_neighbor(packing, packing.members[1])
    assert member == packing.members[1] and dist == 0


def test_determinism(collinear4):
    _, system = collinear4
    a = bk.greedy_delta_packing(system, 1)
    b = bk.greedy_delta_packing(system, 1)
    assert a.members == b.members


def test_bound_report_examples(collinear4):
    _, system = collinear4
    packing = bk.greedy_delta_packing(system, 1)
    rep = bk.packing_bound_report(packing, 2)
    assert rep.member_count == 4
    assert rep.haussler_volume == Fraction(16)
    assert rep.empirical_constant == pytest.approx(0.5)
    single = bk.greedy_delta_packing(system, system.n)
    rep1 = bk.packing_bound_report(single, 2)
    assert rep1.member_count == 1
    assert rep1.empirical_constant <= 1

    capped = bk.greedy_delta_packing(system, 1, shallow_cap=2)
    rep2 = bk.packing_bound_report(capped, 2)
    assert rep2.shallow_expression is not None
    assert rep2.shallow_psi_hat is not None


@pytest.mark.parametrize("delta, cap, d0, psi_hat, sample_size", [
    (2, 4, 2, Fraction(67, 6), 12),
    (6, 4, 1, Fraction(29, 4), 8),
])
def test_bound_report_pins_the_shallow_psi_hat(delta, cap, d0, psi_hat, sample_size):
    # Circle-12: the sample is the first sample_size elements of the ground
    # set; at 12 it is the whole ground set.
    plain = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 12, "sphere"))
    report = bk.packing_bound_report(bk.greedy_delta_packing(plain, delta, shallow_cap=cap), d0)
    assert report.shallow_psi_hat == psi_hat
    assert min(plain.n, 4 * d0 * plain.n // delta) == sample_size


def test_bound_report_rejects_zero_delta(collinear4):
    _, system = collinear4
    packing = bk.greedy_delta_packing(system, 0)
    with pytest.raises(bk.InputError):
        bk.packing_bound_report(packing, 2)


def test_volume_never_decreases_when_n_doubles():
    # same construction family (delta = n/4): (n/delta)^d0 stays constant,
    # and with delta held absolute it grows
    small = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 12, "sphere"))
    big = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 24, "sphere"))
    v_small = bk.packing_bound_report(bk.greedy_delta_packing(small, 12 // 4), 3).haussler_volume
    v_same = bk.packing_bound_report(bk.greedy_delta_packing(big, 24 // 4), 3).haussler_volume
    v_fixed = bk.packing_bound_report(bk.greedy_delta_packing(big, 12 // 4), 3).haussler_volume
    assert v_same >= v_small
    assert v_fixed >= v_small
