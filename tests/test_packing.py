from fractions import Fraction

import pytest

import bracketkit as bk

from conftest import general_position_points, mask_set


def naive_greedy_packing(system, delta, cap=None):
    """Independent reimplementation with frozensets, no bit tricks."""
    n = system.n
    sets = [mask_set(m, n) for m in system.ranges]
    members = []
    for s in sets:
        if cap is not None and len(s) > cap:
            continue
        if all(len(s ^ m) > delta for m in members):
            members.append(s)
    return members


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
def test_greedy_matches_naive(seed):
    pts, system = general_position_points(2, 7, seed + 10)
    for delta in (0, 1, 2, 4):
        for cap in (None, 3, 5):
            packing = bk.greedy_delta_packing(system, delta, shallow_cap=cap)
            got = [mask_set(m, system.n) for m in packing.members]
            assert got == naive_greedy_packing(system, delta, cap)


@pytest.mark.parametrize("n, delta, cap", [(70, 30, None), (70, 12, 20), (130, 60, 40)])
def test_greedy_matches_naive_multiword(n, delta, cap):
    # Masks span two or three uint64 words, and members straddle word edges.
    system = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, n, "sphere"))
    packing = bk.greedy_delta_packing(system, delta, shallow_cap=cap)
    got = [mask_set(m, system.n) for m in packing.members]
    assert got == naive_greedy_packing(system, delta, cap)


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
