import math
import random
from fractions import Fraction

import pytest

import bracketkit as bk

from conftest import general_position_points, mask_set
from naive_checks import naive_container_ok, naive_mnet_ok


def test_base_mnet_examples(collinear4):
    _, system = collinear4
    fam = bk.base_mnet(system, Fraction(1, 2), Fraction(1, 2))
    assert bk.verify_mnet(system, fam).passed
    heavy_count = sum(1 for m in system.ranges if m.bit_count() >= 2)
    assert len(fam.pieces) <= heavy_count
    assert naive_mnet_ok(system, fam.pieces, fam.lam, fam.eps)
    empty = bk.base_mnet(system, Fraction(1, 2), Fraction(3, 2))
    assert empty.pieces == ()


def test_base_mnet_heaviness_one(collinear4):
    _, system = collinear4
    fam = bk.base_mnet(system, Fraction(1), Fraction(1, 2))
    assert bk.verify_mnet(system, fam).passed


def test_provider_logs():
    provider = bk.default_provider()
    system = bk.SetSystem.from_sets(4, [(0, 1, 2), (1, 2, 3), (0, 1)])
    provider.mnet(system, Fraction(1, 2))
    provider.mnet(system, Fraction(1, 4))
    assert [e for e, _ in provider.bound_log] == [Fraction(1, 2), Fraction(1, 4)]


def test_provider_sizes_trend_with_inverse_eps():
    # trend check on a fixed instance: shrinking eps never shrinks the Mnet
    pts, system = general_position_points(2, 12, 35)
    provider = bk.default_provider()
    sizes = [len(provider.mnet(system, eps).pieces)
             for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))]
    assert sizes[0] <= sizes[1] <= sizes[2]


def test_boost_eta_prime_values():
    # eta' = min(1/4, eta/2)
    log = []
    pts, system = general_position_points(2, 8, 31)
    bk.boost_epsilon(system, bk.default_provider(), Fraction(1, 2), Fraction(9, 10), run_log=log)
    assert log[0]["eta_prime"] == Fraction(1, 4)
    log2 = []
    bk.boost_epsilon(system, bk.default_provider(), Fraction(1, 2), Fraction(3, 10), run_log=log2)
    assert log2[0]["eta_prime"] == Fraction(3, 20)


def test_boost_band_parameters_match_formulas():
    log = []
    pts, system = general_position_points(2, 8, 32)
    eps, eta = Fraction(1, 4), Fraction(1, 2)
    bk.boost_epsilon(system, bk.default_provider(), eps, eta, run_log=log)
    entry = log[0]
    eta_p = entry["eta_prime"]
    assert eta_p == min(Fraction(1, 4), eta / 2)
    t = entry["t"]
    assert (1 + eta_p) ** t >= 1 / eps > (1 + eta_p) ** (t - 1)
    for i, eps_i, delta_i in entry["bands"]:
        assert eps_i == (1 + eta_p) ** i * eps
        assert delta_i == eta_p * eps_i


def test_boost_heaviness(collinear4):
    _, system = collinear4
    provider = bk.default_provider()
    fam = bk.boost_epsilon(system, provider, Fraction(1, 2), Fraction(1, 2))
    assert fam.lam == Fraction(1, 4)  # 1/2 * (1 - 1/2)
    assert bk.verify_mnet(system, fam).passed
    assert naive_mnet_ok(system, fam.pieces, Fraction(1, 4), Fraction(1, 2))


def test_mnet_to_container_example():
    one = bk.SetSystem.from_sets(4, [(3,)])
    comp = bk.complement_family(bk.filter_by_size(one, upper=1))
    mnet = bk.make_mnet(comp, [0b0111], Fraction(1), Fraction(3, 4))
    cont = bk.mnet_to_container(one, mnet, Fraction(1, 4), Fraction(1))
    assert cont.eps == Fraction(1, 4)  # 1 - 1 + 1*(1/4)
    assert [mask_set(c, 4) for c in cont.covers] == [frozenset({3})]
    assert bk.verify_container(cont.base, cont).passed


def test_mnet_to_container_refuses_bad_input(collinear4):
    _, system = collinear4
    bad = bk.make_mnet(system, [0b0001], Fraction(1), Fraction(3, 4))
    with pytest.raises(bk.PreconditionFailure) as err:
        bk.mnet_to_container(system, bad, Fraction(1, 4), Fraction(1))
    assert err.value.report is not None


def test_container_to_mnet_example():
    one = bk.SetSystem.from_sets(4, [(3,)])
    cont = bk.make_container(one, [0b1000], Fraction(0))
    mnet = bk.container_to_mnet(one, cont, Fraction(1, 4), Fraction(1))
    assert [mask_set(p, 4) for p in mnet.pieces] == [frozenset({0, 1, 2})]
    assert mnet.pieces[0].bit_count() >= (Fraction(1) - Fraction(1, 4)) * 4
    assert bk.verify_mnet(mnet.base, mnet).passed


def test_container_to_mnet_parameter_error():
    one = bk.SetSystem.from_sets(4, [(3,)])
    cont = bk.make_container(one, [0b1000], Fraction(0))
    with pytest.raises(bk.InputError):
        bk.container_to_mnet(one, cont, Fraction(1, 2), Fraction(1, 4))


def _random_small_system(rng, n=8, delta0=Fraction(1, 4)):
    cap = int(delta0 * n)
    count = rng.randint(1, 6)
    masks = set()
    while len(masks) < count:
        size = rng.randint(0, cap)
        masks.add(sum(1 << i for i in rng.sample(range(n), size)))
    return bk.SetSystem.from_masks(n, masks)


def test_duality_round_trip_random():
    rng = random.Random(5)
    for _ in range(25):
        delta0 = Fraction(1, 4)
        lam = Fraction(rng.randint(2, 3), 4)
        system = _random_small_system(rng, 8, delta0)
        comp = bk.complement_family(system)
        mnet = bk.base_mnet(comp, lam, 1 - delta0)
        cont = bk.mnet_to_container(system, mnet, delta0, lam)
        assert cont.eps == 1 - lam + lam * delta0
        assert naive_container_ok(system, cont.covers, cont.eps)
        lam2 = lam * (1 - delta0)
        if lam2 <= delta0:
            continue
        back = bk.container_to_mnet(system, cont, delta0, lam2)
        assert set(back.pieces) == set(mnet.pieces)


def test_small_set_container_depth_cap_example():
    # heaviness 1/2, eps 1/4: cap = ceil(1 + ln4/ln(4/3)) = 6
    log = []
    one = bk.SetSystem.from_sets(8, [(0,)])
    bk.small_set_container(one, Fraction(1, 4), Fraction(1, 4), bk.default_provider(), run_log=log)
    entry = log[-1]
    assert entry["depth_cap"] == 6
    assert entry["max_depth"] <= 6
    raw = 1 + math.log(4) / math.log(Fraction(4, 3))
    assert entry["depth_cap"] == math.ceil(raw)


def test_small_set_container_one_range():
    one = bk.SetSystem.from_sets(8, [(2,)])
    fam = bk.small_set_container(one, Fraction(1, 4), Fraction(1, 4), bk.default_provider())
    assert bk.verify_container(one, fam).passed
    assert fam.eps == Fraction(1, 2)


def test_small_set_container_empty_family():
    empty = bk.SetSystem.from_masks(6, [])
    fam = bk.small_set_container(empty, Fraction(1, 3), Fraction(1, 3), bk.default_provider())
    assert bk.verify_container(empty, fam).passed
    assert fam.covers == (empty.full_mask,)


def test_small_set_container_rejects_oversized_ranges(collinear4):
    _, system = collinear4
    with pytest.raises(bk.InputError):
        bk.small_set_container(system, Fraction(1, 4), Fraction(1, 4), bk.default_provider())


def test_small_set_container_actual_slack_at_most_rho():
    rng = random.Random(11)
    for _ in range(10):
        system = _random_small_system(rng, 8, Fraction(3, 8))
        fam = bk.small_set_container(
            system, Fraction(3, 8), Fraction(1, 4), bk.default_provider()
        )
        # declared eps is eps+rho; the recursion actually achieves rho*n
        assert naive_container_ok(system, fam.covers, Fraction(1, 4))


def test_bootstrap_eps_prime_values():
    assert 3 * Fraction(1, 2) / (2 + 2 * Fraction(1, 2)) == Fraction(1, 2)
    assert 3 * Fraction(1, 5) / (2 + 2 * Fraction(1, 5)) == Fraction(1, 4)
    log = []
    pts, system = general_position_points(2, 10, 33)
    bk.bootstrap_interval_mnet(system, Fraction(1, 5), Fraction(1, 2), bk.default_provider(), run_log=log)
    entries = [e for e in log if e["op"] == "bootstrap"]
    assert entries[0]["eps_prime"] == Fraction(1, 4)


def test_bootstrap_heaviness_arithmetic():
    eps = Fraction(1, 8)
    assert (1 - 2 * eps) / (1 + eps) ** 2 == Fraction(48, 81)
    assert Fraction(48, 81) >= 1 - 4 * eps


def test_bootstrap_verified_on_instance():
    system = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 40, "sphere"))
    fam = bk.bootstrap_interval_mnet(system, Fraction(1, 8), Fraction(1, 4), bk.default_provider())
    assert fam.lam == Fraction(1, 2)
    assert bk.verify_mnet(fam.base, fam).passed
    # band bounds: [delta*n, (1+eps)*delta*n]
    for m in fam.base.ranges:
        assert Fraction(1, 4) * 40 <= m.bit_count() <= (1 + Fraction(1, 8)) * Fraction(1, 4) * 40


def test_bootstrap_parameter_domain(collinear4):
    _, system = collinear4
    with pytest.raises(bk.InputError):
        bk.bootstrap_interval_mnet(system, Fraction(3, 5), Fraction(3, 4), bk.default_provider())
    with pytest.raises(bk.InputError):
        bk.bootstrap_interval_mnet(system, Fraction(1, 4), Fraction(1, 8), bk.default_provider())


def test_heavy_mnet_params():
    params = bk.HeavyMnetParams.from_targets(Fraction(1, 2), Fraction(1, 10), Fraction(1, 2))
    assert params.eps0 == Fraction(1, 8)
    assert abs(params.t0_raw - (1 + math.log(8) / math.log(4 / 3))) < 1e-9
    assert params.t0 == 9
    # band count: smallest K with (1+eps0)^K * eta >= 1 is 20
    assert len(params.delta_seq) == 20
    assert params.delta_seq[0] == Fraction(1, 10)
    for a, b in zip(params.delta_seq, params.delta_seq[1:]):
        assert b == (1 + params.eps0) * a
    assert all(top == (1 + params.eps0) * d for d, top in zip(params.delta_seq, params.l_seq))
    for a, b in zip(params.band_deltas, params.band_deltas[1:]):
        assert b == (1 + params.band_ratio) * a


def test_heavy_mnet_ratio_adjustment_when_eta_small():
    # eta <= eps0 would break the band precondition delta > eps; the ratio
    # drops to eta/2 and the heaviness only improves
    params = bk.HeavyMnetParams.from_targets(Fraction(1, 2), Fraction(1, 10), Fraction(1, 2))
    assert params.band_ratio == Fraction(1, 20)
    params2 = bk.HeavyMnetParams.from_targets(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))
    assert params2.band_ratio == params2.eps0 == Fraction(1, 8)


def test_heavy_mnet_beyond_half(collinear4):
    _, system = collinear4
    fam = bk.heavy_mnet(system, Fraction(3, 4), Fraction(1, 4), bk.default_provider())
    assert bk.verify_mnet(system, fam).passed
    assert naive_mnet_ok(system, fam.pieces, Fraction(3, 4), Fraction(1, 4))


def test_heavy_mnet_small_eta_runs(collinear4):
    _, system = collinear4
    fam = bk.heavy_mnet(system, Fraction(1, 2), Fraction(1, 10), bk.default_provider())
    assert bk.verify_mnet(system, fam).passed


def test_build_container_edge_single_cover():
    one = bk.SetSystem.from_sets(5, [(0, 1, 2, 3), (0, 1, 2, 3, 4)])
    fam = bk.build_container(one, Fraction(4, 5), bk.default_provider())
    assert bk.verify_container(one, fam).passed


def test_build_container_verified_and_monotone(collinear4):
    _, system = collinear4
    fam = bk.build_container(system, Fraction(1, 4), bk.default_provider())
    assert bk.verify_container(system, fam).passed
    assert naive_container_ok(system, fam.covers, Fraction(1, 4))
    # threshold relaxation: an eps1-container passes at eps2 >= eps1
    relaxed = bk.make_container(system, fam.covers, Fraction(1, 2))
    assert bk.verify_container(system, relaxed).passed


def test_build_bracket_trivial_families(collinear4):
    _, system = collinear4
    full = system.full_mask
    always = bk.make_bracket(system, [0, full], Fraction(1))
    assert bk.verify_bracket(system, always).passed
    identity = bk.make_bracket(
        system, system.ranges, Fraction(0), pairing={m: (m, m) for m in system.ranges},
    )
    assert bk.verify_bracket(system, identity).passed


def test_build_bracket_collinear4(collinear4):
    _, system = collinear4
    fam = bk.build_bracket(system, Fraction(1, 2), bk.default_provider(), bk.default_provider())
    assert bk.verify_bracket(system, fam).passed
    # pairing covers every range with an exact (lower, upper) pair
    assert set(fam.pairing.keys()) == set(system.ranges)
    slack_cap = Fraction(1, 2) * 4
    for mask, (lo, hi) in fam.pairing.items():
        assert lo in fam.sets and hi in fam.sets
        assert (lo & mask) == lo and (mask & hi) == mask
        assert (hi & ~lo).bit_count() <= slack_cap


def test_constructions_are_deterministic(collinear4):
    _, system = collinear4
    a = bk.build_container(system, Fraction(1, 4), bk.default_provider())
    b = bk.build_container(system, Fraction(1, 4), bk.default_provider())
    assert a.covers == b.covers
    fa = bk.heavy_mnet(system, Fraction(3, 5), Fraction(1, 4), bk.default_provider())
    fb = bk.heavy_mnet(system, Fraction(3, 5), Fraction(1, 4), bk.default_provider())
    assert fa.pieces == fb.pieces


def _circle(n):
    return bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, n, "sphere"))


HINTED = {
    "base_mnet": lambda: bk.base_mnet(_circle(40), Fraction(1, 2), Fraction(1, 4)),
    "boost_epsilon": lambda: bk.boost_epsilon(
        _circle(40), bk.default_provider(), Fraction(1, 5), Fraction(1, 2)),
    "heavy_mnet": lambda: bk.heavy_mnet(
        _circle(40), Fraction(3, 4), Fraction(1, 4), bk.default_provider()),
    "bootstrap_interval_mnet": lambda: bk.bootstrap_interval_mnet(
        _circle(60), Fraction(1, 8), Fraction(1, 4), bk.default_provider()),
    "small_set_container": lambda: bk.small_set_container(
        bk.filter_by_size(_circle(60), upper=Fraction(15)),
        Fraction(1, 4), Fraction(1, 8), bk.default_provider()),
    "build_container": lambda: bk.build_container(
        _circle(60), Fraction(1, 20), bk.default_provider()),
    "build_bracket": lambda: bk.build_bracket(
        _circle(40), Fraction(1, 4), bk.default_provider(), bk.default_provider()),
}


@pytest.mark.parametrize("name", sorted(HINTED))
def test_construction_hints_serve_their_ranges(name):
    # The verifiers fall back to a scan on a wrong hint, so a bad witness
    # would pass them unseen; check every stored hint directly.
    fam = HINTED[name]()
    ranges = set(fam.base.ranges)
    slack_cap = fam.eps * fam.base.n
    if isinstance(fam, bk.MnetFamily):
        hints = fam.witness
        for mask, piece in hints.items():
            assert mask in ranges and piece in fam.pieces
            assert (piece & mask) == piece
            assert piece.bit_count() >= fam.lam * mask.bit_count()
    elif isinstance(fam, bk.ContainerFamily):
        hints = fam.witness
        for mask, cover in hints.items():
            assert mask in ranges and cover in fam.covers
            assert (mask & cover) == mask
            assert (cover & ~mask).bit_count() <= slack_cap
    else:
        hints = fam.pairing
        for mask, (lo, hi) in hints.items():
            assert mask in ranges and lo in fam.sets and hi in fam.sets
            assert (lo & mask) == lo and (mask & hi) == mask
            assert (hi & ~lo).bit_count() <= slack_cap
    assert len(hints) > 0
