import random
from fractions import Fraction

import pytest

import bracketkit as bk
from bracketkit.setsystem import canonical_sort
from bracketkit.verify import _stats

from conftest import general_position_points
from naive_checks import naive_bracket_ok, naive_container_ok, naive_mnet_ok


def test_mnet_trivial_anchors(collinear4):
    _, system = collinear4
    heavy = [m for m in system.ranges if m.bit_count() >= 2]
    fam = bk.make_mnet(system, heavy, Fraction(1), Fraction(1, 2))
    assert bk.verify_mnet(system, fam).passed
    empty_only = bk.make_mnet(system, [0], Fraction(1, 2), Fraction(1, 2))
    report = bk.verify_mnet(system, empty_only)
    assert not report.passed
    assert report.counterexample is not None


def test_mnet_collinear4_example(collinear4):
    _, system = collinear4
    fam = bk.make_mnet(system, [0b0011, 0b1100], Fraction(1, 2), Fraction(1, 2))
    report = bk.verify_mnet(system, fam)
    assert report.passed
    assert naive_mnet_ok(system, fam.pieces, fam.lam, fam.eps)


def test_container_trivial_anchors(collinear4):
    _, system = collinear4
    full = system.full_mask
    assert bk.verify_container(system, bk.make_container(system, [full], Fraction(1))).passed
    identity = bk.make_container(system, system.ranges, Fraction(0))
    assert bk.verify_container(system, identity).passed
    bad = bk.make_container(system, [0], Fraction(0))
    assert not bk.verify_container(system, bad).passed


def test_bracket_trivial_anchors(collinear4):
    _, system = collinear4
    full = system.full_mask
    fam = bk.make_bracket(system, [0, full], Fraction(1))
    assert bk.verify_bracket(system, fam).passed
    identity = bk.make_bracket(system, system.ranges, Fraction(0))
    assert bk.verify_bracket(system, identity).passed
    # n=4, F={0,1}, sets={X}, eps=1/4: no lower set at all
    one = bk.SetSystem.from_sets(4, [(0, 1)])
    missing_lower = bk.make_bracket(one, [one.full_mask], Fraction(1, 4))
    assert not bk.verify_bracket(one, missing_lower).passed


def test_wrong_hints_never_flip_the_verdict(collinear4):
    _, system = collinear4
    heavy = [m for m in system.ranges if m.bit_count() >= 2]
    full = system.full_mask
    wrong_witness = {m: heavy[-1] for m in system.ranges}
    fam = bk.MnetFamily(system, tuple(heavy), Fraction(1), Fraction(1, 2), wrong_witness)
    assert bk.verify_mnet(system, fam).passed
    cont = bk.ContainerFamily(system, (full,), Fraction(1), {m: 99 for m in system.ranges})
    assert bk.verify_container(system, cont).passed
    br = bk.BracketFamily(system, (0, full), Fraction(1), {m: (full, 0) for m in system.ranges})
    assert bk.verify_bracket(system, br).passed


def _random_system(rng, n_lo=4, n_hi=8):
    n = rng.randint(n_lo, n_hi)
    count = rng.randint(1, 14)
    masks = [rng.randrange(1 << n) for _ in range(count)]
    return bk.SetSystem.from_masks(n, masks)


def test_verifiers_match_naive_on_random_families():
    rng = random.Random(42)
    for _ in range(120):
        system = _random_system(rng)
        n = system.n
        kind = rng.choice(["mnet", "container", "bracket"])
        size = rng.randint(0, 6)
        sets = [rng.randrange(1 << n) for _ in range(size)]
        if kind == "mnet":
            lam = Fraction(rng.randint(1, 4), 4)
            eps = Fraction(rng.randint(1, 4), 4)
            fam = bk.make_mnet(system, sets, lam, eps)
            assert bk.verify_mnet(system, fam).passed == naive_mnet_ok(system, fam.pieces, lam, eps)
        elif kind == "container":
            eps = Fraction(rng.randint(0, 4), 4)
            fam = bk.make_container(system, sets, eps)
            assert bk.verify_container(system, fam).passed == naive_container_ok(system, fam.covers, eps)
        else:
            eps = Fraction(rng.randint(0, 4), 4)
            fam = bk.make_bracket(system, sets, eps)
            assert bk.verify_bracket(system, fam).passed == naive_bracket_ok(system, fam.sets, eps)


def test_counterexample_is_first_in_canonical_order(collinear4):
    _, system = collinear4
    fam = bk.make_mnet(system, [], Fraction(1, 2), Fraction(1, 2))
    report = bk.verify_mnet(system, fam)
    assert not report.passed
    # first heavy range in canonical order is the full set
    assert report.counterexample[0] == system.ranges[0]


def test_hint_outside_the_family_never_passes(collinear4):
    # Every range is hinted to itself, which would serve it exactly, but the
    # family holds only the empty set: the verifiers must ignore the hints.
    _, system = collinear4
    itself = {m: m for m in system.ranges}
    cases = (
        (bk.verify_mnet, bk.make_mnet(system, [0], Fraction(1), Fraction(1, 4), witness=itself)),
        (bk.verify_container, bk.make_container(system, [0], Fraction(0), witness=itself)),
        (bk.verify_bracket, bk.make_bracket(
            system, [0], Fraction(0), pairing={m: (m, m) for m in system.ranges})),
    )
    for verifier, fam in cases:
        report = verifier(system, fam)
        assert not report.passed
        assert report.counterexample[0] != 0


def test_bracket_loose_hint_falls_back_to_the_tightest_pair():
    # F = {0,1} with slack cap floor(4/2) = 2.  The hint (empty, full) has
    # the right shape but slack 4; the sets, built directly out of canonical
    # order, list a loose lower and upper before the tight pair ({0}, {0,1,2}).
    system = bk.SetSystem.from_masks(4, [0b0011])
    hint = {0b0011: (0b0000, 0b1111)}
    sets = (0b0000, 0b1111, 0b0111, 0b0001)
    tight = bk.BracketFamily(system, sets, Fraction(1, 2), pairing=hint)
    report = bk.verify_bracket(system, tight)
    assert report.passed and naive_bracket_ok(system, sets, tight.eps)
    assert report.witness_stats["max"] == 2
    loose = bk.BracketFamily(system, (0b0000, 0b1111, 0b0001), Fraction(1, 2), pairing=hint)
    assert not bk.verify_bracket(system, loose).passed
    assert not naive_bracket_ok(system, loose.sets, loose.eps)


def test_verify_bracket_matches_naive_on_random_families():
    rng = random.Random(13)
    verdicts = []
    for _ in range(600):
        n = rng.randint(0, 6)
        system = bk.SetSystem.from_masks(n, [rng.getrandbits(n) for _ in range(rng.randint(0, 6))])
        sets = [rng.getrandbits(n) for _ in range(rng.randint(0, 2))]
        for mask in system.ranges:
            sets += [mask & rng.getrandbits(n), mask | rng.getrandbits(n)]
        if rng.random() < 0.5:
            rng.shuffle(sets)
        else:
            sets = canonical_sort(set(sets), n)
        pool = sets + [rng.getrandbits(n)]
        pairing = {
            m: (rng.choice(pool), rng.choice(pool)) for m in system.ranges if rng.random() < 0.5
        }
        eps = Fraction(rng.randint(0, 4), 4)
        family = bk.BracketFamily(system, tuple(sets), eps, pairing=pairing)
        verdict = bk.verify_bracket(system, family).passed
        assert verdict == naive_bracket_ok(system, sets, eps)
        verdicts.append(verdict)
    assert 100 < sum(verdicts) < 500


def test_witness_stats_present(collinear4):
    _, system = collinear4
    heavy = [m for m in system.ranges if m.bit_count() >= 2]
    fam = bk.make_mnet(system, heavy, Fraction(1), Fraction(1, 2))
    report = bk.verify_mnet(system, fam)
    assert report.witness_stats["count"] == report.checked
    assert report.witness_stats["min"] >= 1.0


def test_mnet_ratio_stats_match_fraction_form():
    # verify_mnet stores |piece|/|R| as an int true division; both it and
    # float(Fraction) round correctly, so the stats must equal those of the
    # exact ratios of the pieces the verifier picks (valid hint, else first).
    system = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 40, "sphere"))
    fam = bk.heavy_mnet(system, Fraction(3, 4), Fraction(1, 4), bk.default_provider())
    report = bk.verify_mnet(system, fam)
    heavy_at = -((-fam.eps.numerator * system.n) // fam.eps.denominator)
    witness = fam.witness or {}
    exact = []
    for mask in system.ranges:
        size = mask.bit_count()
        if size < heavy_at or size == 0:
            continue
        hinted = [witness[mask]] if witness.get(mask) in fam.pieces else []
        found = next(
            p for p in hinted + list(fam.pieces) if p & mask == p and p.bit_count() >= fam.lam * size
        )
        exact.append(Fraction(found.bit_count(), size))
    assert report.passed and len(exact) == report.checked
    assert report.witness_stats == _stats(exact)


def test_container_lower_bound_examples(collinear4):
    _, system = collinear4
    assert bk.container_lower_bound(system, Fraction(1, 2)) == 1
    assert bk.container_lower_bound(system, Fraction(3, 4)) == 1
    lb = bk.container_lower_bound(system, Fraction(1, 8))
    assert lb == 4
    # at eps=1/8 the slack floor(n/8)=0, so covers must equal ranges: the
    # minimal container is the identity family of size 8 >= 4
    identity = bk.make_container(system, system.ranges, Fraction(1, 8))
    assert bk.verify_container(system, identity).passed
    assert lb <= len(identity.covers)
    with pytest.raises(bk.InputError):
        bk.container_lower_bound(system, Fraction(1))


def test_lower_bound_below_any_accepted_family():
    rng = random.Random(7)
    pts, system = general_position_points(2, 7, 21)
    for eps in (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)):
        lb = bk.container_lower_bound(system, eps)
        cont = bk.build_container(system, eps, bk.default_provider())
        assert bk.verify_container(system, cont).passed
        assert lb <= len(cont.covers)
