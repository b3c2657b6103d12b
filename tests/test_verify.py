import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bracketkit as bk
from bracketkit.setsystem import canonical_sort
from bracketkit.verify import VerifyReport

from conftest import general_position_points, system_from_sets
from naive_checks import naive_bracket_ok, naive_container_ok, naive_mnet_ok


def test_mnet_trivial_anchors(collinear4):
    _, system = collinear4
    heavy = [m for m in system.ranges if m.bit_count() >= 2]
    fam = bk.make_mnet(system, heavy, Fraction(1), Fraction(1, 2))
    assert bk.verify_mnet(fam).passed
    empty_only = bk.make_mnet(system, [0], Fraction(1, 2), Fraction(1, 2))
    report = bk.verify_mnet(empty_only)
    assert not report.passed
    assert report.counterexample is not None


def test_mnet_collinear4_example(collinear4):
    _, system = collinear4
    fam = bk.make_mnet(system, [0b0011, 0b1100], Fraction(1, 2), Fraction(1, 2))
    report = bk.verify_mnet(fam)
    assert report.passed
    assert naive_mnet_ok(system, fam.pieces, fam.lam, fam.eps)


def test_container_trivial_anchors(collinear4):
    _, system = collinear4
    full = system.full_mask
    assert bk.verify_container(bk.make_container(system, [full], Fraction(1))).passed
    identity = bk.make_container(system, system.ranges, Fraction(0))
    assert bk.verify_container(identity).passed
    bad = bk.make_container(system, [0], Fraction(0))
    assert not bk.verify_container(bad).passed


def test_bracket_trivial_anchors(collinear4):
    _, system = collinear4
    full = system.full_mask
    fam = bk.make_bracket(system, [0, full], Fraction(1))
    assert bk.verify_bracket(fam).passed
    identity = bk.make_bracket(system, system.ranges, Fraction(0))
    assert bk.verify_bracket(identity).passed
    # n=4, F={0,1}, sets={X}, eps=1/4: no lower set at all
    one = system_from_sets(4, [(0, 1)])
    missing_lower = bk.make_bracket(one, [one.full_mask], Fraction(1, 4))
    assert not bk.verify_bracket(missing_lower).passed


def test_wrong_hints_never_flip_the_verdict(collinear4):
    _, system = collinear4
    heavy = [m for m in system.ranges if m.bit_count() >= 2]
    full = system.full_mask
    wrong_witness = {m: heavy[-1] for m in system.ranges}
    fam = bk.MnetFamily(system, tuple(heavy), Fraction(1), Fraction(1, 2), wrong_witness)
    assert bk.verify_mnet(fam).passed
    cont = bk.ContainerFamily(system, (full,), Fraction(1), {m: 99 for m in system.ranges})
    assert bk.verify_container(cont).passed
    br = bk.BracketFamily(system, (0, full), Fraction(1), {m: (full, 0) for m in system.ranges})
    assert bk.verify_bracket(br).passed


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
            assert bk.verify_mnet(fam).passed == naive_mnet_ok(system, fam.pieces, lam, eps)
        elif kind == "container":
            eps = Fraction(rng.randint(0, 4), 4)
            fam = bk.make_container(system, sets, eps)
            assert bk.verify_container(fam).passed == naive_container_ok(system, fam.covers, eps)
        else:
            eps = Fraction(rng.randint(0, 4), 4)
            fam = bk.make_bracket(system, sets, eps)
            assert bk.verify_bracket(fam).passed == naive_bracket_ok(system, fam.sets, eps)


def test_counterexample_is_first_in_canonical_order(collinear4):
    _, system = collinear4
    fam = bk.make_mnet(system, [], Fraction(1, 2), Fraction(1, 2))
    report = bk.verify_mnet(fam)
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
        report = verifier(fam)
        assert not report.passed
        assert report.counterexample[0] != 0


def test_a_hinted_lower_set_outside_the_family_never_passes(collinear4):
    # The family {X} at eps = 1 gives every range the upper set X within
    # slack n, but a range F != X has no lower set: X is the only set.  Each
    # such F is hinted (empty set, X), a pair of the right shape and slack
    # whose upper set is in the family and whose lower set is not.
    _, system = collinear4
    full = system.full_mask
    hint = {m: (0, full) for m in system.ranges if m != full}
    family = bk.BracketFamily(system, (full,), Fraction(1), hint)
    report = bk.verify_bracket(family)
    assert not report.passed
    assert report.counterexample[0] in hint
    assert not naive_bracket_ok(system, family.sets, family.eps)


def test_bracket_loose_hint_falls_back_to_the_tightest_pair():
    # F = {0,1} with slack cap floor(4/2) = 2.  The hint (empty, full) has
    # the right shape but slack 4; the sets, built directly out of canonical
    # order, list a loose lower and upper before the tight pair ({0}, {0,1,2}).
    system = bk.SetSystem.from_masks(4, [0b0011])
    hint = {0b0011: (0b0000, 0b1111)}
    sets = (0b0000, 0b1111, 0b0111, 0b0001)
    tight = bk.BracketFamily(system, sets, Fraction(1, 2), pairing=hint)
    report = bk.verify_bracket(tight)
    assert report.passed and naive_bracket_ok(system, sets, tight.eps)
    loose = bk.BracketFamily(system, (0b0000, 0b1111, 0b0001), Fraction(1, 2), pairing=hint)
    assert not bk.verify_bracket(loose).passed
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
            sets = canonical_sort(set(sets))
        pool = sets + [rng.getrandbits(n)]
        pairing = {
            m: (rng.choice(pool), rng.choice(pool)) for m in system.ranges if rng.random() < 0.5
        }
        eps = Fraction(rng.randint(0, 4), 4)
        family = bk.BracketFamily(system, tuple(sets), eps, pairing=pairing)
        verdict = bk.verify_bracket(family).passed
        assert verdict == naive_bracket_ok(system, sets, eps)
        verdicts.append(verdict)
    assert 100 < sum(verdicts) < 500


def test_container_lower_bound_examples(collinear4):
    _, system = collinear4
    assert bk.container_lower_bound(system, Fraction(1, 2)) == 1
    assert bk.container_lower_bound(system, Fraction(3, 4)) == 1
    lb = bk.container_lower_bound(system, Fraction(1, 8))
    assert lb == 4
    # at eps=1/8 the slack floor(n/8)=0, so covers must equal ranges: the
    # minimal container is the identity family of size 8 >= 4
    identity = bk.make_container(system, system.ranges, Fraction(1, 8))
    assert bk.verify_container(identity).passed
    assert lb <= len(identity.covers)
    with pytest.raises(bk.InputError):
        bk.container_lower_bound(system, Fraction(1))


def test_lower_bound_below_any_accepted_family():
    rng = random.Random(7)
    pts, system = general_position_points(2, 7, 21)
    for eps in (Fraction(1, 7), Fraction(2, 7), Fraction(3, 7)):
        lb = bk.container_lower_bound(system, eps)
        cont = bk.build_container(system, eps, bk.default_provider())
        assert bk.verify_container(cont).passed
        assert lb <= len(cont.covers)


# Linear-scan references for the size-band verifiers: each tries the valid
# hint, then scans every set of the family in the family's order, with its
# own Fraction form of the serving test.

def linear_verify_mnet(system, family):
    members = set(family.pieces)
    witness = family.witness or {}
    checked = 0
    for mask in system.ranges:
        size = mask.bit_count()
        if size < family.eps * system.n:
            continue
        checked += 1

        def serves(piece):
            return piece & mask == piece and piece.bit_count() >= family.lam * size

        hint = witness.get(mask)
        found = hint if hint in members and serves(hint) else next(filter(serves, family.pieces), None)
        if found is None:
            reason = f"no piece of size >= {family.lam}*{size} inside range"
            return VerifyReport(False, checked, (mask, reason))
    return VerifyReport(True, checked, None)


def linear_verify_container(system, family):
    slack = family.eps * system.n
    members = set(family.covers)
    witness = family.witness or {}
    for checked, mask in enumerate(system.ranges, 1):
        def serves(cover):
            return mask & cover == mask and (cover & ~mask).bit_count() <= slack

        hint = witness.get(mask)
        found = hint if hint in members and serves(hint) else next(filter(serves, family.covers), None)
        if found is None:
            reason = f"no cover within slack {int(slack)}"
            return VerifyReport(False, checked, (mask, reason))
    return VerifyReport(True, len(system.ranges), None)


def linear_verify_bracket(system, family):
    slack = family.eps * system.n
    members = set(family.sets)
    pairing = family.pairing or {}
    for checked, mask in enumerate(system.ranges, 1):
        lo, hi = pairing.get(mask, (None, None))
        if not (lo in members and hi in members and lo & mask == lo and mask & hi == mask
                and hi.bit_count() - lo.bit_count() <= slack):
            lo = max((s for s in family.sets if s & mask == s), key=int.bit_count, default=None)
            hi = min((s for s in family.sets if mask & s == mask), key=int.bit_count, default=None)
            if lo is None or hi is None or hi.bit_count() - lo.bit_count() > slack:
                reason = f"no bracket pair within slack {int(slack)}"
                return VerifyReport(False, checked, (mask, reason))
    return VerifyReport(True, len(system.ranges), None)


@st.composite
def verifier_cases(draw):
    """A random system on n = 0 to 130 elements (up to three mask words) and
    one set list drawn around its ranges: each range adds up to three of
    itself, a superset and a subset differing from it by a sparse word, and
    a few random sets join them.  The list comes in canonical order or
    shuffled, and the families built from it carry no hints, or hints drawn
    half from the sets made for the range (in the family or not) and half
    from one stray set and the family's sets."""
    n = draw(st.integers(0, 130))
    word = st.integers(0, (1 << n) - 1)
    ranges = []
    for _ in range(draw(st.integers(0, 16))):
        a, b = draw(word), draw(word)
        ranges.append(draw(st.sampled_from([a, a & b, a | b])))
    system = bk.SetSystem.from_masks(n, ranges)
    sets = draw(st.lists(word, max_size=3))
    near = {}
    for mask in system.ranges:
        sparse = draw(word) & draw(word) & draw(word)
        near[mask] = [mask, mask | sparse, mask & ~sparse]
        sets += draw(st.lists(st.sampled_from(near[mask]), max_size=3))
    sets = tuple(canonical_sort(set(sets))) if draw(st.booleans()) else tuple(draw(st.permutations(sets)))
    stray = draw(word)
    witness = pairing = None
    if draw(st.booleans()):
        hints = {m: st.one_of(st.sampled_from(near[m]), st.sampled_from((stray, *sets))) for m in system.ranges}
        witness = {m: draw(hints[m]) for m in system.ranges if draw(st.booleans())}
        pairing = {m: (draw(hints[m]), draw(hints[m])) for m in system.ranges if draw(st.booleans())}
    lam = draw(st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)]))
    eps = draw(st.sampled_from([Fraction(0), Fraction(1, 16), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)]))
    families = (
        bk.MnetFamily(system, sets, lam, eps, witness),
        bk.ContainerFamily(system, sets, eps, witness),
        bk.BracketFamily(system, sets, eps, pairing),
    )
    return system, families


@given(verifier_cases())
@settings(max_examples=150, deadline=None)
def test_size_band_verifiers_match_linear_scan(case):
    # Verdict, checked and counterexample never depend on set order, so the
    # band and the linear scan agree on shuffled families too.
    system, (mnet, cont, br) = case
    for verifier, reference, family in (
        (bk.verify_mnet, linear_verify_mnet, mnet),
        (bk.verify_container, linear_verify_container, cont),
        (bk.verify_bracket, linear_verify_bracket, br),
    ):
        got, want = verifier(family), reference(system, family)
        assert (got.passed, got.checked, got.counterexample) == (want.passed, want.checked, want.counterexample)
    assert bk.verify_mnet(mnet).passed == naive_mnet_ok(system, mnet.pieces, mnet.lam, mnet.eps)
    assert bk.verify_container(cont).passed == naive_container_ok(system, cont.covers, cont.eps)
    assert bk.verify_bracket(br).passed == naive_bracket_ok(system, br.sets, br.eps)
