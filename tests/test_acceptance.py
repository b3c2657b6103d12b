"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria are property
based with exact-rational thresholds; the few trend checks state their
operationalization inline.  Expensive shared artifacts (range systems,
protocol contexts) are session fixtures.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import pytest

import bracketkit as bk
from bracketkit import trace

from conftest import criterion1_instance, general_position_points, mask_from_indices
from naive_checks import naive_bracket_ok, naive_container_ok, naive_mnet_ok

HALF = Fraction(1, 2)


def _report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="session")
def circle40():
    pts = bk.lower_bound_instance(2, 40, "sphere")
    return bk.enumerate_halfspace_ranges(pts)


@pytest.fixture(scope="session")
def circle60():
    pts = bk.lower_bound_instance(2, 60, "sphere")
    return bk.enumerate_halfspace_ranges(pts)


def _general_position_domain(n, seed):
    for attempt in range(20):
        pts = bk.random_point_set(2, n, seed * 1000 + attempt)
        try:
            bk.enumerate_halfspace_ranges(pts)
            return pts
        except bk.DegeneracyError:
            continue
    raise AssertionError("no general-position domain found")


# ---------------------------------------------------------------------------
# 1. Definition verifiers under mutation testing
# ---------------------------------------------------------------------------


def test_criterion_01_verifier_mutation_testing():
    start = time.time()
    instances = 200
    false_accepts = 0
    false_rejects = 0
    breaking = 0
    for i in range(instances):
        _, system = criterion1_instance(i)
        fam_kind = ("mnet", "container", "bracket")[(i // 3) % 3]
        rng = random.Random(5000 + i)
        if fam_kind == "mnet":
            fam = bk.base_mnet(system, HALF, Fraction(1, 4))
            sets, eps, lam = list(fam.pieces), fam.eps, fam.lam
            verify = lambda s: bk.verify_mnet(bk.make_mnet(system, s, lam, eps)).passed
            naive = lambda s: naive_mnet_ok(system, s, lam, eps)
        elif fam_kind == "container":
            fam = bk.build_container(system, HALF, bk.default_provider())
            sets, eps = list(fam.covers), fam.eps
            verify = lambda s: bk.verify_container(bk.make_container(system, s, eps)).passed
            naive = lambda s: naive_container_ok(system, s, eps)
        else:
            fam = bk.build_bracket(system, HALF, bk.default_provider(), bk.default_provider())
            sets, eps = list(fam.sets), fam.eps
            verify = lambda s: bk.verify_bracket(bk.make_bracket(system, s, eps)).passed
            naive = lambda s: naive_bracket_ok(system, s, eps)

        if not verify(sets):
            false_rejects += 1
            continue
        if sets:
            mutated = list(sets)
            mutated.pop(rng.randrange(len(mutated)))
            truth = naive(mutated)
            got = verify(mutated)
            if got and not truth:
                false_accepts += 1
            if truth and not got:
                false_rejects += 1
            if not truth:
                breaking += 1
    elapsed = time.time() - start
    _report(
        "criterion 1 (verifier mutation testing)",
        false_accepts == 0 and false_rejects == 0 and elapsed < 120,
        f"{instances} instances, {breaking} breaking mutations, "
        f"false_accepts={false_accepts}, false_rejects={false_rejects}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. Complement duality, exact
# ---------------------------------------------------------------------------


def test_criterion_02_duality_exact():
    rng = random.Random(77)
    runs = 0
    for i in range(100):
        delta0 = (Fraction(1, 4), Fraction(3, 8))[i % 2]
        lam = (Fraction(2, 3), Fraction(3, 4), Fraction(1))[i % 3]
        n = rng.randint(8, 12)
        cap = int(delta0 * n)
        masks = set()
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(0, cap)
            masks.add(sum(1 << b for b in rng.sample(range(n), size)))
        system = bk.SetSystem.from_masks(n, masks)
        comp = bk.complement_family(system)
        mnet = bk.base_mnet(comp, lam, 1 - delta0)
        cont = bk.mnet_to_container(system, mnet, delta0, lam)
        assert cont.eps == 1 - lam + lam * delta0
        check = bk.make_container(system, cont.covers, 1 - lam + lam * delta0)
        assert bk.verify_container(check).passed

        lam2 = lam * (1 - delta0)
        assert lam2 > delta0
        back = bk.container_to_mnet(system, cont, delta0, lam2)
        for piece in back.pieces:
            assert piece.bit_count() >= (lam2 - delta0) * n
        assert bk.verify_mnet(back).passed
        assert set(back.pieces) == set(mnet.pieces)  # double complement identity
        runs += 1
    _report("criterion 2 (duality, exact)", runs == 100, f"{runs} round trips, zero tolerance")


# ---------------------------------------------------------------------------
# 3. eps-boosting at the stated parameters
# ---------------------------------------------------------------------------


def test_criterion_03_boosting(circle40):
    system = circle40
    eta = HALF
    ok = True
    details = []
    for eps in (Fraction(1, 5), Fraction(3, 10)):
        provider = bk.default_provider()
        with trace.recording() as log:
            fam = bk.boost_epsilon(system, provider, eps, eta)
        assert fam.lam == provider.heaviness * (1 - eta) == Fraction(1, 4)
        assert bk.verify_mnet(fam).passed
        entry = log[0]
        eta_p = entry["eta_prime"]
        ok &= eta_p == min(Fraction(1, 4), eta / 2)
        ok &= (1 + eta_p) ** entry["t"] >= 1 / eps > (1 + eta_p) ** (entry["t"] - 1)
        for i, eps_i, delta_i in entry["bands"]:
            ok &= eps_i == (1 + eta_p) ** i * eps and delta_i == eta_p * eps_i
        details.append(f"eps={eps}: {len(fam.pieces)} pieces, eta'={eta_p}, t={entry['t']}")
    _report("criterion 3 (boosting, n=40 d=2)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. Heaviness beyond 1/2
# ---------------------------------------------------------------------------


def test_criterion_04_heavy_mnets(circle40):
    system = circle40
    details = []
    ok = True
    for lam in (Fraction(3, 5), Fraction(3, 4), Fraction(9, 10)):
        start = time.time()
        fam = bk.heavy_mnet(system, lam, Fraction(1, 4), bk.default_provider())
        elapsed = time.time() - start
        ok &= bk.verify_mnet(fam).passed and elapsed < 300
        details.append(f"lam={lam}: {len(fam.pieces)} pieces in {elapsed:.1f}s")
    _report("criterion 4 (heavy Mnets beyond 1/2)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Containers and brackets across the instance ladder
# ---------------------------------------------------------------------------


def _ladder_instances(circle40):
    out = [("collinear-4", 1, bk.enumerate_halfspace_ranges(bk.lower_bound_instance(1, 4, "grid")))]
    out.append(("circle-12", 2, bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 12, "sphere"))))
    out.append(("moment-16", 2, bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 16, "moment-curve"))))
    _, system = general_position_points(2, 10, 900)
    out.append(("random-10", 2, system))
    out.append(("circle-40", 2, circle40))
    return out


def test_criterion_05_container_bracket_ladder(circle40):
    ok = True
    details = []
    for name, d, system in _ladder_instances(circle40):
        d0 = bk.vc_dimension_exact(system, 4).value
        for eps in (Fraction(1, 4), HALF):
            cont = bk.build_container(system, eps, bk.default_provider())
            ok &= bk.verify_container(cont).passed
            ceiling = (2 / eps) ** (7.03 * d0)
            ok &= len(cont.covers) <= ceiling
            br = bk.build_bracket(system, eps, bk.default_provider(), bk.default_provider())
            ok &= bk.verify_bracket(br).passed
        details.append(f"{name}(d0={d0}): ok")
    _report("criterion 5 (containers/brackets, eps in {1/4,1/2})", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. Lower vs upper bounds on the circle instance
# ---------------------------------------------------------------------------


def test_criterion_06_lower_vs_upper(circle60):
    system = circle60
    lowers = {}
    uppers = {}
    ok = True
    for eps in (Fraction(1, 10), Fraction(1, 20)):
        lowers[eps] = bk.container_lower_bound(system, eps)
        cont = bk.build_container(system, eps, bk.default_provider())
        assert bk.verify_container(cont).passed
        uppers[eps] = len(cont.covers)
        ok &= lowers[eps] <= uppers[eps]
    ratio = lowers[Fraction(1, 20)] / lowers[Fraction(1, 10)]
    in_band = 1.5 <= ratio <= 2.5
    detail = (
        f"lower/upper at 1/10: {lowers[Fraction(1,10)]}/{uppers[Fraction(1,10)]}, "
        f"at 1/20: {lowers[Fraction(1,20)]}/{uppers[Fraction(1,20)]}, ratio={ratio:.2f} "
        f"(required in [1.5, 2.5])"
    )
    # The [1.5, 2.5] band encodes ~1/eps growth of the certificate.  On circle
    # arcs both the greedy packing certificate and the true container size
    # grow ~1/eps^2, so the growth-rate sub-check fails on this instance while
    # the certificate itself stays a valid lower bound (first sub-check).
    _report("criterion 6 (lower<=upper and doubling ratio)", ok and in_band, detail)


# ---------------------------------------------------------------------------
# 7. Packing properties and the Haussler-constant trend
# ---------------------------------------------------------------------------


def test_criterion_07_packings():
    ok = True
    c_hats = []
    for n in (10, 20, 40, 80):
        system = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, n, "sphere"))
        for cap in (None, n // 2):
            packing = bk.greedy_delta_packing(system, n // 4, shallow_cap=cap)
            members = packing.members
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    ok &= (members[i] ^ members[j]).bit_count() > packing.delta
            for mask in system.ranges:
                if cap is not None and mask.bit_count() > cap:
                    continue
                _, dist = bk.nearest_neighbor(packing, mask)
                ok &= dist <= packing.delta
        rep = bk.packing_bound_report(bk.greedy_delta_packing(system, n // 4), 3)
        c_hats.append(rep.empirical_constant)
    # Trend: the empirical constant converges to a bound rather than growing
    # with n: all values stay below 1 and the per-doubling growth factor is
    # strictly decreasing toward 1.
    growth = [b / a for a, b in zip(c_hats, c_hats[1:])]
    trend = all(c <= 1 for c in c_hats) and all(g2 < g1 for g1, g2 in zip(growth, growth[1:]))
    _report(
        "criterion 7 (packings exact + Haussler trend)",
        ok and trend,
        f"c_hat ladder {[f'{c:.3f}' for c in c_hats]}, growth {[f'{g:.3f}' for g in growth]}",
    )


# ---------------------------------------------------------------------------
# 8. Sauer-Shelah and complement VC
# ---------------------------------------------------------------------------


def test_criterion_08_sauer_shelah():
    systems = [("collinear-4", 4, bk.enumerate_halfspace_ranges(bk.lower_bound_instance(1, 4, "grid")))]
    systems.append(("circle-10", 4, bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 10, "sphere"))))
    pts8 = _general_position_domain(8, 31)
    systems.append(("random-8", 4, bk.enumerate_halfspace_ranges(pts8)))
    # axis-parallel boxes in the plane shatter 4 points, so the cap must be 5
    systems.append(("boxes-8", 5, bk.enumerate_box_ranges(bk.random_point_set(2, 8, 32))))
    ok = True
    details = []
    for name, cap, system in systems:
        vc = bk.vc_dimension_exact(system, cap)
        assert vc.exact
        d0 = vc.value
        ok &= bk.sauer_shelah_check(system, d0).passed
        vc_comp = bk.vc_dimension_exact(bk.complement_family(system), cap)
        ok &= vc_comp.exact and vc_comp.value == d0
        rng = random.Random(60)
        subsets = [tuple(sorted(rng.sample(range(system.n), rng.randint(1, system.n)))) for _ in range(12)]
        for subset in subsets:
            proj = bk.project(system, mask_from_indices(subset))
            bound = sum(math.comb(len(subset), i) for i in range(min(d0, len(subset)) + 1))
            ok &= len(proj.ranges) <= bound
        details.append(f"{name}: d0={d0}")
    _report("criterion 8 (Sauer-Shelah + complement VC)", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. Protocols at scale
# ---------------------------------------------------------------------------


def test_criterion_09_protocols():
    start = time.time()
    eps0 = Fraction(1, 8)
    domain = _general_position_domain(64, 11)

    consistent = 0
    for seed in range(500):
        inst = bk.realizable_learning_instance(domain, seed)
        classifier, transcript = bk.learn_halfspace_protocol(inst, eps0)
        if all(classifier(i) == l for i, l in inst.alice + inst.bob):
            consistent += 1
    deterministic = True
    for seed in range(10):
        inst = bk.realizable_learning_instance(domain, seed)
        _, t1 = bk.learn_halfspace_protocol(inst, eps0)
        _, t2 = bk.learn_halfspace_protocol(inst, eps0)
        deterministic &= t1 == t2
    # generator realizability is oracle-checked on a sample
    for seed in range(0, 500, 50):
        inst = bk.realizable_learning_instance(domain, seed)
        pos = [i for i, l in inst.alice + inst.bob if l > 0]
        neg = [i for i, l in inst.alice + inst.bob if l < 0]
        assert not bk.exact_hull_intersection(domain, pos, neg).intersecting

    agree = 0
    for seed in range(500):
        inst = bk.random_disjointness_instance(domain, seed)
        answer, _ = bk.convex_disjointness_protocol(inst, eps0)
        oracle = bk.exact_hull_intersection(domain, inst.alice, inst.bob)
        if (answer == "intersecting") == oracle.intersecting:
            agree += 1

    medians = {}
    for n in (16, 64, 256):
        dom = domain if n == 64 else _general_position_domain(n, 11)
        bits = []
        for seed in range(31):
            inst = bk.realizable_learning_instance(dom, seed)
            _, transcript = bk.learn_halfspace_protocol(inst, eps0)
            bits.append(transcript.total_bits)
        medians[n] = statistics.median(bits)
    sublinear = medians[64] / 64 < medians[16] / 16 and medians[256] / 256 < medians[64] / 64
    elapsed = time.time() - start
    _report(
        "criterion 9 (protocols)",
        consistent == 500 and agree == 500 and deterministic and sublinear and elapsed < 600,
        f"consistent={consistent}/500, oracle_agree={agree}/500, deterministic={deterministic}, "
        f"median bits {dict(medians)} (sub-linear), {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. Formula spot checks and the recursion depth cap
# ---------------------------------------------------------------------------


def test_criterion_10_formula_spot_checks():
    ok = True
    # eps'(eps) = 3*eps/(2+2*eps)
    ok &= 3 * HALF / (2 + 2 * HALF) == HALF
    ok &= 3 * Fraction(1, 5) / (2 + 2 * Fraction(1, 5)) == Fraction(1, 4)
    # eps0 = (1-lam)/4
    for lam in (HALF, Fraction(3, 5), Fraction(9, 10)):
        ok &= bk.HeavyMnetParams.from_targets(lam, Fraction(1, 4), HALF).eps0 == (1 - lam) / 4
    # t0(1/2, 1/2) = 1 + ln 8 / ln(4/3) before ceiling
    params = bk.HeavyMnetParams.from_targets(HALF, Fraction(1, 4), HALF)
    ok &= abs(params.t0_raw - (1 + math.log(8) / math.log(4 / 3))) < 1e-9
    ok &= params.t0 == 9
    # depth cap enforced and never exceeded across a full construction run
    _, system = general_position_points(2, 12, 901)
    with trace.recording() as log:
        bk.build_container(system, Fraction(1, 4), bk.default_provider())
        bk.heavy_mnet(system, Fraction(3, 4), Fraction(1, 4), bk.default_provider())
    ssc_entries = [e for e in log if e["op"] == "small-set-container"]
    ok &= bool(ssc_entries)
    ok &= all(e["max_depth"] <= e["depth_cap"] for e in ssc_entries)
    worst = max((e["max_depth"], e["depth_cap"]) for e in ssc_entries)
    _report(
        "criterion 10 (formula spot checks + depth cap)",
        ok,
        f"eps'(1/2)=1/2, eps'(1/5)=1/4, t0_raw={params.t0_raw:.9f}, "
        f"{len(ssc_entries)} recursion runs, deepest {worst[0]} <= cap {worst[1]}",
    )
