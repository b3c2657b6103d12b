"""Error-contract checks: documented precondition violations raise InputError
(or the dedicated degeneracy/budget errors), never bare exceptions."""

import json
import re
from fractions import Fraction

import pytest

import bracketkit as bk
from bracketkit.errors import parse_fraction
from bracketkit.lp import solve_equality_feasibility
from bracketkit.verify import verify_family

from conftest import system_from_sets

HALF = Fraction(1, 2)
NAN, INF = float("nan"), float("inf")


@pytest.fixture(scope="module")
def sys4():
    return bk.enumerate_halfspace_ranges(bk.lower_bound_instance(1, 4, "grid"))


def test_setsystem_contracts(sys4):
    with pytest.raises(bk.InputError):
        bk.SetSystem.from_masks(-1, [])
    with pytest.raises(bk.InputError):
        bk.vc_dimension_exact(sys4, -2)
    with pytest.raises(bk.InputError, match="d0 -1 is not an integer >= 0"):
        bk.sauer_shelah_check(sys4, -1)


def test_geometry_contracts():
    with pytest.raises(bk.InputError):
        bk.veronese_lift(bk.lower_bound_instance(1, 3, "grid"), 0)
    with pytest.raises(bk.InputError):
        bk.enumerate_polytope_ranges(bk.lower_bound_instance(1, 4, "grid"), 0)
    with pytest.raises(bk.InputError):
        bk.PointSet.from_signed_rows(2, [["1"]])
    for d, n in ((0, 1), (-1, 1), (2, -1)):
        with pytest.raises(bk.InputError):
            bk.random_point_set(d, n, 0)


@pytest.mark.parametrize("call, what", [
    (lambda s: bk.random_point_set(2, 3.5, 1), "point count n 3.5"),
    (lambda s: bk.random_point_set(2, True, 1), "point count n True"),
    (lambda s: bk.random_point_set(2.0, 3, 1), "dimension d 2.0"),
    (lambda s: bk.lower_bound_instance(2, 5.5, "grid"), "point count n 5.5"),
    (lambda s: bk.lower_bound_instance(2, 2.5, "moment-curve"), "point count n 2.5"),
    (lambda s: bk.enumerate_polytope_ranges(bk.lower_bound_instance(1, 4, "grid"), 2.5),
     "polytope constraint count k 2.5"),
    (lambda s: bk.vc_dimension_exact(s, 2.5), "cap 2.5"),
    (lambda s: bk.sauer_shelah_check(s, 2.5), "d0 2.5"),
], ids=["random-n-float", "random-n-bool", "random-d-float", "grid-n-float", "moment-curve-n-float",
        "polytope-k-float", "vc-cap-float", "sauer-shelah-d0-float"])
def test_a_count_that_is_not_an_int_is_an_input_error(sys4, call, what):
    # Counts are not rounded or truncated: a float or a bool is refused by
    # name before it reaches range, islice or the point loop.
    with pytest.raises(bk.InputError, match=f"^{re.escape(what)} is not an integer"):
        call(sys4)


@pytest.mark.parametrize("seed", [[1], 1.0, "1", True, None], ids=["list", "float", "str", "bool", "none"])
@pytest.mark.parametrize("call", [
    lambda seed: bk.random_point_set(2, 3, seed),
    lambda seed: bk.jitter_points(bk.lower_bound_instance(2, 3, "grid"), 1, seed),
], ids=["random_point_set", "jitter_points"])
def test_a_seed_that_is_not_an_int_is_an_input_error(call, seed):
    # A seed is not hashed or truncated into one: random.Random would take a
    # float, a string or None, and a list would raise a raw TypeError.
    with pytest.raises(bk.InputError, match=f"^seed {re.escape(repr(seed))} is not an integer"):
        call(seed)


@pytest.mark.parametrize("scale, message", [
    (float("nan"), "jitter scale nan is not a finite rational"),
    (float("inf"), "jitter scale inf is not a finite rational"),
    (float("-inf"), "jitter scale -inf is not a finite rational"),
    ("x", "jitter scale 'x' is not a finite rational"),
    (-1, "jitter scale -1 is negative"),
    ("-1/3", "jitter scale -1/3 is negative"),
], ids=["nan", "inf", "minus-inf", "not-a-rational", "negative-int", "negative-string"])
def test_a_jitter_scale_that_is_not_a_nonnegative_rational_is_an_input_error(scale, message):
    with pytest.raises(bk.InputError, match=f"^{re.escape(message)}$"):
        bk.jitter_points(bk.lower_bound_instance(2, 3, "grid"), scale, 1)


def test_a_jitter_scale_keeps_its_rational_forms_and_its_exponent_budget():
    grid = bk.lower_bound_instance(2, 3, "grid")
    want = bk.jitter_points(grid, Fraction(1, 1024), 4)
    assert bk.jitter_points(grid, "1/1024", 4) == want
    assert bk.jitter_points(grid, 0, 4) == grid
    assert bk.jitter_points(grid, 2, 4) == bk.jitter_points(grid, Fraction(2), 4)
    with pytest.raises(bk.ResourceBudgetError, match="decimal exponent magnitude 99999999 exceeds the limit"):
        bk.jitter_points(grid, "1e99999999", 4)


def test_generator_sizes_keep_their_budgets():
    with pytest.raises(bk.ResourceBudgetError, match="dimension d"):
        bk.random_point_set(10**6, 1, 0)
    with pytest.raises(bk.ResourceBudgetError, match="point count n"):
        bk.lower_bound_instance(1, 10**9, "grid")


def test_decimal_exponent_is_bounded_before_it_is_built():
    # Python's digit limit on integer strings (4,300) bounds the exponent's
    # magnitude, in point coordinates and in every parsed rational.
    assert bk.PointSet.from_signed_rows(1, [["1e4300"], ["-2.5E-4300"]]).points == (
        (Fraction(10**4300),), (Fraction(-25, 10**4301),),
    )
    for text in ("1e4301", "1e-4301", " 3E99999999 "):
        with pytest.raises(bk.ResourceBudgetError, match="decimal exponent magnitude [0-9]+ exceeds the limit 4300$"):
            bk.PointSet.from_signed_rows(1, [[text]])
        with pytest.raises(bk.ResourceBudgetError, match="exceeds the limit 4300$"):
            parse_fraction(text, name="eps")
    with pytest.raises(bk.InputError, match="cannot parse rational"):
        parse_fraction("1e5e5", name="eps")


def test_packing_contracts(sys4):
    with pytest.raises(bk.InputError):
        bk.greedy_delta_packing(sys4, -1)
    empty = bk.greedy_delta_packing(bk.SetSystem.from_masks(4, []), 1)
    with pytest.raises(bk.InputError, match="packing has no members"):
        bk.nearest_neighbor(empty, 0)
    with pytest.raises(bk.InputError, match="needs d0 >= 1"):
        bk.packing_bound_report(bk.greedy_delta_packing(sys4, 1), 0)


def test_construction_contracts(sys4):
    provider = bk.default_provider()
    with pytest.raises(bk.InputError):
        bk.base_mnet(sys4, Fraction(0), Fraction(1, 2))
    with pytest.raises(bk.InputError):
        bk.base_mnet(sys4, Fraction(1, 2), Fraction(0))
    with pytest.raises(bk.InputError):
        bk.boost_epsilon(sys4, provider, Fraction(1), Fraction(1, 2))
    for eta in (Fraction(0), Fraction(1)):
        with pytest.raises(bk.InputError, match="eta must be in"):
            bk.boost_epsilon(sys4, provider, Fraction(1, 2), eta)
    no_pieces = bk.make_mnet(sys4, [], Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(bk.InputError, match="delta0 must be in"):
        bk.mnet_to_container(sys4, no_pieces, Fraction(0), Fraction(1, 2))
    with pytest.raises(bk.InputError, match="lam must be in"):
        bk.mnet_to_container(sys4, no_pieces, Fraction(1, 2), Fraction(0))
    no_covers = bk.make_container(sys4, [], Fraction(1, 2))
    with pytest.raises(bk.InputError, match="delta0 must be in"):
        bk.container_to_mnet(sys4, no_covers, Fraction(0), Fraction(1, 2))
    with pytest.raises(bk.InputError, match="lam must be at most 1"):
        bk.container_to_mnet(sys4, no_covers, Fraction(1, 2), Fraction(2))
    with pytest.raises(bk.PreconditionFailure, match="is not a 1/4-container") as failure:
        bk.container_to_mnet(sys4, no_covers, Fraction(1, 2), Fraction(3, 4))
    assert not failure.value.report.passed
    for eps in (Fraction(0), Fraction(1)):
        with pytest.raises(bk.InputError, match="eps must be in"):
            bk.build_bracket(sys4, eps, provider, bk.default_provider())
    with pytest.raises(bk.InputError):
        bk.heavy_mnet(sys4, Fraction(1), Fraction(1, 4), provider)
    with pytest.raises(bk.InputError):
        bk.build_container(sys4, Fraction(1), provider)
    with pytest.raises(bk.InputError):
        bk.small_set_container(sys4, Fraction(1, 4), Fraction(1, 2), provider)


@pytest.mark.parametrize("call, message", [
    (lambda s, p: bk.base_mnet(s, NAN, HALF), "lam nan"),
    (lambda s, p: bk.base_mnet(s, HALF, INF), "eps inf"),
    (lambda s, p: bk.base_mnet(s, HALF, "1/0"), "eps '1/0'"),
    (lambda s, p: bk.boost_epsilon(s, p, [HALF], HALF), "eps [Fraction(1, 2)]"),
    (lambda s, p: bk.boost_epsilon(s, p, HALF, -INF), "eta -inf"),
    (lambda s, p: bk.mnet_to_container(s, bk.make_mnet(s, [], HALF, HALF), "1/2x", HALF), "delta0 '1/2x'"),
    (lambda s, p: bk.container_to_mnet(s, bk.make_container(s, [], HALF), HALF, None), "lam None"),
    (lambda s, p: bk.small_set_container(s, HALF, NAN, p), "rho nan"),
    (lambda s, p: bk.bootstrap_interval_mnet(s, Fraction(1, 8), "x", p), "delta 'x'"),
    (lambda s, p: bk.heavy_mnet(s, "x", Fraction(1, 4), p), "lam 'x'"),
    (lambda s, p: bk.heavy_mnet(s, HALF, INF, p), "eta inf"),
    (lambda s, p: bk.build_container(s, None, p), "eps None"),
    (lambda s, p: bk.build_bracket(s, NAN, p, bk.default_provider()), "eps nan"),
    (lambda s, p: bk.container_lower_bound(s, NAN), "eps nan"),
    (lambda s, p: bk.learn_halfspace_protocol(
        bk.LearningInstance(bk.lower_bound_instance(2, 6, "sphere"), ((0, 1),), ((1, -1),)), INF), "eps0 inf"),
], ids=["base-lam-nan", "base-eps-inf", "base-eps-zero-denominator", "boost-eps-list", "boost-eta-minus-inf",
        "mnet-to-container-delta0", "container-to-mnet-lam-none", "small-set-rho-nan", "bootstrap-delta-str",
        "heavy-lam-str", "heavy-eta-inf", "container-eps-none", "bracket-eps-nan", "lower-bound-eps-nan",
        "learn-eps0-inf"])
def test_an_exact_parameter_that_is_not_a_finite_rational_is_an_input_error(sys4, call, message):
    # Fraction() would raise a raw ValueError, OverflowError, TypeError or
    # ZeroDivisionError; the parameter is refused by name instead.
    with pytest.raises(bk.InputError, match=f"^{re.escape(message)} is not a finite rational$"):
        call(sys4, bk.default_provider())


def test_an_exact_parameter_keeps_its_rational_forms(sys4):
    want = bk.base_mnet(sys4, HALF, Fraction(1, 4))
    for lam, eps in (("1/2", "1/4"), (0.5, 0.25), ("0.5", "25e-2"), (HALF, "1/4")):
        assert bk.base_mnet(sys4, lam, eps) == want
    assert bk.base_mnet(sys4, 1, 1) == bk.base_mnet(sys4, Fraction(1), Fraction(1))
    assert bk.build_container(sys4, "1/2", bk.default_provider()) == bk.build_container(
        sys4, HALF, bk.default_provider())
    assert bk.container_lower_bound(sys4, 0.25) == bk.container_lower_bound(sys4, Fraction(1, 4))
    with pytest.raises(bk.ResourceBudgetError, match="decimal exponent magnitude 99999999 exceeds the limit"):
        bk.base_mnet(sys4, "1e-99999999", HALF)


@pytest.mark.parametrize("call, message", [
    (lambda s: bk.greedy_delta_packing(s, "2"), "delta '2' is not an integer"),
    (lambda s: bk.greedy_delta_packing(s, 1.5), "delta 1.5 is not an integer"),
    (lambda s: bk.greedy_delta_packing(s, True), "delta True is not an integer"),
    (lambda s: bk.greedy_delta_packing(s, 1, shallow_cap=2.5), "shallow cap 2.5 is not an integer"),
    (lambda s: bk.greedy_delta_packing(s, 1, shallow_cap="2"), "shallow cap '2' is not an integer"),
    (lambda s: bk.nearest_neighbor(bk.greedy_delta_packing(s, 1), "a"), "query range 'a' is not an integer >= 0"),
    (lambda s: bk.nearest_neighbor(bk.greedy_delta_packing(s, 1), -1), "query range -1 is not an integer >= 0"),
    (lambda s: bk.project(s, "a"), "projection mask 'a' is not an integer"),
    (lambda s: bk.project(s, 1.0), "projection mask 1.0 is not an integer"),
], ids=["delta-str", "delta-float", "delta-bool", "cap-float", "cap-str", "query-str", "query-negative",
        "project-str", "project-float"])
def test_a_packing_count_or_mask_that_is_not_an_int_is_an_input_error(sys4, call, message):
    # The packing's delta and cap are absolute counts: 1.5 is refused, not
    # compared, and a string no longer reaches a raw TypeError.
    with pytest.raises(bk.InputError, match=f"^{re.escape(message)}"):
        call(sys4)


def test_verify_contracts(sys4):
    with pytest.raises(bk.InputError):
        bk.container_lower_bound(sys4, Fraction(0))
    with pytest.raises(bk.InputError, match="unknown family type"):
        verify_family(object())


def test_family_contracts(sys4):
    with pytest.raises(bk.InputError, match="must be nonnegative"):
        parse_fraction("-1/2", name="eps")
    with pytest.raises(bk.InputError, match="unknown family type"):
        bk.family_to_json(object())
    full = sys4.full_mask
    stray = bk.BracketFamily(sys4, (0, full), Fraction(1), {sys4.ranges[0]: (0b0001, full)})
    with pytest.raises(bk.InputError, match="names a set outside the family"):
        bk.family_to_json(stray)


def test_protocol_contracts():
    domain = bk.lower_bound_instance(2, 6, "sphere")
    with pytest.raises(bk.InputError, match="example index 6 outside domain"):
        bk.learn_halfspace_protocol(bk.LearningInstance(domain, ((6, 1),), ((0, -1),)), Fraction(1, 8))
    with pytest.raises(bk.InputError, match="index 6 outside domain"):
        bk.exact_hull_intersection(domain, [6], [0])
    with pytest.raises(bk.InputError, match="length mismatch"):
        solve_equality_feasibility([[1, 0]], [1, 2])
    with pytest.raises(bk.InputError, match="ragged"):
        solve_equality_feasibility([[1, 0], [1]], [1, 2])


def test_empty_ground_set_full_stack():
    sys0 = bk.enumerate_halfspace_ranges(bk.PointSet(2, ()))
    assert sys0.ranges == (0,)
    provider = bk.default_provider()
    assert bk.verify_container(bk.build_container(sys0, Fraction(1, 2), provider)).passed
    assert bk.verify_mnet(bk.heavy_mnet(sys0, Fraction(3, 4), Fraction(1, 4), provider)).passed
    assert bk.verify_bracket(bk.build_bracket(sys0, Fraction(1, 2), provider, bk.default_provider())).passed


def test_a_veronese_lift_above_the_dimension_limit_is_refused_before_it_is_built(monkeypatch):
    # Planar points lift to C(2+k, k) - 1 coordinates: 54 at degree 9, which
    # a point set JSON still holds, and 65 at degree 10, one above MAX_DIM.
    pts = bk.random_point_set(2, 3, 1)
    lifted = bk.veronese_lift(pts, 9)
    assert lifted.dim == 54
    assert bk.PointSet.from_json(lifted.to_json()) == lifted
    built = []
    monkeypatch.setattr(bk.geometry, "monomial_exponents", lambda *args: built.append(args))
    for degree, dim in ((10, 65), (10**6, 500001500000)):
        refusal = f"Veronese lift dimension at degree {degree}: {dim} exceeds the limit 64$"
        with pytest.raises(bk.ResourceBudgetError, match=refusal):
            bk.veronese_lift(pts, degree)
    assert not built


def test_a_veronese_lift_of_a_non_integer_degree_is_an_input_error(monkeypatch):
    # math.comb would raise a bare TypeError on 2.5; the degree is refused
    # before the dimension budget and before any coordinate is built.
    pts = bk.random_point_set(2, 3, 1)
    built = []
    monkeypatch.setattr(bk.geometry, "monomial_exponents", lambda *args: built.append(args))
    for degree in (2.5, 2.0, "2", Fraction(2)):
        with pytest.raises(bk.InputError, match=f"degree must be an integer >= 1, got {re.escape(repr(degree))}$"):
            bk.veronese_lift(pts, degree)
    assert not built


def test_json_output_over_the_index_budget_is_refused_before_any_list_is_built(monkeypatch):
    # 257 ranges of 65,535 elements: 16,842,495 element indices, just above
    # 2^24.  Their sizes are summed first, and no mask is packed, so no
    # index list is made.
    n = bk.errors.MAX_GROUND_SET
    full = (1 << n) - 1
    system = bk.SetSystem.from_masks(n, [full ^ (1 << i) for i in range(257)])
    packed = []
    monkeypatch.setattr(bk.setsystem, "pack_masks", lambda *args: packed.append(args))
    for write, what in (
        (system.to_json, "set system JSON"),
        (lambda: bk.family_to_json(bk.make_container(system, system.ranges, 0)), "family JSON"),
    ):
        with pytest.raises(bk.ResourceBudgetError, match=f"element indices in {what} 16842495 exceeds the limit 16777216"):
            write()
    assert not packed


def test_json_output_at_the_index_budget_is_written(monkeypatch):
    # 3 + 2 + 0 = 5 element indices: written at a budget of 5, refused at 4.
    system = system_from_sets(4, [(0, 1, 2), (1, 3), ()])
    fam = bk.make_mnet(system, system.ranges, 1, Fraction(1, 2))
    monkeypatch.setattr(bk.setsystem, "MAX_JSON_INDICES", 5)
    assert json.loads(system.to_json())["ranges"] == [[0, 1, 2], [1, 3], []]
    assert json.loads(bk.family_to_json(fam))["sets"] == [[0, 1, 2], [1, 3], []]
    monkeypatch.setattr(bk.setsystem, "MAX_JSON_INDICES", 4)
    for write, what in ((system.to_json, "set system JSON"), (lambda: bk.family_to_json(fam), "family JSON")):
        with pytest.raises(bk.ResourceBudgetError, match=f"element indices in {what} 5 exceeds the limit 4"):
            write()


@pytest.mark.parametrize("index", [-2, 1.5, "a", None])
def test_malformed_element_index_is_named(index):
    with pytest.raises(bk.InputError, match=re.escape(f"set system JSON: element index {index!r} is not")):
        bk.SetSystem.from_json(json.dumps({"n": 4, "ranges": [[0, index]]}))
    base = system_from_sets(4, [(0, 1)])
    family = {"kind": "container", "params": {"epsilon": "1/2"}, "sets": [[index]]}
    with pytest.raises(bk.InputError, match=re.escape(f"family JSON: element index {index!r} is not")):
        bk.family_from_json(json.dumps(family), base)
