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


@pytest.fixture(scope="module")
def sys4():
    return bk.enumerate_halfspace_ranges(bk.lower_bound_instance(1, 4, "grid"))


def test_setsystem_contracts(sys4):
    with pytest.raises(bk.InputError):
        bk.SetSystem.from_masks(-1, [])
    with pytest.raises(bk.InputError):
        bk.vc_dimension_exact(sys4, -2)
    with pytest.raises(bk.InputError, match="d0 must be nonnegative"):
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


def test_json_output_over_the_index_budget_is_refused_before_any_list_is_built(monkeypatch):
    # 257 ranges of 65,535 elements: 16,842,495 element indices, just above
    # 2^24.  Their sizes are summed first, and no index list is made.
    n = bk.errors.MAX_GROUND_SET
    full = (1 << n) - 1
    system = bk.SetSystem.from_masks(n, [full ^ (1 << i) for i in range(257)])
    listed = []
    monkeypatch.setattr(bk.setsystem, "indices_from_mask", listed.append)
    for write, what in (
        (system.to_json, "set system JSON"),
        (lambda: bk.family_to_json(bk.make_container(system, system.ranges, 0)), "family JSON"),
    ):
        with pytest.raises(bk.ResourceBudgetError, match=f"element indices in {what} 16842495 exceeds the limit 16777216"):
            write()
    assert not listed


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
