"""Error-contract checks: documented precondition violations raise InputError
(or the dedicated degeneracy/budget errors), never bare exceptions."""

import json
import re
from fractions import Fraction

import pytest

import bracketkit as bk


@pytest.fixture(scope="module")
def sys4():
    return bk.enumerate_halfspace_ranges(bk.lower_bound_instance(1, 4, "grid"))


def test_setsystem_contracts(sys4):
    with pytest.raises(bk.InputError):
        bk.SetSystem.from_masks(-1, [])
    with pytest.raises(bk.InputError):
        bk.vc_dimension_exact(sys4, -2)


def test_geometry_contracts():
    with pytest.raises(bk.InputError):
        bk.veronese_lift(bk.lower_bound_instance(1, 3, "grid"), 0)
    with pytest.raises(bk.InputError):
        bk.enumerate_polytope_ranges(bk.lower_bound_instance(1, 4, "grid"), 0)
    with pytest.raises(bk.InputError):
        bk.PointSet.from_signed_rows(2, [["1"]])
    with pytest.raises(bk.InputError):
        bk.LinearQuery((Fraction(0), Fraction(0)), Fraction(1))
    for d, n in ((0, 1), (-1, 1), (2, -1)):
        with pytest.raises(bk.InputError):
            bk.random_point_set(d, n, 0)


def test_packing_contracts(sys4):
    with pytest.raises(bk.InputError):
        bk.greedy_delta_packing(sys4, -1)


def test_construction_contracts(sys4):
    provider = bk.default_provider()
    with pytest.raises(bk.InputError):
        bk.base_mnet(sys4, Fraction(0), Fraction(1, 2))
    with pytest.raises(bk.InputError):
        bk.base_mnet(sys4, Fraction(1, 2), Fraction(0))
    with pytest.raises(bk.InputError):
        bk.boost_epsilon(sys4, provider, Fraction(1), Fraction(1, 2))
    with pytest.raises(bk.InputError):
        bk.heavy_mnet(sys4, Fraction(1), Fraction(1, 4), provider)
    with pytest.raises(bk.InputError):
        bk.build_container(sys4, Fraction(1), provider)
    with pytest.raises(bk.InputError):
        bk.small_set_container(sys4, Fraction(1, 4), Fraction(1, 2), provider)
    with pytest.raises(bk.InputError):
        bk.PropertyMProvider(heaviness=Fraction(1))


def test_verify_contracts(sys4):
    with pytest.raises(bk.InputError):
        bk.container_lower_bound(sys4, Fraction(0))


def test_empty_ground_set_full_stack():
    sys0 = bk.enumerate_halfspace_ranges(bk.PointSet(2, ()))
    assert sys0.ranges == (0,)
    provider = bk.default_provider()
    assert bk.verify_container(sys0, bk.build_container(sys0, Fraction(1, 2), provider)).passed
    assert bk.verify_mnet(sys0, bk.heavy_mnet(sys0, Fraction(3, 4), Fraction(1, 4), provider)).passed
    assert bk.verify_bracket(
        sys0, bk.build_bracket(sys0, Fraction(1, 2), provider, bk.default_provider())
    ).passed


@pytest.mark.parametrize("index", [-2, 1.5, "a", None])
def test_malformed_element_index_is_named(index):
    with pytest.raises(bk.InputError, match=re.escape(f"set system JSON: element index {index!r} is not")):
        bk.SetSystem.from_json(json.dumps({"n": 4, "ranges": [[0, index]]}))
    base = bk.SetSystem.from_sets(4, [(0, 1)])
    family = {"kind": "container", "params": {"epsilon": "1/2"}, "sets": [[index]]}
    with pytest.raises(bk.InputError, match=re.escape(f"family JSON: element index {index!r} is not")):
        bk.family_from_json(json.dumps(family), base)
