import json
from fractions import Fraction

import pytest

import bracketkit as bk
from bracketkit.bitsets import indices_from_mask
from bracketkit.families import family_from_json, family_to_json


def test_mnet_json_roundtrip(collinear4):
    _, system = collinear4
    fam = bk.base_mnet(system, Fraction(1, 2), Fraction(1, 2))
    again = family_from_json(family_to_json(fam), system)
    assert again.pieces == fam.pieces
    assert again.lam == fam.lam and again.eps == fam.eps


def test_bracket_json_roundtrip_keeps_valid_pairing(collinear4):
    _, system = collinear4
    fam = bk.build_bracket(system, Fraction(1, 2), bk.default_provider(), bk.default_provider())
    again = family_from_json(family_to_json(fam), system)
    assert again.sets == fam.sets
    assert again.pairing == fam.pairing
    slack_cap = Fraction(1, 2) * system.n
    for mask, (lo, hi) in again.pairing.items():
        assert lo in again.sets and hi in again.sets
        assert (lo & mask) == lo and (mask & hi) == mask
        assert (hi & ~lo).bit_count() <= slack_cap


def test_container_json_roundtrip(collinear4):
    _, system = collinear4
    fam = bk.build_container(system, Fraction(1, 4), bk.default_provider())
    again = family_from_json(family_to_json(fam), system)
    assert again.covers == fam.covers
    assert bk.verify_container(again).passed


def test_family_canonicalization_remaps_witness(collinear4):
    _, system = collinear4
    # feed sets out of canonical order, with duplicates and a witness keyed
    # by the full range's mask
    sets = [0b0011, 0b1111, 0b0011]
    fam = bk.make_mnet(system, sets, Fraction(1, 2), Fraction(1, 2), witness={0b1111: 0b1111})
    # canonical order puts the full set first; the witness is stored as given
    assert fam.pieces == (0b1111, 0b0011)
    assert fam.witness == {0b1111: 0b1111}


def test_unknown_kind_rejected(collinear4):
    _, system = collinear4
    with pytest.raises(bk.InputError):
        family_from_json('{"kind": "mystery", "params": {}, "sets": []}', system)


def _payload_by_definition(kind, params, sets, pairing=None):
    payload = {"kind": kind, "params": params, "sets": [list(indices_from_mask(m)) for m in sets]}
    if pairing is not None:
        payload["pairing"] = pairing
    return json.dumps(payload)


@pytest.mark.parametrize("block_cells", [bk.bitsets._BLOCK_CELLS, 1])
def test_family_json_is_json_dumps_of_the_payload(monkeypatch, block_cells):
    monkeypatch.setattr(bk.bitsets, "_BLOCK_CELLS", block_cells)
    system = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 12, "sphere"))
    eps = Fraction(1, 4)
    mnet = bk.base_mnet(system, Fraction(1, 2), eps)
    params = {"lambda": "1/2", "epsilon": "1/4"}
    assert family_to_json(mnet) == _payload_by_definition("mnet", params, mnet.pieces)
    container = bk.build_container(system, eps, bk.default_provider())
    assert family_to_json(container) == _payload_by_definition("container", {"epsilon": "1/4"}, container.covers)
    bracket = bk.build_bracket(system, eps, bk.default_provider(), bk.default_provider())
    pairing = {
        str(i): [bracket.sets.index(lo), bracket.sets.index(hi)]
        for i, (lo, hi) in enumerate(map(bracket.pairing.get, system.ranges))
    }
    assert family_to_json(bracket) == _payload_by_definition("bracket", {"epsilon": "1/4"}, bracket.sets, pairing)
    unpaired = bk.make_bracket(system, bracket.sets, eps)
    assert family_to_json(unpaired) == _payload_by_definition("bracket", {"epsilon": "1/4"}, bracket.sets)
