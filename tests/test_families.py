from fractions import Fraction

import pytest

import bracketkit as bk
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
