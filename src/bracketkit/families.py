"""Mnet, container and bracket families over a base set system.

All three are plain subset families with parameters; the optional witness
maps are construction bookkeeping that verifiers may use as hints but always
re-check.  A witness map is keyed by range mask, and its values are the sets
themselves: a mask, or a ``(lower, upper)`` mask pair for a bracket.
``make_*`` sort and dedupe the sets canonically and store the map as given.
Set positions appear only in the bracket JSON, whose ``pairing`` maps a
range index to the positions of its lower and upper set.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, json_index_mask, json_int, parse_fraction, parse_json_object
from .setsystem import SetSystem, canonical_sort, index_lists_json, json_object_text


@dataclass(frozen=True)
class MnetFamily:
    """Pieces such that every range of size >= eps*n contains a piece of size
    >= lam * |range|."""

    base: SetSystem
    pieces: tuple
    lam: Fraction
    eps: Fraction
    witness: object = None


@dataclass(frozen=True)
class ContainerFamily:
    """Covers such that every range F fits inside some cover C with
    |C \\ F| <= eps * n."""

    base: SetSystem
    covers: tuple
    eps: Fraction
    witness: object = None


@dataclass(frozen=True)
class BracketFamily:
    """Sets providing, per range F, a pair B- <= F <= B+ with
    |B+ \\ B-| <= eps * n."""

    base: SetSystem
    sets: tuple
    eps: Fraction
    pairing: object = None


def make_mnet(base, pieces, lam, eps, witness=None):
    pieces = tuple(canonical_sort(set(pieces)))
    return MnetFamily(base, pieces, Fraction(lam), Fraction(eps), witness)


def make_container(base, covers, eps, witness=None):
    return ContainerFamily(base, tuple(canonical_sort(set(covers))), Fraction(eps), witness)


def make_bracket(base, sets, eps, pairing=None):
    return BracketFamily(base, tuple(canonical_sort(set(sets))), Fraction(eps), pairing)


def family_to_json(family):
    if isinstance(family, MnetFamily):
        kind, params, sets = "mnet", {"lambda": str(family.lam), "epsilon": str(family.eps)}, family.pieces
    elif isinstance(family, ContainerFamily):
        kind, params, sets = "container", {"epsilon": str(family.eps)}, family.covers
    elif isinstance(family, BracketFamily):
        kind, params, sets = "bracket", {"epsilon": str(family.eps)}, family.sets
    else:
        raise InputError(f"unknown family type {type(family).__name__}")
    fields = {"kind": json.dumps(kind), "params": json.dumps(params), "sets": index_lists_json(sets, "family JSON")}
    if kind == "bracket" and family.pairing is not None:
        fields["pairing"] = json.dumps(_pairing_to_positions(family))
    return json_object_text(fields)


def family_from_json(text, base):
    return parse_json_object(text, "family JSON", lambda data: _family_from_dict(data, base))


def _family_from_dict(data, base):
    kind = data.get("kind")
    if kind not in ("mnet", "container", "bracket"):
        raise InputError(f"unknown family kind {kind!r}")
    sets = [json_index_mask(s, "family JSON") for s in data["sets"]]
    for s, mask in zip(data["sets"], sets):
        if mask >> base.n:
            raise InputError(f"family JSON: set {s} names an element outside the {base.n}-element ground set")
    params = data.get("params", {})
    eps = parse_fraction(params["epsilon"], name="epsilon")
    if kind == "mnet":
        return make_mnet(base, sets, parse_fraction(params["lambda"], name="lambda"), eps)
    if kind == "container":
        return make_container(base, sets, eps)
    pairing = data.get("pairing")
    if pairing is not None:
        if not isinstance(pairing, dict):
            raise InputError(f"family JSON: pairing must be an object, got {pairing!r}")
        # A key names a range only as the decimal string of its index.
        index = {str(i): mask for i, mask in enumerate(base.ranges)}
        for key in pairing:
            if key not in index:
                raise InputError(
                    f"pairing key {key!r} is not a range index of the {len(index)} ranges"
                )
        pairing = {index[k]: _pair_sets(sets, v) for k, v in pairing.items()}
    return make_bracket(base, sets, eps, pairing=pairing)


def _pairing_to_positions(family):
    """The JSON pairing: range index -> [lower position, upper position], in
    range order."""
    position = {mask: i for i, mask in enumerate(family.sets)}
    out = {}
    for idx, mask in enumerate(family.base.ranges):
        pair = family.pairing.get(mask)
        if pair is not None:
            if not (pair[0] in position and pair[1] in position):
                raise InputError(f"pairing of range {idx} names a set outside the family")
            out[str(idx)] = [position[pair[0]], position[pair[1]]]
    return out


def _pair_sets(sets, pair):
    """The (lower, upper) sets a JSON pairing entry names by position."""
    lo, hi = (json_int(i, "family JSON pairing: element index", 0) for i in pair)
    if not (lo < len(sets) and hi < len(sets)):
        raise InputError(f"pairing {pair} names a set outside the {len(sets)} sets")
    return sets[lo], sets[hi]
