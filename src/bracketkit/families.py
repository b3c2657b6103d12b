"""Mnet, container and bracket families over a base set system.

All three are plain subset families with parameters; the optional witness
maps are construction bookkeeping that verifiers may use as hints but always
re-check.  ``make_*`` take the witness values as the sets themselves (a
mask, or a ``(lower, upper)`` mask pair for a bracket), keyed by range
index; the family stores each as its position in the canonical set order.
"""

import json
from dataclasses import dataclass
from fractions import Fraction

from .bitsets import indices_from_mask
from .errors import InputError, json_index_mask, parse_json_object
from .rationals import format_fraction, parse_fraction
from .setsystem import SetSystem, canonical_key


def _canonical_with_witness(n, sets, witness):
    """Canonically sort + dedup sets, mapping witness sets to their positions."""
    order = sorted(set(sets), key=lambda m: canonical_key(m, n))
    index = {mask: i for i, mask in enumerate(order)}
    remapped = None
    if witness is not None:
        remapped = {}
        for key, value in witness.items():
            if isinstance(value, tuple):
                remapped[key] = tuple(index[v] for v in value)
            else:
                remapped[key] = index[value]
    return tuple(order), remapped


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
    ordered, remapped = _canonical_with_witness(base.n, pieces, witness)
    return MnetFamily(base, ordered, Fraction(lam), Fraction(eps), remapped)


def make_container(base, covers, eps, witness=None):
    ordered, remapped = _canonical_with_witness(base.n, covers, witness)
    return ContainerFamily(base, ordered, Fraction(eps), remapped)


def make_bracket(base, sets, eps, pairing=None):
    ordered, remapped = _canonical_with_witness(base.n, sets, pairing)
    return BracketFamily(base, ordered, Fraction(eps), remapped)


def family_to_json(family):
    if isinstance(family, MnetFamily):
        payload = {
            "kind": "mnet",
            "params": {
                "lambda": format_fraction(family.lam),
                "epsilon": format_fraction(family.eps),
            },
            "sets": [list(indices_from_mask(m)) for m in family.pieces],
        }
    elif isinstance(family, ContainerFamily):
        payload = {
            "kind": "container",
            "params": {"epsilon": format_fraction(family.eps)},
            "sets": [list(indices_from_mask(m)) for m in family.covers],
        }
    elif isinstance(family, BracketFamily):
        payload = {
            "kind": "bracket",
            "params": {"epsilon": format_fraction(family.eps)},
            "sets": [list(indices_from_mask(m)) for m in family.sets],
        }
        if family.pairing is not None:
            payload["pairing"] = {str(k): list(v) for k, v in family.pairing.items()}
    else:
        raise InputError(f"unknown family type {type(family).__name__}")
    return json.dumps(payload)


def family_from_json(text, base):
    return parse_json_object(text, "family JSON", lambda data: _family_from_dict(data, base))


def _family_from_dict(data, base):
    kind = data.get("kind")
    if kind not in ("mnet", "container", "bracket"):
        raise InputError(f"unknown family kind {kind!r}")
    sets = [json_index_mask(s, "family JSON") for s in data["sets"]]
    params = data.get("params", {})
    eps = parse_fraction(params["epsilon"], name="epsilon")
    if kind == "mnet":
        return make_mnet(base, sets, parse_fraction(params["lambda"], name="lambda"), eps)
    if kind == "container":
        return make_container(base, sets, eps)
    pairing = data.get("pairing")
    if pairing is not None:
        pairing = {int(k): _pair_sets(sets, v) for k, v in pairing.items()}
    return make_bracket(base, sets, eps, pairing=pairing)


def _pair_sets(sets, pair):
    """The (lower, upper) sets a JSON pairing entry names by index."""
    lo, hi = pair
    if not (0 <= lo < len(sets) and 0 <= hi < len(sets)):
        raise InputError(f"pairing {pair} names a set outside the {len(sets)} sets")
    return sets[lo], sets[hi]
