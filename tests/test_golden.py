"""Byte-identity gate: fixed constructions must keep their exact output.

The digests in ``golden_digests.json`` are SHA-256 hashes of the family JSON
(and of the protocol hypothesis list and one planar halfspace system) for
fixed instances.  Any change to the construction stack that alters a single
set, its order or a parameter shows up here.  Regenerate the file only for
an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import bracketkit as bk
from bracketkit.bitsets import indices_from_mask

DIGESTS = Path(__file__).with_name("golden_digests.json")


def _circle(n):
    return bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, n, "sphere"))


def _criterion9_domain():
    for attempt in range(20):
        pts = bk.random_point_set(2, 64, 11 * 1000 + attempt)
        try:
            bk.enumerate_halfspace_ranges(pts)
            return pts
        except bk.DegeneracyError:
            continue
    raise AssertionError("no general-position domain found")


def _bracket40():
    fam = bk.build_bracket(_circle(40), Fraction(1, 4), bk.default_provider(), bk.default_provider())
    return bk.family_to_json(fam)


def _boost40():
    fam = bk.boost_epsilon(_circle(40), bk.default_provider(), Fraction(1, 5), Fraction(1, 2))
    return bk.family_to_json(fam)


def _container60():
    return bk.family_to_json(bk.build_container(_circle(60), Fraction(1, 20), bk.default_provider()))


def _context64():
    ctx = bk.shared_protocol_context(_criterion9_domain(), Fraction(1, 8))
    sets = [list(indices_from_mask(m)) for m in ctx.hypotheses]
    return json.dumps({"cover_count": ctx.cover_count, "hypotheses": sets})


def _halfspaces256():
    return bk.enumerate_halfspace_ranges(bk.random_point_set(2, 256, 11000)).to_json()


CASES = {
    "bracket-circle40-eps1/4": _bracket40,
    "boost-circle40-eps1/5-eta1/2": _boost40,
    "container-circle60-eps1/20": _container60,
    "context-n64-criterion9-hypotheses": _context64,
    "halfspaces-n256-seed11000": _halfspaces256,
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    expected = json.loads(DIGESTS.read_text())
    assert _digest(CASES[name]()) == expected[name]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({k: _digest(f()) for k, f in sorted(CASES.items())}, indent=2) + "\n")
