"""Byte-identity gate: fixed constructions must keep their exact output.

The digests in ``golden_digests.json`` are SHA-256 hashes of the family JSON
(and of the protocol hypothesis list, protocol transcripts, hull-oracle
results, one planar halfspace system and one conic range system) for fixed
instances.  Any change to the construction stack that alters a single set,
its order or a parameter shows up here.
Regenerate the file only for an intended output change:

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


def _container70():
    # Two-word masks: bootstrap groups straddle the uint64 word edge.
    return bk.family_to_json(bk.build_container(_circle(70), Fraction(1, 8), bk.default_provider()))


def _container_random128():
    # A random domain with two-word masks, where bootstrap groups of one
    # and of several ranges both occur.
    pts = bk.random_point_set(2, 128, 12000)
    fam = bk.build_container(bk.enumerate_halfspace_ranges(pts), Fraction(1, 8), bk.default_provider())
    return bk.family_to_json(fam)


def _context64():
    ctx = bk.shared_protocol_context(_criterion9_domain(), Fraction(1, 8))
    sets = [list(indices_from_mask(m)) for m in ctx.hypotheses]
    return json.dumps({"cover_count": ctx.cover_count, "hypotheses": sets})


def _transcripts64():
    # Seeds 0-39 of both protocols include rounds in which no cover of the
    # hypothesis list is consistent with a consistent range, so the chosen
    # hypothesis is a range from the fallback block.
    domain = _criterion9_domain()
    eps0 = Fraction(1, 8)
    runs = []
    for seed in range(40):
        classifier, transcript = bk.learn_halfspace_protocol(bk.realizable_learning_instance(domain, seed), eps0)
        runs.append(["learn", list(indices_from_mask(classifier.positive_mask)), transcript.to_jsonl()])
        answer, transcript = bk.convex_disjointness_protocol(bk.random_disjointness_instance(domain, seed), eps0)
        runs.append(["disjoint", answer, transcript.to_jsonl()])
    return json.dumps(runs)


def _hulls64():
    # Criterion 9's oracle calls on its disjointness instances: both the
    # witness point of intersecting hulls and the Farkas functional of
    # disjoint ones.
    domain = _criterion9_domain()
    hulls = []
    for seed in range(500):
        inst = bk.random_disjointness_instance(domain, seed)
        hulls.append(repr(bk.exact_hull_intersection(domain, inst.alice, inst.bob)))
    return json.dumps(hulls)


def _halfspaces256():
    return bk.enumerate_halfspace_ranges(bk.random_point_set(2, 256, 11000)).to_json()


def _conics12():
    # Degree-2 Veronese lift of 12 planar points: conic ranges in d = 5.
    return bk.enumerate_halfspace_ranges(bk.veronese_lift(bk.random_point_set(2, 12, 3), 2))


def _conic_container12():
    return bk.family_to_json(bk.build_container(_conics12(), Fraction(1, 2), bk.default_provider()))


def _conic_bracket12():
    fam = bk.build_bracket(_conics12(), Fraction(1, 2), bk.default_provider(), bk.default_provider())
    return bk.family_to_json(fam)


def _ball_bracket24():
    # Planar balls are not closed under complement, so this bracket takes its
    # lower sets from the band loop on the system and its upper sets from the
    # one on the complement family.
    system = bk.enumerate_ball_ranges(bk.random_point_set(2, 24, 3))
    return bk.family_to_json(bk.build_bracket(system, Fraction(1, 2), bk.default_provider(), bk.default_provider()))


CASES = {
    "bracket-balls24-seed3-eps1/2": _ball_bracket24,
    "bracket-circle40-eps1/4": _bracket40,
    "boost-circle40-eps1/5-eta1/2": _boost40,
    "bracket-conics12-seed3-eps1/2": _conic_bracket12,
    "conics-n12-seed3": lambda: _conics12().to_json(),
    "container-conics12-seed3-eps1/2": _conic_container12,
    "container-circle60-eps1/20": _container60,
    "container-circle70-eps1/8": _container70,
    "container-random128-seed12000-eps1/8": _container_random128,
    "context-n64-criterion9-hypotheses": _context64,
    "halfspaces-n256-seed11000": _halfspaces256,
    "hulls-n64-criterion9": _hulls64,
    "transcripts-n64-criterion9": _transcripts64,
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name):
    expected = json.loads(DIGESTS.read_text())
    assert _digest(CASES[name]()) == expected[name]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({k: _digest(f()) for k, f in sorted(CASES.items())}, indent=2) + "\n")
