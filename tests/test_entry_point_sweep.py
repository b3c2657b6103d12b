"""Property sweep of the public entry points: the seven constructions, the
duality pair and the CLI's construction commands, on small systems and on
simple and extreme parameters.  Every call returns a family that verifies,
or raises a ``BracketkitError``; no raw arithmetic, memory or recursion
error escapes, and the CLI exits 0 or 2 without a traceback."""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bracketkit as bk
from bracketkit.cli import main
from bracketkit.verify import verify_family

# Simple fractions, then 1/10^k and 1 - 1/10^k for k = 1, 20 and 400.
PARAMETERS = [
    Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4),
    Fraction(1, 8), Fraction(3, 2),
    *(p for k in (1, 20, 400) for p in (Fraction(1, 10**k), 1 - Fraction(1, 10**k))),
]

FIXED_SYSTEMS = {
    "circle-12": bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 12, "sphere")),
    "grid-4": bk.enumerate_halfspace_ranges(bk.lower_bound_instance(1, 4, "grid")),
}


@st.composite
def abstract_systems(draw):
    """A random set system on at most 8 elements."""
    n = draw(st.integers(0, 8))
    return bk.SetSystem.from_masks(n, draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12)))


SYSTEMS = st.one_of(st.sampled_from(sorted(FIXED_SYSTEMS)).map(FIXED_SYSTEMS.get), abstract_systems())


def _duality_input(system, sets):
    """The input sets of a duality call: the complements of the ranges (a
    1-heavy Mnet of the complemented small ranges), the ranges themselves
    (a 0-slack container of the small ranges) or drawn masks."""
    full = system.full_mask
    if sets == "complements":
        return [full ^ r for r in system.ranges]
    if sets == "ranges":
        return list(system.ranges)
    return [m & full for m in sets]


# name -> call on (system, a, b, duality sets); a and b are the drawn parameters.
CONSTRUCTIONS = {
    "base_mnet": lambda s, a, b, sets: bk.base_mnet(s, a, b),
    "boost_epsilon": lambda s, a, b, sets: bk.boost_epsilon(s, bk.default_provider(), a, b),
    "small_set_container": lambda s, a, b, sets: bk.small_set_container(s, a, b, bk.default_provider()),
    "bootstrap_interval_mnet": lambda s, a, b, sets: bk.bootstrap_interval_mnet(s, a, b, bk.default_provider()),
    "heavy_mnet": lambda s, a, b, sets: bk.heavy_mnet(s, a, b, bk.default_provider()),
    "build_container": lambda s, a, b, sets: bk.build_container(s, a, bk.default_provider()),
    "build_bracket": lambda s, a, b, sets: bk.build_bracket(s, a, bk.default_provider(), bk.default_provider()),
    "mnet_to_container": lambda s, a, b, sets: bk.mnet_to_container(
        s, bk.make_mnet(s, _duality_input(s, sets), 1, 1), a, b),
    "container_to_mnet": lambda s, a, b, sets: bk.container_to_mnet(
        s, bk.make_container(s, _duality_input(s, sets), 0), a, b),
}

DUALITY_SETS = st.one_of(st.sampled_from(["complements", "ranges"]), st.lists(st.integers(0, 255), max_size=6))


@given(
    name=st.sampled_from(sorted(CONSTRUCTIONS)),
    system=SYSTEMS,
    a=st.sampled_from(PARAMETERS),
    b=st.sampled_from(PARAMETERS),
    sets=DUALITY_SETS,
)
@settings(max_examples=800, deadline=None)
def test_a_public_construction_returns_a_verified_family_or_a_package_error(name, system, a, b, sets):
    try:
        family = CONSTRUCTIONS[name](system, a, b, sets)
    except bk.BracketkitError:
        return
    assert family.base.n == system.n
    assert verify_family(family).passed


CLI_CALLS = {
    "mnet": lambda a, b, algorithm: ["mnet", "--algorithm", algorithm, "--lambda", a, "--eta", b, "--eps", a],
    "container": lambda a, b, algorithm: ["container", "--eps", a],
    "bracket": lambda a, b, algorithm: ["bracket", "--eps", a],
}


@given(
    command=st.sampled_from(sorted(CLI_CALLS)),
    system=SYSTEMS,
    a=st.sampled_from(PARAMETERS),
    b=st.sampled_from(PARAMETERS),
    algorithm=st.sampled_from(["heavy", "boost", "base"]),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_a_cli_construction_exits_0_or_2_without_a_traceback(tmp_path, capsys, command, system, a, b, algorithm):
    system_path = tmp_path / "system.json"
    out = tmp_path / "family.json"
    system_path.write_text(system.to_json())
    out.unlink(missing_ok=True)
    argv = [*CLI_CALLS[command](str(a), str(b), algorithm), "--system", str(system_path), "--out", str(out)]
    status = main(argv)
    err = capsys.readouterr().err
    assert status in (0, 2), err
    assert "Traceback" not in err
    if status == 0:
        assert verify_family(bk.family_from_json(out.read_text(), system)).passed
    else:
        assert err.startswith("usage error: ") and not out.exists()
