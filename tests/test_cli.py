import contextlib
import csv
import io
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bracketkit as bk
from bracketkit.cli import main


def run_cli(args):
    return main(args)


def test_gen_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli(["gen", "--kind", "grid", "--d", "1", "--n", "4", "--seed", "0", "--out", str(a)]) == 0
    assert run_cli(["gen", "--kind", "grid", "--d", "1", "--n", "4", "--seed", "0", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_enum_and_verify_roundtrip(tmp_path):
    pts = tmp_path / "pts.json"
    system = tmp_path / "sys.json"
    fam = tmp_path / "fam.json"
    run_cli(["gen", "--kind", "grid", "--d", "1", "--n", "4", "--seed", "0", "--out", str(pts)])
    assert run_cli(["enum-ranges", "--points", str(pts), "--family", "halfspace", "--out", str(system)]) == 0
    data = json.loads(system.read_text())
    assert data["n"] == 4 and len(data["ranges"]) == 8
    assert run_cli(["container", "--system", str(system), "--eps", "1/2", "--out", str(fam)]) == 0
    assert run_cli(["verify", "--system", str(system), "--family", str(fam)]) == 0


def test_verify_failure_exit_code(tmp_path):
    system = tmp_path / "sys.json"
    fam = tmp_path / "fam.json"
    system.write_text(json.dumps({"n": 4, "ranges": [[0, 1], [2]]}))
    fam.write_text(json.dumps({"kind": "container", "params": {"epsilon": "0"}, "sets": [[]]}))
    assert run_cli(["verify", "--system", str(system), "--family", str(fam)]) == 1


def test_verify_takes_an_int_epsilon(tmp_path):
    system = tmp_path / "sys.json"
    fam = tmp_path / "fam.json"
    system.write_text(json.dumps({"n": 4, "ranges": [[0, 1], [2]]}))
    fam.write_text(json.dumps({"kind": "container", "params": {"epsilon": 1}, "sets": [[0, 1, 2, 3]]}))
    assert run_cli(["verify", "--system", str(system), "--family", str(fam)]) == 0


def test_usage_error_exit_code(tmp_path):
    assert run_cli(["enum-ranges", "--points", str(tmp_path / "missing.json"),
                    "--family", "halfspace", "--out", str(tmp_path / "o.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run_cli(["enum-ranges", "--points", str(bad), "--family", "halfspace",
                    "--out", str(tmp_path / "o.json")]) == 2


GOOD_INPUTS = {
    "points": {"dim": 1, "points": [["0"], ["1"], ["2"], ["3"]]},
    "system": {"n": 4, "ranges": [[0, 1], [2]]},
    "family": {"kind": "bracket", "params": {"epsilon": "1/2"}, "sets": [[], [0, 1, 2, 3]],
               "pairing": {"0": [0, 1]}},
    "instance": {"alice": [[0, 1]], "bob": [[3, -1]]},
    "spec": {"n": [], "eps": ["1/2"]},
}
CONTAINER = {"kind": "container", "params": {"epsilon": "1/2"}}

# case -> (subcommand, the input file made malformed, its content)
MALFORMED = {
    "pairing-index-out-of-range": ("verify", "family", {**GOOD_INPUTS["family"], "pairing": {"0": [0, 2]}}),
    "pairing-index-negative": ("verify", "family", {**GOOD_INPUTS["family"], "pairing": {"0": [-1, 1]}}),
    "pairing-key-negative": ("verify", "family", {**GOOD_INPUTS["family"], "pairing": {"-1": [0, 1]}}),
    "pairing-key-past-last": ("verify", "family", {**GOOD_INPUTS["family"], "pairing": {"99": [0, 1]}}),
    "family-missing-sets": ("verify", "family", CONTAINER),
    "mnet-missing-lambda": ("verify", "family", {"kind": "mnet", "params": {"epsilon": "1/2"}, "sets": []}),
    "family-string-index": ("verify", "family", {**CONTAINER, "sets": [["a"]]}),
    "family-negative-index": ("verify", "family", {**CONTAINER, "sets": [[-1]]}),
    "family-top-level-list": ("verify", "family", [[0, 1]]),
    "container-element-outside-ground-set": ("verify", "family", {**CONTAINER, "sets": [[0, 1, 99], [2, 99], [0, 1, 2, 3, 99]]}),
    "mnet-element-outside-ground-set": ("verify", "family", {"kind": "mnet", "params": {"epsilon": "1/2", "lambda": "1/2"}, "sets": [[0, 1], [2, 4]]}),
    "bracket-stray-set-outside-ground-set": ("verify", "family", {**GOOD_INPUTS["family"], "sets": [[], [0, 1, 2, 3], [9]]}),
    "system-missing-ranges": ("container", "system", {"n": 4}),
    "system-negative-index": ("container", "system", {"n": 4, "ranges": [[-2]]}),
    "system-top-level-list": ("container", "system", [[0, 1]]),
    "points-missing-dim": ("enum-ranges", "points", {"points": [["0"]]}),
    "points-non-numeric": ("enum-ranges", "points", {"dim": 1, "points": [["zero"], ["1"]]}),
    # A string is not read one coordinate (or one point) per character.
    "points-string-rows": ("enum-ranges", "points", {"dim": 2, "points": ["12", "34", "57"]}),
    "points-string-list": ("enum-ranges", "points", {"dim": 1, "points": "1234"}),
    "instance-missing-bob": ("protocol-learn", "instance", {"alice": [[0, 1]]}),
    "instance-float-index": ("protocol-learn", "instance", {"alice": [[1.9, 1]], "bob": [[3, -1]]}),
    "instance-fractional-label": ("protocol-learn", "instance", {"alice": [[0, 1]], "bob": [[3, -1.5]]}),
    "instance-float-label": ("protocol-learn", "instance", {"alice": [[0, 1.0]], "bob": [[3, -1]]}),
    "disjoint-instance-string-index": ("protocol-disjoint", "instance", {"alice": ["a"], "bob": [3]}),
    "disjoint-instance-float-index": ("protocol-disjoint", "instance", {"alice": [1.9, 0], "bob": [3]}),
    "disjoint-instance-negative-index": ("protocol-disjoint", "instance", {"alice": [-1], "bob": [3]}),
    "instance-short-example": ("protocol-learn", "instance", {"alice": [[1]], "bob": []}),
    "instance-bare-index": ("protocol-learn", "instance", {"alice": [5], "bob": []}),
    "spec-top-level-list": ("bench", "spec", [4]),
    "spec-non-numeric-n": ("bench", "spec", {"n": ["four"]}),
    "pairing-not-an-object": ("verify", "family", {**GOOD_INPUTS["family"], "pairing": []}),
    "pairing-position-bool": ("verify", "family", {**GOOD_INPUTS["family"], "pairing": {"0": [True, 1]}}),
    "pairing-key-spaced": ("verify", "family", {**GOOD_INPUTS["family"], "pairing": {" 0 ": [0, 1]}}),
    "pairing-key-plus": ("verify", "family", {**GOOD_INPUTS["family"], "pairing": {"+0": [0, 1]}}),
    "pairing-key-underscore": ("verify", "family", {**GOOD_INPUTS["family"], "pairing": {"0_0": [0, 1]}}),
    "points-float-dim": ("enum-ranges", "points", {**GOOD_INPUTS["points"], "dim": 1.7}),
    "points-zero-dim": ("enum-ranges", "points", {**GOOD_INPUTS["points"], "dim": 0}),
    "points-negative-dim": ("enum-ranges", "points", {**GOOD_INPUTS["points"], "dim": -1}),
    "points-bool-dim": ("enum-ranges", "points", {**GOOD_INPUTS["points"], "dim": True}),
    "system-float-n": ("verify", "system", {**GOOD_INPUTS["system"], "n": 4.9}),
    "system-string-n": ("verify", "system", {**GOOD_INPUTS["system"], "n": "4"}),
    "spec-float-n": ("bench", "spec", {"n": [4.5]}),
    # A string is not read one grid value per character.
    "spec-string-n": ("bench", "spec", {**GOOD_INPUTS["spec"], "n": "12"}),
    "spec-string-eps": ("bench", "spec", {**GOOD_INPUTS["spec"], "eps": "1/2"}),
    "spec-number-eta": ("bench", "spec", {**GOOD_INPUTS["spec"], "eta": 0.25}),
    "spec-zero-d": ("bench", "spec", {"n": [], "d": 0}),
    "spec-bool-d": ("bench", "spec", {"n": [], "d": True}),
    "spec-float-seed": ("bench", "spec", {"n": [], "seed": 0.5}),
    "spec-int-out": ("bench", "spec", {**GOOD_INPUTS["spec"], "out": 12345}),
    "spec-nul-in-out": ("bench", "spec", {**GOOD_INPUTS["spec"], "out": "a\0b"}),
    "family-bool-epsilon": ("verify", "family", {**CONTAINER, "params": {"epsilon": True}, "sets": [[0, 1, 2, 3]]}),
    "mnet-bool-lambda": ("verify", "family", {"kind": "mnet", "params": {"epsilon": "1/2", "lambda": False}, "sets": []}),
    "spec-bool-eps": ("bench", "spec", {"n": [], "eps": [True]}),
    "spec-bool-jitter": ("bench", "spec", {**GOOD_INPUTS["spec"], "jitter": True}),
    "spec-false-jitter": ("bench", "spec", {**GOOD_INPUTS["spec"], "jitter": False}),
    "spec-container-missing-eps": ("bench", "spec", {"instance_kind": "grid", "d": 1, "n": [4], "construction": "container"}),
    "spec-bracket-empty-eps": ("bench", "spec", {"instance_kind": "grid", "d": 1, "n": [4], "construction": "bracket", "eps": []}),
    "spec-mnet-missing-eta": ("bench", "spec", {"instance_kind": "grid", "d": 1, "n": [4], "construction": "mnet", "lambda": ["1/2"]}),
    # The unknown family would be refused when the ranges are enumerated, so
    # naming the construction shows it is refused before that.
    "spec-unknown-construction": ("bench", "spec", {"instance_kind": "grid", "d": 1, "n": [4], "family": "none", "construction": "foo"}),
    "spec-unknown-family": ("bench", "spec", {"instance_kind": "grid", "d": 1, "n": [4], "family": "none", "eps": ["1/2"]}),
    # With no n, no point is made and no range enumerated, so only the
    # spec's own check refuses the unknown kind and family.
    "spec-unknown-instance-kind": ("bench", "spec", {"instance_kind": "nonsense", "family": "none", "n": [], "eps": ["1/2"]}),
    # The first bad index in list order is named, whatever its kind.
    "system-oversized-index-before-string": ("container", "system", {"n": 4, "ranges": [[0, 10**11, "a"]]}),
}
# case -> the text the usage error must contain: the value it refuses
NAMED = {
    "pairing-key-negative": "'-1'",
    "container-element-outside-ground-set": "[0, 1, 99]",
    "mnet-element-outside-ground-set": "[2, 4]",
    "bracket-stray-set-outside-ground-set": "[9]",
    "pairing-key-past-last": "'99'",
    "instance-float-index": "1.9",
    "instance-fractional-label": "-1.5",
    "instance-float-label": "1.0",
    "disjoint-instance-float-index": "1.9",
    "disjoint-instance-negative-index": "usage error: index -1 outside domain",
    "instance-short-example": "example [1] is not an [index, label] pair",
    "instance-bare-index": "example 5 is not an [index, label] pair",
    "pairing-position-bool": "True",
    "pairing-key-spaced": "' 0 '",
    "pairing-key-plus": "'+0'",
    "pairing-key-underscore": "'0_0'",
    "points-float-dim": "dim 1.7",
    "points-zero-dim": "dim 0",
    "points-negative-dim": "dim -1",
    "points-bool-dim": "dim True",
    "points-string-rows": "points must be a list of coordinate lists",
    "points-string-list": "points must be a list of coordinate lists",
    "system-float-n": "n 4.9",
    "system-string-n": "n '4'",
    "spec-float-n": "n 4.5",
    "spec-string-n": "n must be a list, got '12'",
    "spec-string-eps": "eps must be a list, got '1/2'",
    "spec-number-eta": "eta must be a list, got 0.25",
    "spec-zero-d": "d 0",
    "spec-bool-d": "d True",
    "spec-float-seed": "seed 0.5",
    "spec-int-out": "out 12345",
    "spec-nul-in-out": "out 'a\\x00b'",
    "family-bool-epsilon": "True",
    "mnet-bool-lambda": "False",
    "spec-bool-eps": "True",
    "spec-bool-jitter": "True",
    "spec-false-jitter": "False",
    "spec-container-missing-eps": "eps list",
    "spec-bracket-empty-eps": "eps list",
    "spec-mnet-missing-eta": "eta list",
    "spec-unknown-construction": "'foo'",
    "spec-unknown-family": "'none'",
    "spec-unknown-instance-kind": "unknown instance kind 'nonsense'",
    "system-oversized-index-before-string": "element index 100000000000 exceeds the limit",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_is_a_usage_error(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # a bench spec that is not refused writes its CSV here
    command, bad, content = MALFORMED[case]
    path = {}
    for role, data in {**GOOD_INPUTS, bad: content}.items():
        path[role] = str(tmp_path / f"{role}.json")
        (tmp_path / f"{role}.json").write_text(json.dumps(data))
    out = str(tmp_path / "out.json")
    args = {
        "verify": ["--system", path["system"], "--family", path["family"]],
        "container": ["--system", path["system"], "--eps", "1/2", "--out", out],
        "enum-ranges": ["--points", path["points"], "--family", "halfspace", "--out", out],
        "protocol-learn": ["--points", path["points"], "--instance", path["instance"]],
        "protocol-disjoint": ["--points", path["points"], "--instance", path["instance"]],
        "bench": ["--spec", path["spec"]],
    }[command]
    assert run_cli([command, *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert NAMED.get(case, "") in err


# case -> (arguments, with {bad} for the offending file, {dir} for an empty
# directory, {out} for an output file and a role of GOOD_INPUTS for its
# file; the bytes of {bad}; the text the usage error must contain)
UNUSABLE_FILES = {
    "non-utf8-system": (["verify", "--system", "{bad}", "--family", "{family}"], b"\xff\xfe\x00", "bad.json"),
    "json-nested-too-deep": (["enum-ranges", "--points", "{bad}", "--family", "halfspace", "--out", "{out}"],
                             b"[" * 100_000 + b"]" * 100_000, "point set JSON"),
    "gen-out-is-a-directory": (["gen", "--kind", "grid", "--d", "1", "--n", "4", "--out", "{dir}"], None, "dir"),
    "input-is-a-directory": (["enum-ranges", "--points", "{dir}", "--family", "halfspace", "--out", "{out}"],
                             None, "dir"),
    "summary-is-a-directory": (["protocol-learn", "--points", "{points}", "--instance", "{instance}",
                                "--summary", "{dir}"], None, "dir"),
    "bench-csv-is-a-directory": (["bench", "--spec", "{bad}"],
                                 json.dumps({"instance_kind": "grid", "d": 1, "n": [4], "eps": ["1/2"],
                                             "out": "dir"}).encode(), "dir"),
    # More digits than int() takes from a string; json.dumps cannot write it.
    "json-integer-too-long": (["container", "--system", "{bad}", "--eps", "1/2", "--out", "{out}"],
                              b'{"n": ' + b"9" * 5000 + b', "ranges": []}', "set system JSON"),
}


@pytest.mark.parametrize("case", sorted(UNUSABLE_FILES))
def test_unusable_file_is_a_usage_error(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # the bench spec names its CSV relative to here
    args, content, named = UNUSABLE_FILES[case]
    (tmp_path / "dir").mkdir()
    paths = {"bad": tmp_path / "bad.json", "dir": tmp_path / "dir", "out": tmp_path / "out.json"}
    if content is not None:
        paths["bad"].write_bytes(content)
    for role, data in GOOD_INPUTS.items():
        paths[role] = tmp_path / f"{role}.json"
        paths[role].write_text(json.dumps(data))
    assert run_cli([a.format(**{k: str(v) for k, v in paths.items()}) for a in args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert named in err
    assert not paths["out"].exists() and not any(paths["dir"].iterdir())


def test_serving_matrix_over_budget_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # The grid's 7 heavy ranges at eps = 1/4 and their candidates make more
    # than 10 cells; the refusal comes before the matrix is built.
    monkeypatch.setattr(bk.constructions, "MAX_SERVING_CELLS", 10)
    system = _grid4_system(tmp_path)
    capsys.readouterr()
    out = tmp_path / "mnet.json"
    assert run_cli(["mnet", "--system", str(system), "--algorithm", "base", "--eps", "1/4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: serving matrix cells") and "exceeds the limit 10" in err
    assert not out.exists()


def test_a_system_json_over_the_index_budget_is_a_usage_error(tmp_path, capsys):
    # The balls of 512 random points on a line are their 131,329 intervals,
    # 22,500,864 element indices in all: refused before any is listed.
    pts = tmp_path / "pts.json"
    out = tmp_path / "sys.json"
    assert run_cli(["gen", "--kind", "random", "--d", "1", "--n", "512", "--seed", "5", "--out", str(pts)]) == 0
    capsys.readouterr()
    assert run_cli(["enum-ranges", "--points", str(pts), "--family", "ball", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: element indices in set system JSON 22500864 exceeds the limit 16777216\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["container", "bracket"])
def test_a_size_ladder_over_budget_is_a_usage_error(tmp_path, capsys, command):
    # At eps = 1/10^6 the heavy Mnet's exact size ladder would need about
    # 5.5 * 10^7 rungs; it is refused before the first one is built.
    system = _grid4_system(tmp_path)
    capsys.readouterr()
    out = tmp_path / "family.json"
    start = time.perf_counter()
    assert run_cli([command, "--system", str(system), "--eps", "1/1000000", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: size ladder from") and "exceeds the limit 4096 rungs" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command", ["container", "bracket"])
def test_an_eps_past_float_range_reaches_the_size_ladder_refusal(tmp_path, capsys, command):
    # 1/eps = 10^400 is past float range; the small-set container's depth cap
    # takes log(1/rho) from the exact terms, so the size ladder refuses it.
    system = _grid4_system(tmp_path)
    capsys.readouterr()
    out = tmp_path / "family.json"
    start = time.perf_counter()
    assert run_cli([command, "--system", str(system), "--eps", "1/1" + "0" * 400, "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: size ladder from") and "Traceback" not in err
    assert not out.exists()


# subcommand -> ({its JSON input options: a valid input}, its other arguments)
FUZZ_COMMANDS = {
    "enum-ranges": ({"--points": GOOD_INPUTS["points"]}, ["--family", "halfspace", "--out", "out.json"]),
    "packing": ({"--system": GOOD_INPUTS["system"]}, ["--delta", "1", "--out", "out.json"]),
    "mnet": ({"--system": GOOD_INPUTS["system"]}, ["--out", "out.json"]),
    "container": ({"--system": GOOD_INPUTS["system"]}, ["--eps", "1/2", "--out", "out.json"]),
    "bracket": ({"--system": GOOD_INPUTS["system"]}, ["--eps", "1/2", "--out", "out.json"]),
    "verify": ({"--system": GOOD_INPUTS["system"], "--family": GOOD_INPUTS["family"]}, []),
    "protocol-learn": ({"--points": GOOD_INPUTS["points"], "--instance": GOOD_INPUTS["instance"]},
                       ["--summary", "s.csv"]),
    "protocol-disjoint": ({"--points": GOOD_INPUTS["points"], "--instance": {"alice": [0], "bob": [3]}},
                          ["--transcript", "t.jsonl"]),
    "bench": ({"--spec": GOOD_INPUTS["spec"]}, []),
}
# The fields each JSON input option's reader takes.
FUZZ_FIELDS = {
    "--points": ["dim", "points"],
    "--system": ["n", "ranges"],
    "--family": ["kind", "params", "sets", "pairing"],
    "--instance": ["alice", "bob"],
    "--spec": ["instance_kind", "family", "d", "n", "seed", "construction", "eps", "lambda", "eta", "jitter", "out"],
}
# Field names of every input kind, so that random objects reach past the
# first missing-field check.  Leaves are small, so an input that parses is
# cheap to run.  Random strings hold no "/" and the fixed ones no "..", so a
# bench CSV stays in its directory.
FUZZ_KEYS = sorted({key for fields in FUZZ_FIELDS.values() for key in fields} | {"epsilon"})
FUZZ_LEAVES = (st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
               | st.sampled_from(["1/2", "1/4", "0", "container", "bracket", "mnet", "grid", "halfspace"])
               | st.text(alphabet="ab0 \x00\u00e9", max_size=3))
# String leaves that a check refuses: a NUL byte (in a file name), a zero
# denominator, a negative or a non-numeric fraction, a decimal exponent too
# large to build, an unknown name.
FUZZ_REFUSED = st.sampled_from(["\x00", "out\x00.csv", "1/0", "-1/2", "x", "1e99999999", ""])
FUZZ_TREES = st.recursive(
    FUZZ_LEAVES, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(FUZZ_KEYS), kids, max_size=6),
    max_leaves=16,
)
DIRECTORY = object()
FUZZ_FILES = st.binary(max_size=32) | FUZZ_TREES.map(lambda tree: json.dumps(tree).encode()) | st.just(DIRECTORY)
REMOVED = object()


def one_field_changed(good, fields):
    """``good`` with one field set to a refused string or a random tree, or
    removed: the other fields stay valid, so the input gets past the first
    missing-field check to the later parse and write paths.  Three draws in
    four change a field that ``good`` has or that its command reads
    (``fields``), the rest any input kind's; half the values are refused
    strings."""
    own = sorted(set(good) | set(fields))
    key = st.sampled_from([own, own, own, FUZZ_KEYS]).flatmap(st.sampled_from)
    value = st.sampled_from([FUZZ_REFUSED, FUZZ_REFUSED, FUZZ_TREES, st.just(REMOVED)]).flatmap(lambda kind: kind)
    change = st.tuples(key, value)
    return change.map(
        lambda kv: json.dumps({k: v for k, v in {**good, kv[0]: kv[1]}.items() if v is not REMOVED}).encode()
    )


@pytest.mark.parametrize("command", sorted(FUZZ_COMMANDS))
@given(data=st.data())
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cli_inputs_never_raise(tmp_path_factory, command, data):
    # Random bytes, random JSON trees and directories in place of each JSON
    # input, or valid inputs of which one has one field changed: main()
    # returns an exit status and raises nothing.
    options, rest = FUZZ_COMMANDS[command]
    work = tmp_path_factory.mktemp("fuzz")
    argv = [command, *rest]
    changed = data.draw(st.sampled_from([None, *options]), label="valid inputs but one changed")
    for option, good in options.items():
        if changed is None:
            content = data.draw(FUZZ_FILES, label=option)
        elif option == changed:
            fields = [field for name in options for field in FUZZ_FIELDS[name]]
            content = data.draw(one_field_changed(good, fields), label=option)
        else:
            content = json.dumps(good).encode()
        path = work / option.strip("-")
        if content is DIRECTORY:
            path.mkdir()
        else:
            path.write_bytes(content)
        argv += [option, str(path)]
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = run_cli(argv)
    finally:
        os.chdir(cwd)
    assert status in (0, 1, 2)


@pytest.mark.parametrize("d", ["0", "-1"])
def test_gen_random_refuses_nonpositive_dimension(tmp_path, capsys, d):
    args = ["gen", "--kind", "random", "--d", d, "--n", "1", "--seed", "0", "--out", str(tmp_path / "p.json")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


def test_gen_refuses_a_colliding_sphere_instance(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert run_cli(["gen", "--kind", "sphere", "--d", "2", "--n", "13000", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: sphere instance with n=13000 collides ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("delta", ["abc", "1.5"])
def test_bad_packing_delta_is_a_usage_error(tmp_path, capsys, delta):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(GOOD_INPUTS["system"]))
    args = ["packing", "--system", str(system), "--delta", delta, "--out", str(tmp_path / "p.json")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


def test_negative_packing_d0_is_refused_before_output(tmp_path, capsys):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(GOOD_INPUTS["system"]))
    out = tmp_path / "p.json"
    assert run_cli(["packing", "--system", str(system), "--delta", "1", "--d0", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error:") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_negative_packing_cap_is_refused_before_output(tmp_path, capsys):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(GOOD_INPUTS["system"]))
    out = tmp_path / "p.json"
    assert run_cli(["packing", "--system", str(system), "--delta", "1", "--cap", "-1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: shallow cap -1 is negative") and "Traceback" not in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_packing_and_mnet_cli(tmp_path):
    pts = tmp_path / "pts.json"
    system = tmp_path / "sys.json"
    run_cli(["gen", "--kind", "grid", "--d", "1", "--n", "4", "--seed", "0", "--out", str(pts)])
    run_cli(["enum-ranges", "--points", str(pts), "--family", "halfspace", "--out", str(system)])
    pack = tmp_path / "pack.json"
    assert run_cli(["packing", "--system", str(system), "--delta", "1", "--d0", "2", "--out", str(pack)]) == 0
    data = json.loads(pack.read_text())
    assert data["delta"] == 1 and len(data["members"]) == 4
    fam = tmp_path / "mnet.json"
    assert run_cli(["mnet", "--system", str(system), "--algorithm", "heavy",
                    "--lambda", "3/4", "--eta", "1/4", "--out", str(fam)]) == 0
    assert run_cli(["verify", "--system", str(system), "--family", str(fam)]) == 0
    br = tmp_path / "bracket.json"
    assert run_cli(["bracket", "--system", str(system), "--eps", "1/2", "--out", str(br)]) == 0
    assert run_cli(["verify", "--system", str(system), "--family", str(br)]) == 0


def test_base_mnet_cli_at_tiny_heaviness(tmp_path):
    pts = tmp_path / "pts.json"
    system = tmp_path / "sys.json"
    fam = tmp_path / "mnet.json"
    run_cli(["gen", "--kind", "grid", "--d", "1", "--n", "4", "--seed", "0", "--out", str(pts)])
    run_cli(["enum-ranges", "--points", str(pts), "--family", "halfspace", "--out", str(system)])
    assert run_cli(["mnet", "--system", str(system), "--algorithm", "base",
                    "--lambda", "1/1073741824", "--out", str(fam)]) == 0
    assert json.loads(fam.read_text())["params"]["lambda"] == "1/1073741824"
    assert run_cli(["verify", "--system", str(system), "--family", str(fam)]) == 0


def test_enum_ranges_and_container_of_the_degree_two_lift(tmp_path):
    # The degree-2 lift of 8 planar points has d = 5.
    pts = tmp_path / "lifted.json"
    pts.write_text(bk.veronese_lift(bk.random_point_set(2, 8, 3), 2).to_json())
    system = tmp_path / "sys.json"
    assert run_cli(["enum-ranges", "--points", str(pts), "--family", "halfspace", "--out", str(system)]) == 0
    assert len(json.loads(system.read_text())["ranges"]) == 240
    container = tmp_path / "container.json"
    assert run_cli(["container", "--system", str(system), "--eps", "1/4", "--out", str(container)]) == 0
    assert run_cli(["verify", "--system", str(system), "--family", str(container)]) == 0


# case -> (subcommand and its arguments, with {in} for the input file; the
# input JSON, its raw bytes, or None).  Each input asks for far more than the
# size limits in bracketkit.errors allow, and must be refused before it is
# built.
OVERSIZED = {
    "system-ground-set": (["container", "--system", "{in}", "--eps", "1/2"], {"n": 10**11, "ranges": []}),
    "system-element-index": (["container", "--system", "{in}", "--eps", "1/2"], {"n": 4, "ranges": [[10**11]]}),
    "points-dim": (["enum-ranges", "--points", "{in}", "--family", "halfspace"], {"dim": 10**11, "points": []}),
    "points-spanning-tuples": (["enum-ranges", "--points", "{in}", "--family", "halfspace"],
                               json.loads(bk.random_point_set(4, 200, 1).to_json())),
    "gen-grid-n": (["gen", "--kind", "grid", "--d", "2", "--n", str(10**11)], None),
    "spec-d": (["bench", "--spec", "{in}"], {"n": [4], "d": 10**30, "eps": ["1/2"]}),
    "points-box-candidates": (["enum-ranges", "--points", "{in}", "--family", "box"],
                              json.loads(bk.random_point_set(2, 300, 1).to_json())),
    "points-all-subsets": (["enum-ranges", "--points", "{in}", "--family", "halfspace"],
                           json.loads(bk.random_point_set(40, 40, 1).to_json())),
    "points-decimal-exponent": (["enum-ranges", "--points", "{in}", "--family", "halfspace"],
                                {"dim": 1, "points": [["1e99999999"]]}),
    "points-integer-digits": (["enum-ranges", "--points", "{in}", "--family", "halfspace"],
                              b'{"dim": 1, "points": [[' + b"7" * 5000 + b"]]}"),
}


def _capped_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))


@pytest.mark.parametrize("case", sorted(OVERSIZED))
def test_oversized_input_is_refused_before_it_is_built(tmp_path, case):
    # The CLI runs in a child process with a 2 GB address space, so an input
    # that slipped past its check would end in MemoryError (exit 1), not
    # fill the host's memory.
    args, content = OVERSIZED[case]
    if content is not None:
        (tmp_path / "in.json").write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    out = tmp_path / "out.json"
    (tmp_path / "work").mkdir()  # the bench spec would write results.csv here
    argv = [a.replace("{in}", str(tmp_path / "in.json")) for a in args]
    if args[0] != "bench":
        argv += ["--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(bk.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "bracketkit.cli", *argv], cwd=tmp_path / "work", env=env,
        capture_output=True, text=True, timeout=120, preexec_fn=_capped_address_space,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage error:") and "Traceback" not in proc.stderr
    assert "exceeds the limit" in proc.stderr
    assert not out.exists() and not any((tmp_path / "work").iterdir())


def _grid4(tmp_path):
    """The 1-D grid of 4 points, written as a point-set JSON file."""
    pts = tmp_path / "pts.json"
    assert run_cli(["gen", "--kind", "grid", "--d", "1", "--n", "4", "--seed", "0", "--out", str(pts)]) == 0
    return pts


def _grid4_system(tmp_path):
    system = tmp_path / "sys.json"
    assert run_cli(["enum-ranges", "--points", str(_grid4(tmp_path)), "--family", "halfspace", "--out", str(system)]) == 0
    return system


def test_gen_jitter_matches_the_library(tmp_path):
    out = tmp_path / "pts.json"
    args = ["gen", "--kind", "grid", "--d", "2", "--n", "9", "--seed", "4", "--jitter", "1/1024", "--out", str(out)]
    assert run_cli(args) == 0
    want = bk.jitter_points(bk.lower_bound_instance(2, 9, "grid"), Fraction(1, 1024), 4)
    assert out.read_text() == want.to_json()
    assert want != bk.lower_bound_instance(2, 9, "grid")


@pytest.mark.parametrize("family", ["ball", "box", "polytope"])
def test_enum_ranges_family_with_container_lower_bound(tmp_path, capsys, family):
    pts = _grid4(tmp_path)
    system = tmp_path / "sys.json"
    fam = tmp_path / "fam.json"
    assert run_cli(["enum-ranges", "--points", str(pts), "--family", family, "--out", str(system)]) == 0
    enumerate_ranges = {"ball": bk.enumerate_ball_ranges, "box": bk.enumerate_box_ranges,
                        "polytope": lambda p: bk.enumerate_polytope_ranges(p, 2)}[family]
    want = enumerate_ranges(bk.lower_bound_instance(1, 4, "grid"))
    assert system.read_text() == want.to_json()
    capsys.readouterr()
    assert run_cli(["container", "--system", str(system), "--eps", "1/2", "--lower-bound", "--out", str(fam)]) == 0
    bound = bk.container_lower_bound(want, Fraction(1, 2))
    assert f"packing lower bound: {bound}\n" in capsys.readouterr().out
    assert run_cli(["verify", "--system", str(system), "--family", str(fam)]) == 0


def test_enum_ranges_of_one_dimensional_balls_with_a_repeated_coordinate(tmp_path):
    # Points 0 and 1 coincide: the runs {0, 1}, {2}, {3} give 3 * 4 / 2 + 1 intervals.
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps({"dim": 1, "points": [["0"], ["0"], ["1"], ["5/2"]]}))
    system = tmp_path / "sys.json"
    assert run_cli(["enum-ranges", "--points", str(pts), "--family", "ball", "--out", str(system)]) == 0
    data = json.loads(system.read_text())
    assert data["n"] == 4
    assert sorted(data["ranges"]) == [[], [0, 1], [0, 1, 2], [0, 1, 2, 3], [2], [2, 3], [3]]


def test_packing_delta_as_fraction_of_n_with_cap(tmp_path, capsys):
    pack = tmp_path / "pack.json"
    args = ["packing", "--system", str(_grid4_system(tmp_path)), "--delta", "1/4", "--cap", "2", "--d0", "1",
            "--out", str(pack)]
    assert run_cli(args) == 0
    data = json.loads(pack.read_text())
    assert data["delta"] == 1 and data["cap"] == 2
    assert all(len(m) <= 2 for m in data["members"])
    assert "shallow expression" in capsys.readouterr().out


@pytest.mark.parametrize("cap", [None, 5])
def test_packing_json_is_json_dumps_of_the_payload(tmp_path, cap):
    system = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(2, 16, "sphere"))
    path = tmp_path / "sys.json"
    path.write_text(system.to_json())
    pack = tmp_path / "pack.json"
    args = ["packing", "--system", str(path), "--delta", "3", "--out", str(pack)]
    assert run_cli(args + ([] if cap is None else ["--cap", str(cap)])) == 0
    packing = bk.greedy_delta_packing(system, 3, shallow_cap=cap)
    members = [list(bk.bitsets.indices_from_mask(m)) for m in packing.members]
    assert len(members) > 1
    assert pack.read_text() == json.dumps({"delta": 3, "cap": cap, "members": members})


def test_packing_json_over_the_index_budget_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # The grid's packing at delta = 1 has 4 members of 8 element indices.
    system = _grid4_system(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr(bk.setsystem, "MAX_JSON_INDICES", 7)
    out = tmp_path / "pack.json"
    assert run_cli(["packing", "--system", str(system), "--delta", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "usage error: element indices in packing JSON 8 exceeds the limit 7\n"
    assert not out.exists()
    monkeypatch.setattr(bk.setsystem, "MAX_JSON_INDICES", 8)
    assert run_cli(["packing", "--system", str(system), "--delta", "1", "--out", str(out)]) == 0
    assert sum(map(len, json.loads(out.read_text())["members"])) == 8


def test_boosted_mnet_cli(tmp_path, capsys):
    system = _grid4_system(tmp_path)
    fam = tmp_path / "mnet.json"
    assert run_cli(["mnet", "--system", str(system), "--algorithm", "boost", "--eps", "1/4", "--eta", "1/4",
                    "--out", str(fam)]) == 0
    assert json.loads(fam.read_text())["params"]["lambda"] == "3/8"  # heaviness 1/2 times 1 - eta
    assert run_cli(["verify", "--system", str(system), "--family", str(fam)]) == 0
    # Every option is parsed, also one that the chosen algorithm does not read.
    for algorithm, option in [("boost", "--lambda"), ("base", "--eta"), ("heavy", "--eps")]:
        capsys.readouterr()
        assert run_cli(["mnet", "--system", str(system), "--algorithm", algorithm, option, "abc",
                        "--out", str(tmp_path / "bad.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage error: {option[2:]}: cannot parse rational from 'abc'")
        assert not (tmp_path / "bad.json").exists()


def test_protocol_learn_non_realizable_prints_certificate(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    # A 1-D halfspace cuts a prefix or a suffix, so 0 and 2 cannot both be
    # positive with 1 negative.
    inst.write_text(json.dumps({"alice": [[0, 1], [2, 1]], "bob": [[1, -1]]}))
    transcript = tmp_path / "t.jsonl"
    assert run_cli(["protocol-learn", "--points", str(_grid4(tmp_path)), "--instance", str(inst),
                    "--transcript", str(transcript)]) == 1
    out = capsys.readouterr().out
    assert "abort: non-realizable instance; certificate [(1, -1), (0, 1), (2, 1)]" in out
    assert not transcript.exists()


def test_protocol_disjoint_writes_transcript_and_summary(tmp_path):
    dinst = tmp_path / "dinst.json"
    dinst.write_text(json.dumps({"alice": [0], "bob": [3]}))
    transcript = tmp_path / "t.jsonl"
    summary = tmp_path / "s.csv"
    assert run_cli(["protocol-disjoint", "--points", str(_grid4(tmp_path)), "--instance", str(dinst),
                    "--transcript", str(transcript), "--summary", str(summary)]) == 0
    messages = [json.loads(line) for line in transcript.read_text().splitlines()]
    rows = list(csv.DictReader(summary.open()))
    assert len(rows) == 1 and rows[0]["correct"] == "True"
    assert rows[0]["total_bits"] == str(sum(m["bits"] for m in messages))


def test_protocol_cli(tmp_path):
    pts = tmp_path / "pts.json"
    run_cli(["gen", "--kind", "grid", "--d", "1", "--n", "4", "--seed", "0", "--out", str(pts)])
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"alice": [[0, 1]], "bob": [[3, -1]]}))
    transcript = tmp_path / "t.jsonl"
    summary = tmp_path / "s.csv"
    assert run_cli(["protocol-learn", "--points", str(pts), "--instance", str(inst),
                    "--transcript", str(transcript), "--summary", str(summary)]) == 0
    assert transcript.exists()
    rows = list(csv.DictReader(summary.open()))
    assert rows[0]["correct"] == "True"

    dinst = tmp_path / "dinst.json"
    dinst.write_text(json.dumps({"alice": [0], "bob": [3]}))
    assert run_cli(["protocol-disjoint", "--points", str(pts), "--instance", str(dinst)]) == 0


def test_bench_grid(tmp_path):
    spec = tmp_path / "spec.json"
    out = tmp_path / "results.csv"
    spec.write_text(json.dumps({
        "instance_kind": "grid", "family": "halfspace", "d": 1, "n": [4],
        "seed": 0, "construction": "container", "eps": ["1/2"], "out": str(out),
    }))
    assert run_cli(["bench", "--spec", str(spec)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 1
    assert rows[0]["verified"] == "True"
    assert rows[0]["n"] == "4"
    assert rows[0]["lower_bound"] != ""
    header = out.read_text().splitlines()[0]
    assert header == "instance_id,kind,d,n,eps,lambda,eta,family_size,verified,lower_bound,runtime_ms"


@pytest.mark.parametrize("construction", ["bracket", "mnet"])
def test_bench_grid_other_constructions(tmp_path, construction):
    spec = tmp_path / "spec.json"
    out = tmp_path / "results.csv"
    params = {"bracket": {"eps": ["1/2"]}, "mnet": {"lambda": ["1/2"], "eta": ["1/4"]}}[construction]
    spec.write_text(json.dumps({
        "instance_kind": "grid", "family": "halfspace", "d": 1, "n": [4],
        "seed": 0, "construction": construction, **params, "out": str(out),
    }))
    assert run_cli(["bench", "--spec", str(spec)]) == 0
    rows = list(csv.DictReader(out.open()))
    system = bk.enumerate_halfspace_ranges(bk.lower_bound_instance(1, 4, "grid"))
    if construction == "bracket":
        size = len(bk.build_bracket(system, Fraction(1, 2), bk.default_provider(), bk.default_provider()).sets)
    else:
        size = len(bk.heavy_mnet(system, Fraction(1, 2), Fraction(1, 4), bk.default_provider()).pieces)
    assert len(rows) == 1
    assert rows[0]["verified"] == "True" and rows[0]["lower_bound"] == ""
    assert rows[0]["family_size"] == str(size)
    assert (rows[0]["eps"], rows[0]["lambda"], rows[0]["eta"]) == (
        ("1/2", "", "") if construction == "bracket" else ("", "1/2", "1/4")
    )


def test_bench_enumerates_each_n_once(tmp_path, monkeypatch):
    import bracketkit.cli as cli

    seen = []
    enumerate_ranges = cli.ENUMERATORS["halfspace"]

    def counting(points, k):
        seen.append(points.n)
        return enumerate_ranges(points, k)

    monkeypatch.setitem(cli.ENUMERATORS, "halfspace", counting)
    spec = tmp_path / "spec.json"
    out = tmp_path / "results.csv"
    spec.write_text(json.dumps({
        "instance_kind": "grid", "family": "halfspace", "d": 1, "n": [4, 6],
        "seed": 0, "construction": "container", "eps": ["1/2", "1/4"], "out": str(out),
    }))
    assert run_cli(["bench", "--spec", str(spec)]) == 0
    assert seen == [4, 6]
    rows = list(csv.DictReader(out.open()))
    assert [(r["n"], r["eps"]) for r in rows] == [("4", "1/2"), ("4", "1/4"), ("6", "1/2"), ("6", "1/4")]


def test_bench_empty_grid(tmp_path):
    spec = tmp_path / "spec.json"
    out = tmp_path / "empty.csv"
    spec.write_text(json.dumps({
        "instance_kind": "grid", "family": "halfspace", "d": 1, "n": [],
        "seed": 0, "construction": "container", "eps": ["1/2"], "out": str(out),
    }))
    assert run_cli(["bench", "--spec", str(spec)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1  # header only


def test_bench_family_size_monotone_in_inverse_eps(tmp_path):
    spec = tmp_path / "spec.json"
    out = tmp_path / "grid.csv"
    spec.write_text(json.dumps({
        "instance_kind": "sphere", "family": "halfspace", "d": 2, "n": [60],
        "seed": 0, "construction": "container", "eps": ["1/4", "1/8", "1/16"],
        "out": str(out),
    }))
    assert run_cli(["bench", "--spec", str(spec)]) == 0
    rows = list(csv.DictReader(out.open()))
    sizes = [int(r["family_size"]) for r in rows]
    assert sizes == sorted(sizes)  # non-decreasing as eps shrinks
    assert all(r["verified"] == "True" for r in rows)


def test_bench_reproducible_modulo_runtime(tmp_path):
    spec1 = tmp_path / "s1.json"
    spec2 = tmp_path / "s2.json"
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    base = {
        "instance_kind": "random", "family": "halfspace", "d": 2, "n": [8],
        "seed": 3, "construction": "container", "eps": ["1/2", "1/4"],
    }
    spec1.write_text(json.dumps({**base, "out": str(out1)}))
    spec2.write_text(json.dumps({**base, "out": str(out2)}))
    assert run_cli(["bench", "--spec", str(spec1)]) == 0
    assert run_cli(["bench", "--spec", str(spec2)]) == 0

    def strip_runtime(path):
        rows = list(csv.DictReader(open(path)))
        for r in rows:
            r.pop("runtime_ms")
        return rows

    assert strip_runtime(out1) == strip_runtime(out2)


@pytest.mark.parametrize("construction, params, cells", [
    ("container", {"eps": ["1/2", "1/4"], "lambda": ["1/3", "2/3"], "eta": ["1/4"]},
     [("1/2", "", ""), ("1/4", "", "")]),
    ("mnet", {"eps": ["1/2"], "lambda": ["1/2"], "eta": ["1/4", "1/2"]},
     [("", "1/2", "1/4"), ("", "1/2", "1/2")]),
])
def test_bench_grid_crosses_only_the_construction_lists(tmp_path, construction, params, cells):
    spec = tmp_path / "spec.json"
    out = tmp_path / "results.csv"
    spec.write_text(json.dumps({
        "instance_kind": "grid", "family": "halfspace", "d": 1, "n": [4],
        "seed": 0, "construction": construction, **params, "out": str(out),
    }))
    assert run_cli(["bench", "--spec", str(spec)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["eps"], r["lambda"], r["eta"]) for r in rows] == cells
    assert all(r["verified"] == "True" for r in rows)


def test_bench_verification_failure_still_writes_the_csv(tmp_path, capsys, monkeypatch):
    import bracketkit.cli as cli

    failing = bk.VerifyReport(False, 3, (0b0011, "no cover within slack 0"))
    monkeypatch.setattr(cli, "verify_family", lambda family: failing)
    spec = tmp_path / "spec.json"
    out = tmp_path / "results.csv"
    spec.write_text(json.dumps({
        "instance_kind": "grid", "family": "halfspace", "d": 1, "n": [4],
        "seed": 0, "construction": "container", "eps": ["1/2"], "out": str(out),
    }))
    assert run_cli(["bench", "--spec", str(spec)]) == 1
    assert "verification FAILED: range [0, 1]: no cover within slack 0" in capsys.readouterr().out
    rows = list(csv.DictReader(out.open()))
    assert [r["verified"] for r in rows] == ["False"]


def test_internal_error_exits_1_without_a_traceback(tmp_path, capsys, monkeypatch):
    import bracketkit.cli as cli

    pts = tmp_path / "pts.json"
    system = tmp_path / "sys.json"
    run_cli(["gen", "--kind", "grid", "--d", "1", "--n", "4", "--seed", "0", "--out", str(pts)])
    run_cli(["enum-ranges", "--points", str(pts), "--family", "halfspace", "--out", str(system)])
    capsys.readouterr()

    def broken(*args, **kwargs):
        raise bk.InternalInvariantError("depth cap exceeded")

    monkeypatch.setattr(cli, "build_container", broken)
    fam = tmp_path / "fam.json"
    assert run_cli(["container", "--system", str(system), "--eps", "1/2", "--out", str(fam)]) == 1
    err = capsys.readouterr().err
    assert err == "error: depth cap exceeded\n"
    assert not fam.exists()
