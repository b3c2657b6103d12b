import csv
import json

import pytest

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
    "spec": {"n": []},
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
    "system-missing-ranges": ("container", "system", {"n": 4}),
    "system-negative-index": ("container", "system", {"n": 4, "ranges": [[-2]]}),
    "system-top-level-list": ("container", "system", [[0, 1]]),
    "points-missing-dim": ("enum-ranges", "points", {"points": [["0"]]}),
    "points-non-numeric": ("enum-ranges", "points", {"dim": 1, "points": [["zero"], ["1"]]}),
    "instance-missing-bob": ("protocol-learn", "instance", {"alice": [[0, 1]]}),
    "instance-float-index": ("protocol-learn", "instance", {"alice": [[1.9, 1]], "bob": [[3, -1]]}),
    "instance-fractional-label": ("protocol-learn", "instance", {"alice": [[0, 1]], "bob": [[3, -1.5]]}),
    "instance-float-label": ("protocol-learn", "instance", {"alice": [[0, 1.0]], "bob": [[3, -1]]}),
    "disjoint-instance-string-index": ("protocol-disjoint", "instance", {"alice": ["a"], "bob": [3]}),
    "disjoint-instance-float-index": ("protocol-disjoint", "instance", {"alice": [1.9, 0], "bob": [3]}),
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
    "spec-zero-d": ("bench", "spec", {"n": [], "d": 0}),
    "spec-bool-d": ("bench", "spec", {"n": [], "d": True}),
    "spec-float-seed": ("bench", "spec", {"n": [], "seed": 0.5}),
}
# case -> the text the usage error must contain: the value it refuses
NAMED = {
    "pairing-key-negative": "'-1'",
    "pairing-key-past-last": "'99'",
    "instance-float-index": "1.9",
    "instance-fractional-label": "-1.5",
    "instance-float-label": "1.0",
    "disjoint-instance-float-index": "1.9",
    "pairing-position-bool": "True",
    "pairing-key-spaced": "' 0 '",
    "pairing-key-plus": "'+0'",
    "pairing-key-underscore": "'0_0'",
    "points-float-dim": "dim 1.7",
    "points-zero-dim": "dim 0",
    "points-negative-dim": "dim -1",
    "points-bool-dim": "dim True",
    "system-float-n": "n 4.9",
    "system-string-n": "n '4'",
    "spec-float-n": "n 4.5",
    "spec-zero-d": "d 0",
    "spec-bool-d": "d True",
    "spec-float-seed": "seed 0.5",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_json_is_a_usage_error(tmp_path, capsys, case):
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


@pytest.mark.parametrize("d", ["0", "-1"])
def test_gen_random_refuses_nonpositive_dimension(tmp_path, capsys, d):
    args = ["gen", "--kind", "random", "--d", d, "--n", "1", "--seed", "0", "--out", str(tmp_path / "p.json")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize("delta", ["abc", "1.5"])
def test_bad_packing_delta_is_a_usage_error(tmp_path, capsys, delta):
    system = tmp_path / "system.json"
    system.write_text(json.dumps(GOOD_INPUTS["system"]))
    args = ["packing", "--system", str(system), "--delta", delta, "--out", str(tmp_path / "p.json")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


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


def test_bench_enumerates_each_n_once(tmp_path, monkeypatch):
    import bracketkit.cli as cli

    seen = []
    enumerate_ranges = cli._enumerate

    def counting(points, family, k=2):
        seen.append(points.n)
        return enumerate_ranges(points, family, k)

    monkeypatch.setattr(cli, "_enumerate", counting)
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
