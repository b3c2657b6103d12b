"""Command-line front end.

Subcommands: gen, enum-ranges, packing, mnet, container, bracket, verify,
protocol-learn, protocol-disjoint, bench.  Exit status: 0 = all verified,
1 = verification failure, 2 = usage error.  Rationals are passed as "p/q"
strings.  bench runs its grid points one after another, in grid order, and
enumerates the ranges once per n.
"""

import argparse
import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from itertools import product

from .bitsets import indices_from_mask
from .constructions import (
    base_mnet,
    boost_epsilon,
    build_bracket,
    build_container,
    default_provider,
    heavy_mnet,
)
from .errors import (
    MAX_DIM,
    MAX_GROUND_SET,
    BracketkitError,
    DegeneracyError,
    InputError,
    NonRealizableError,
    ResourceBudgetError,
    json_int,
    parse_fraction,
    parse_json_object,
)
from .families import family_from_json, family_to_json
from .geometry import (
    PointSet,
    enumerate_ball_ranges,
    enumerate_box_ranges,
    enumerate_halfspace_ranges,
    enumerate_polytope_ranges,
    jitter_points,
    lower_bound_instance,
    random_point_set,
)
from .packing import greedy_delta_packing, packing_bound_report
from .protocols import (
    DisjointnessInstance,
    LearningInstance,
    convex_disjointness_protocol,
    exact_hull_intersection,
    learn_halfspace_protocol,
)
from .setsystem import SetSystem, index_lists_json, json_object_text
from .verify import container_lower_bound, verify_family

CSV_COLUMNS = [
    "instance_id", "kind", "d", "n", "eps", "lambda", "eta",
    "family_size", "verified", "lower_bound", "runtime_ms",
]
INSTANCE_KINDS = ("grid", "sphere", "moment-curve", "random")

# range family -> its enumerator of (points, polytope constraint count k), looked up when called.
ENUMERATORS = {
    "halfspace": lambda pts, k: enumerate_halfspace_ranges(pts),
    "ball": lambda pts, k: enumerate_ball_ranges(pts),
    "box": lambda pts, k: enumerate_box_ranges(pts),
    "polytope": lambda pts, k: enumerate_polytope_ranges(pts, k),
}

# construction -> (the bench spec lists it reads, its builder on their values,
# the family field holding its sets).  The builders look up the constructions
# when called, so a name patched on this module takes effect.
CONSTRUCTIONS = {
    "container": (
        ("eps",), lambda system, eps: build_container(system, eps, default_provider()), "covers",
    ),
    "bracket": (
        ("eps",), lambda system, eps: build_bracket(system, eps, default_provider(), default_provider()), "sets",
    ),
    "mnet": (
        ("lambda", "eta"), lambda system, lam, eta: heavy_mnet(system, lam, eta, default_provider()), "pieces",
    ),
}


@contextmanager
def _open(path, mode):
    """Every file the CLI reads or writes, opened as UTF-8 text with
    ``newline=""`` (for the csv module).  An OSError or a byte that is not
    UTF-8, while opening or using the file, raises InputError naming it."""
    try:
        with open(path, mode, encoding="utf-8", newline="") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"{path}: {err}") from err


def _read(path):
    with _open(path, "r") as fh:
        return fh.read()


def _write(path, text):
    with _open(path, "w") as fh:
        fh.write(text)


def _generate_points(kind, d, n, seed, jitter=None):
    if kind == "random":
        pts = random_point_set(d, n, seed)
    else:
        pts = lower_bound_instance(d, n, kind)
    if jitter is not None:
        pts = jitter_points(pts, jitter, seed)
    return pts


def cmd_gen(args):
    jitter = parse_fraction(args.jitter, name="jitter") if args.jitter else None
    pts = _generate_points(args.kind, args.d, args.n, args.seed, jitter)
    _write(args.out, pts.to_json())
    print(f"wrote {args.kind} instance d={args.d} n={args.n} to {args.out}")
    return 0


def cmd_enum_ranges(args):
    pts = PointSet.from_json(_read(args.points))
    system = ENUMERATORS[args.family](pts, args.k)
    _write(args.out, system.to_json())
    print(f"{len(system.ranges)} distinct {args.family} ranges over n={system.n}")
    return 0


def cmd_packing(args):
    if args.d0 < 0:
        raise InputError(f"--d0 must be >= 0 (0 skips the bound report), got {args.d0}")
    system = SetSystem.from_json(_read(args.system))
    delta = parse_fraction(args.delta, name="delta")
    if "/" in args.delta:
        delta *= system.n
    elif delta.denominator != 1:
        raise InputError(f"delta: expected a count or p/q of n, got {args.delta!r}")
    delta_int = math.floor(delta)
    packing = greedy_delta_packing(system, delta_int, shallow_cap=args.cap)
    members = index_lists_json(packing.members, "packing JSON")
    fields = {"delta": json.dumps(packing.delta), "cap": json.dumps(packing.shallow_cap), "members": members}
    _write(args.out, json_object_text(fields))
    print(f"packing size {len(packing.members)} at delta={delta_int} cap={args.cap}")
    if args.d0:
        report = packing_bound_report(packing, args.d0)
        print(
            f"haussler volume (n/delta)^d0 = {float(report.haussler_volume):.6g}; "
            f"empirical constant {report.empirical_constant:.6g}"
        )
        if report.shallow_expression is not None:
            print(f"shallow expression {report.shallow_expression:.6g} (psi_hat={report.shallow_psi_hat})")
    return 0


def cmd_mnet(args):
    lam = parse_fraction(args.lam, name="lambda")
    eta = parse_fraction(args.eta, name="eta")
    eps = parse_fraction(args.eps, name="eps")
    system = SetSystem.from_json(_read(args.system))
    if args.algorithm == "heavy":
        family = CONSTRUCTIONS["mnet"][1](system, lam, eta)
    elif args.algorithm == "boost":
        family = boost_epsilon(system, default_provider(), eps, eta)
    else:
        family = base_mnet(system, lam, eps)
    _write(args.out, family_to_json(family))
    print(f"mnet with {len(family.pieces)} pieces (lambda={family.lam}, eps={family.eps})")
    return 0


def cmd_container_or_bracket(args):
    system = SetSystem.from_json(_read(args.system))
    _, build, field = CONSTRUCTIONS[args.command]
    family = build(system, parse_fraction(args.eps, name="eps"))
    _write(args.out, family_to_json(family))
    print(f"{args.command} with {len(getattr(family, field))} {field} at eps={family.eps}")
    if args.command == "container" and args.lower_bound:
        print(f"packing lower bound: {container_lower_bound(system, family.eps)}")
    return 0


def cmd_verify(args):
    system = SetSystem.from_json(_read(args.system))
    report = verify_family(family_from_json(_read(args.family), system))
    if report.passed:
        print(f"verified: {report.checked} ranges checked")
        return 0
    mask, reason = report.counterexample
    print(f"FAILED on range {list(indices_from_mask(mask))}: {reason}")
    return 1


def _protocol_input(args, what, instance_type):
    """The domain, the instance and eps0, for protocol-learn and
    protocol-disjoint.  Each side's JSON list is passed through as a tuple:
    the protocol functions refuse a malformed item before any work."""
    domain = PointSet.from_json(_read(args.points))
    alice, bob = parse_json_object(
        _read(args.instance), what, lambda data: [tuple(data[side]) for side in ("alice", "bob")],
    )
    return instance_type(domain, alice, bob), parse_fraction(args.eps0, name="eps0")


def _protocol_output(args, transcript, correct, line):
    """Write the transcript, append the summary row (after a header in a new
    file), print ``line``; exit status 0 if the run was correct."""
    if args.transcript:
        _write(args.transcript, transcript.to_jsonl())
    if args.summary:
        exists = os.path.exists(args.summary)
        with _open(args.summary, "a") as fh:
            writer = csv.writer(fh)
            if not exists:
                writer.writerow(["instance_id", "rounds", "total_bits", "correct"])
            writer.writerow([args.instance, transcript.rounds, transcript.total_bits, correct])
    print(line)
    return 0 if correct else 1


def cmd_protocol_learn(args):
    inst, eps0 = _protocol_input(args, "learning instance JSON", LearningInstance)
    try:
        classifier, transcript = learn_halfspace_protocol(inst, eps0)
    except NonRealizableError as err:
        print(f"abort: non-realizable instance; certificate {list(err.certificate)}")
        return 1
    correct = all(classifier(i) == l for i, l in inst.alice + inst.bob)
    return _protocol_output(
        args, transcript, correct, f"rounds={transcript.rounds} bits={transcript.total_bits} consistent={correct}"
    )


def cmd_protocol_disjoint(args):
    inst, eps0 = _protocol_input(args, "disjointness instance JSON", DisjointnessInstance)
    answer, transcript = convex_disjointness_protocol(inst, eps0)
    correct = (answer == "intersecting") == exact_hull_intersection(inst.domain, inst.alice, inst.bob).intersecting
    return _protocol_output(
        args, transcript, correct, f"answer={answer} bits={transcript.total_bits} oracle_agrees={correct}"
    )


def _parse_spec(data):
    """The bench spec keyed by its JSON field names, defaults filled in and
    values parsed in field order.  It is refused before any grid point runs
    if ``n``, ``eps``, ``lambda`` or ``eta`` is not a list, ``out`` is not a
    string free of NUL bytes, the construction is unknown or lacks a
    parameter list, or the instance kind or range family is unknown."""

    def listed(key):
        values = data.get(key, [])
        if not isinstance(values, list):
            raise InputError(f"bench spec JSON: {key} must be a list, got {values!r}")
        return values

    spec = {
        "instance_kind": data.get("instance_kind", "random"),
        "family": data.get("family", "halfspace"),
        "d": json_int(data.get("d", 2), "bench spec JSON: d", 1, MAX_DIM),
        "n": [json_int(v, "bench spec JSON: n", 0, MAX_GROUND_SET) for v in listed("n")],
        "seed": json_int(data.get("seed", 0), "bench spec JSON: seed"),
        "construction": data.get("construction", "container"),
        **{key: [parse_fraction(v, name=key) for v in listed(key)] for key in ("eps", "lambda", "eta")},
        "jitter": parse_fraction(data["jitter"], name="jitter") if data.get("jitter") is not None else None,
        "out": data.get("out", "results.csv"),
    }
    construction = spec["construction"]
    if not isinstance(spec["out"], str) or "\0" in spec["out"]:
        raise InputError(f"bench spec JSON: out {spec['out']!r} is not a file name string")
    if construction not in CONSTRUCTIONS:
        raise InputError(f"bench spec JSON: construction {construction!r} is not one of {', '.join(CONSTRUCTIONS)}")
    for key in CONSTRUCTIONS[construction][0]:
        if not spec[key]:
            raise InputError(f"bench spec JSON: construction {construction!r} needs a non-empty {key} list")
    for key, what, known in (
        ("instance_kind", "instance kind", INSTANCE_KINDS), ("family", "range family", tuple(ENUMERATORS)),
    ):
        if spec[key] not in known:
            raise InputError(f"bench spec JSON: unknown {what} {spec[key]!r} (one of {', '.join(known)})")
    return spec


def _run_grid_point(spec, n, system, point):
    """One CSV row: build, verify and (for containers) lower-bound one grid
    point, given as {list name: value}.  runtime_ms times these steps only;
    the caller makes the points and ranges once per n."""
    start = time.perf_counter()
    _, build, field = CONSTRUCTIONS[spec["construction"]]
    family = build(system, *point.values())
    lower = container_lower_bound(system, point["eps"]) if spec["construction"] == "container" else ""
    report = verify_family(family)
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    row = {
        "instance_id": f"{spec['instance_kind']}-{spec['family']}-d{spec['d']}-n{n}-s{spec['seed']}",
        "kind": f"{spec['instance_kind']}/{spec['family']}",
        "d": spec["d"],
        "n": n,
        **{key: str(point.get(key, "")) for key in ("eps", "lambda", "eta")},
        "family_size": len(getattr(family, field)),
        "verified": bool(report.passed),
        "lower_bound": lower,
        "runtime_ms": elapsed_ms,
    }
    return row, report


def cmd_bench(args):
    spec = parse_json_object(_read(args.spec), "bench spec JSON", _parse_spec)
    keys = CONSTRUCTIONS[spec["construction"]][0]
    rows = []
    failure = None
    for n in spec["n"]:
        pts = _generate_points(spec["instance_kind"], spec["d"], n, spec["seed"], spec["jitter"])
        system = ENUMERATORS[spec["family"]](pts, 2)  # the polytope k of enum-ranges' --k default
        for values in product(*(spec[key] for key in keys)):
            row, report = _run_grid_point(spec, n, system, dict(zip(keys, values)))
            rows.append(row)
            if not report.passed and failure is None:
                failure = report
    with _open(spec["out"], "w") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {spec['out']}")
    if failure is not None:
        mask, reason = failure.counterexample
        print(f"verification FAILED: range {list(indices_from_mask(mask))}: {reason}")
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="bracketkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point-set instance")
    p.add_argument("--kind", required=True, choices=INSTANCE_KINDS)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", default=None, help="rational scale like 1/1024 for degeneracy breaking")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("enum-ranges", help="enumerate geometric ranges")
    p.add_argument("--points", required=True)
    p.add_argument("--family", required=True, choices=ENUMERATORS)
    p.add_argument("--k", type=int, default=2, help="constraint count for polytope ranges")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_enum_ranges)

    p = sub.add_parser("packing", help="greedy maximal delta-packing")
    p.add_argument("--system", required=True)
    p.add_argument("--delta", required=True, help="absolute count, or p/q of n")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--d0", type=int, default=0, help="VC dimension for the bound report")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_packing)

    p = sub.add_parser("mnet", help="build a verified Mnet")
    p.add_argument("--system", required=True)
    p.add_argument("--algorithm", default="heavy", choices=["heavy", "boost", "base"])
    p.add_argument("--lambda", dest="lam", default="1/2")
    p.add_argument("--eta", default="1/4")
    p.add_argument("--eps", default="1/4")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_mnet)

    for name, help_text in (
        ("container", "build a verified container family"), ("bracket", "build a verified uniform bracket"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--system", required=True)
        p.add_argument("--eps", required=True)
        if name == "container":
            p.add_argument("--lower-bound", action="store_true")
        p.add_argument("--out", required=True)
        p.set_defaults(func=cmd_container_or_bracket)

    p = sub.add_parser("verify", help="verify a family JSON against a system JSON")
    p.add_argument("--system", required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_verify)

    for name, help_text, func in (
        ("protocol-learn", "simulate distributed halfspace learning", cmd_protocol_learn),
        ("protocol-disjoint", "simulate convex set disjointness", cmd_protocol_disjoint),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--points", required=True)
        p.add_argument("--instance", required=True)
        p.add_argument("--eps0", default="1/8")
        p.add_argument("--transcript", default=None)
        p.add_argument("--summary", default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("bench", help="run an experiment grid to CSV")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DegeneracyError, ResourceBudgetError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except BracketkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
