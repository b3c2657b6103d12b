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
import os
import sys
import time
from dataclasses import dataclass
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
    BracketkitError,
    DegeneracyError,
    InputError,
    NonRealizableError,
    ResourceBudgetError,
    json_index,
    json_int,
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
from .rationals import floor_frac, format_fraction, parse_fraction
from .setsystem import SetSystem
from .verify import container_lower_bound, verify_family

CSV_COLUMNS = [
    "instance_id", "kind", "d", "n", "eps", "lambda", "eta",
    "family_size", "verified", "lower_bound", "runtime_ms",
]


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_points(path):
    return PointSet.from_json(_read(path))


def _load_system(path):
    return SetSystem.from_json(_read(path))


def _generate_points(kind, d, n, seed, jitter=None):
    if kind == "random":
        pts = random_point_set(d, n, seed)
    else:
        pts = lower_bound_instance(d, n, kind)
    if jitter is not None:
        pts = jitter_points(pts, jitter, seed)
    return pts


def _enumerate(points, family, k=2):
    if family == "halfspace":
        return enumerate_halfspace_ranges(points)
    if family == "ball":
        return enumerate_ball_ranges(points)
    if family == "box":
        return enumerate_box_ranges(points)
    if family == "polytope":
        return enumerate_polytope_ranges(points, k)
    raise InputError(f"unknown range family {family!r}")


def cmd_gen(args):
    jitter = parse_fraction(args.jitter, name="jitter") if args.jitter else None
    pts = _generate_points(args.kind, args.d, args.n, args.seed, jitter)
    _write(args.out, pts.to_json())
    print(f"wrote {args.kind} instance d={args.d} n={args.n} to {args.out}")
    return 0


def cmd_enum_ranges(args):
    pts = _load_points(args.points)
    system = _enumerate(pts, args.family, args.k)
    _write(args.out, system.to_json())
    print(f"{len(system.ranges)} distinct {args.family} ranges over n={system.n}")
    return 0


def cmd_packing(args):
    system = _load_system(args.system)
    delta = parse_fraction(args.delta, name="delta")
    if "/" in args.delta:
        delta *= system.n
    elif delta.denominator != 1:
        raise InputError(f"delta: expected a count or p/q of n, got {args.delta!r}")
    delta_int = floor_frac(delta)
    packing = greedy_delta_packing(system, delta_int, shallow_cap=args.cap)
    payload = {
        "delta": packing.delta,
        "cap": packing.shallow_cap,
        "members": [list(indices_from_mask(m)) for m in packing.members],
    }
    _write(args.out, json.dumps(payload))
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
    system = _load_system(args.system)
    lam = parse_fraction(args.lam, name="lambda")
    provider = default_provider()
    if args.algorithm == "heavy":
        family = heavy_mnet(system, lam, parse_fraction(args.eta, name="eta"), provider)
    elif args.algorithm == "boost":
        family = boost_epsilon(
            system, provider, parse_fraction(args.eps, name="eps"),
            parse_fraction(args.eta, name="eta"),
        )
    else:
        family = base_mnet(system, lam, parse_fraction(args.eps, name="eps"))
    _write(args.out, family_to_json(family))
    print(f"mnet with {len(family.pieces)} pieces (lambda={family.lam}, eps={family.eps})")
    return 0


def cmd_container(args):
    system = _load_system(args.system)
    family = build_container(system, parse_fraction(args.eps, name="eps"), default_provider())
    _write(args.out, family_to_json(family))
    print(f"container with {len(family.covers)} covers at eps={family.eps}")
    if args.lower_bound:
        print(f"packing lower bound: {container_lower_bound(system, family.eps)}")
    return 0


def cmd_bracket(args):
    system = _load_system(args.system)
    family = build_bracket(
        system, parse_fraction(args.eps, name="eps"), default_provider(), default_provider()
    )
    _write(args.out, family_to_json(family))
    print(f"bracket with {len(family.sets)} sets at eps={family.eps}")
    return 0


def cmd_verify(args):
    system = _load_system(args.system)
    family = family_from_json(_read(args.family), system)
    report = verify_family(system, family)
    if report.passed:
        print(f"verified: {report.checked} ranges checked")
        return 0
    mask, reason = report.counterexample
    print(f"FAILED on range {list(indices_from_mask(mask))}: {reason}")
    return 1


def _example(example, what):
    """A JSON ``[index, label]`` pair; the label must be exactly 1 or -1."""
    i, label = example
    if type(label) is not int or label not in (1, -1):
        raise InputError(f"{what}: label {label!r} is not +1 or -1")
    return json_index(i, what), label


def cmd_protocol_learn(args):
    domain = _load_points(args.points)
    what = "learning instance JSON"
    alice, bob = parse_json_object(
        _read(args.instance), what,
        lambda data: [tuple(_example(e, what) for e in data[side]) for side in ("alice", "bob")],
    )
    inst = LearningInstance(domain, alice, bob)
    eps0 = parse_fraction(args.eps0, name="eps0")
    try:
        classifier, transcript = learn_halfspace_protocol(inst, eps0)
    except NonRealizableError as err:
        print(f"abort: non-realizable instance; certificate {list(err.certificate)}")
        return 1
    correct = all(classifier(i) == l for i, l in inst.alice + inst.bob)
    if args.transcript:
        _write(args.transcript, transcript.to_jsonl())
    if args.summary:
        _append_summary(args.summary, args.instance, transcript, correct)
    print(
        f"rounds={transcript.rounds} bits={transcript.total_bits} consistent={correct}"
    )
    return 0 if correct else 1


def cmd_protocol_disjoint(args):
    domain = _load_points(args.points)
    what = "disjointness instance JSON"
    alice, bob = parse_json_object(
        _read(args.instance), what,
        lambda data: [tuple(json_index(i, what) for i in data[side]) for side in ("alice", "bob")],
    )
    inst = DisjointnessInstance(domain, alice, bob)
    eps0 = parse_fraction(args.eps0, name="eps0")
    answer, transcript = convex_disjointness_protocol(inst, eps0)
    oracle = exact_hull_intersection(domain, inst.alice, inst.bob)
    correct = (answer == "intersecting") == oracle.intersecting
    if args.transcript:
        _write(args.transcript, transcript.to_jsonl())
    if args.summary:
        _append_summary(args.summary, args.instance, transcript, correct)
    print(f"answer={answer} bits={transcript.total_bits} oracle_agrees={correct}")
    return 0 if correct else 1


def _append_summary(path, instance_id, transcript, correct):
    exists = os.path.exists(path)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if not exists:
            writer.writerow(["instance_id", "rounds", "total_bits", "correct"])
        writer.writerow([instance_id, transcript.rounds, transcript.total_bits, correct])


@dataclass
class ExperimentSpec:
    instance_kind: str
    family: str
    d: int
    n_list: list
    seed: int
    construction: str
    eps_list: list
    lambda_list: list
    eta_list: list
    jitter: object
    out: str

    @staticmethod
    def from_json(text):
        return parse_json_object(text, "bench spec JSON", lambda data: ExperimentSpec(
            instance_kind=data.get("instance_kind", "random"),
            family=data.get("family", "halfspace"),
            d=json_int(data.get("d", 2), "bench spec JSON: d", 1),
            n_list=[json_int(v, "bench spec JSON: n", 0) for v in data.get("n", [])],
            seed=json_int(data.get("seed", 0), "bench spec JSON: seed"),
            construction=data.get("construction", "container"),
            eps_list=[parse_fraction(v, name="eps") for v in data.get("eps", [])],
            lambda_list=[parse_fraction(v, name="lambda") for v in data.get("lambda", [])],
            eta_list=[parse_fraction(v, name="eta") for v in data.get("eta", [])],
            jitter=parse_fraction(data["jitter"], name="jitter") if data.get("jitter") else None,
            out=data.get("out", "results.csv"),
        ))


def _run_grid_point(spec, n, system, eps, lam, eta):
    """One CSV row: build, verify and (for containers) lower-bound one grid
    point.  runtime_ms times these steps only; the caller makes the points
    and ranges once per n."""
    start = time.perf_counter()
    lower = ""
    if spec.construction == "container":
        family = build_container(system, eps, default_provider())
        size = len(family.covers)
        lower = container_lower_bound(system, eps)
    elif spec.construction == "bracket":
        family = build_bracket(system, eps, default_provider(), default_provider())
        size = len(family.sets)
    elif spec.construction == "mnet":
        family = heavy_mnet(system, lam, eta, default_provider())
        size = len(family.pieces)
    else:
        raise InputError(f"unknown construction {spec.construction!r}")
    report = verify_family(system, family)
    elapsed_ms = int(1000 * (time.perf_counter() - start))
    row = {
        "instance_id": f"{spec.instance_kind}-{spec.family}-d{spec.d}-n{n}-s{spec.seed}",
        "kind": f"{spec.instance_kind}/{spec.family}",
        "d": spec.d,
        "n": n,
        "eps": format_fraction(eps) if eps is not None else "",
        "lambda": format_fraction(lam) if lam is not None else "",
        "eta": format_fraction(eta) if eta is not None else "",
        "family_size": size,
        "verified": bool(report.passed),
        "lower_bound": lower,
        "runtime_ms": elapsed_ms,
    }
    return row, report


def cmd_bench(args):
    spec = ExperimentSpec.from_json(_read(args.spec))
    rows = []
    failure = None
    for n in spec.n_list:
        pts = _generate_points(spec.instance_kind, spec.d, n, spec.seed, spec.jitter)
        system = _enumerate(pts, spec.family)
        for eps, lam, eta in product(spec.eps_list or [None], spec.lambda_list or [None],
                                     spec.eta_list or [None]):
            row, report = _run_grid_point(spec, n, system, eps, lam, eta)
            rows.append(row)
            if not report.passed and failure is None:
                failure = report
    with open(spec.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"wrote {len(rows)} rows to {spec.out}")
    if failure is not None:
        mask, reason = failure.counterexample
        print(f"verification FAILED: range {list(indices_from_mask(mask))}: {reason}")
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="bracketkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point-set instance")
    p.add_argument("--kind", required=True, choices=["grid", "sphere", "moment-curve", "random"])
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", default=None, help="rational scale like 1/1024 for degeneracy breaking")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("enum-ranges", help="enumerate geometric ranges")
    p.add_argument("--points", required=True)
    p.add_argument("--family", required=True, choices=["halfspace", "ball", "box", "polytope"])
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

    p = sub.add_parser("container", help="build a verified container family")
    p.add_argument("--system", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--lower-bound", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_container)

    p = sub.add_parser("bracket", help="build a verified uniform bracket")
    p.add_argument("--system", required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("verify", help="verify a family JSON against a system JSON")
    p.add_argument("--system", required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("protocol-learn", help="simulate distributed halfspace learning")
    p.add_argument("--points", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--eps0", default="1/8")
    p.add_argument("--transcript", default=None)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_protocol_learn)

    p = sub.add_parser("protocol-disjoint", help="simulate convex set disjointness")
    p.add_argument("--points", required=True)
    p.add_argument("--instance", required=True)
    p.add_argument("--eps0", default="1/8")
    p.add_argument("--transcript", default=None)
    p.add_argument("--summary", default=None)
    p.set_defaults(func=cmd_protocol_disjoint)

    p = sub.add_parser("bench", help="run an experiment grid to CSV")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, DegeneracyError, ResourceBudgetError, FileNotFoundError, json.JSONDecodeError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 2
    except BracketkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
