"""Seeded single-process benchmark for bracketkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; bracketkit is imported from ./src.
With ``--trace 0`` the workload runs untraced in a closed loop (one caller,
each op starts when the previous returns) for at least ``--seconds`` and
its minimum cycle count, and the end-to-end metrics are reported, with
times scaled to a nominal host speed (see hostspeed.py).  With
``--trace 1`` a fixed number of cycles runs with every traced bracketkit
function wrapped (see spans.py) and the per-layer metrics are reported.
Every output is checked, and digests are compared with perfbench/golden.json
and with earlier runs of the same seed in this checkout.  The last stdout
line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, metrics and noise notes.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
CACHE = HERE / ".cache"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save-golden", action="store_true",
                        help="merge this run's digests into perfbench/golden.json")
    return parser.parse_args(argv)


def note(key, value):
    print(f"# {key}: {value}", flush=True)


class Runner:
    """Closed-loop op runner: times ops, runs checks, keeps digests."""

    def __init__(self, workload, host=None):
        self.workload = workload
        self.host = host
        self.records = []  # (cycle, op, start, end, time spent sampling the host)
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digests = {}

    def fail(self, op, message):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op}: {message}")

    def run_cycle(self, index):
        from workloads import CheckFailed

        for op, run, check in self.workload.cycle(index):
            result = None
            if run is not None:
                self.attempted += 1
                try:
                    result = self.timed(index, op, run)
                except Exception as err:  # a failed op is counted, the loop goes on
                    self.fail(op, f"{type(err).__name__}: {err}")
                    continue
            try:
                checked = check(result)
            except CheckFailed as err:
                self.fail(op, str(err))
                continue
            if checked is not None:
                key, digest = checked
                if self.digests.setdefault(key, digest) != digest:
                    self.fail(op, f"output {key} differs from an earlier cycle")

    def timed(self, cycle, op, run):
        host = self.host
        start = time.perf_counter()
        sampling = host.spent if host else 0.0
        result = run()
        sampling = host.spent - sampling if host else 0.0
        self.records.append((cycle, op, start, time.perf_counter(), sampling))
        return result

    def golden_summary(self):
        """One digest per output group over its golden prefix of indices."""
        from workloads import sha

        summary = {}
        for group, length in self.workload.golden_length.items():
            parts = [self.digests.get((group, i)) for i in range(length)]
            if None not in parts:
                summary[group] = sha("\n".join(parts)) if length > 1 else parts[0]
        return summary


def load_json(path):
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def save_json(path, data):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def compare_golden(name, seed, summary, save):
    """Compare with the committed record, then with earlier runs here."""
    mismatches = []
    committed = load_json(GOLDEN)
    cache_path = CACHE / "golden.json"
    cached = load_json(cache_path)
    for source, record in (("golden.json", committed), ("earlier run", cached)):
        known = record.get(name, {}).get(str(seed), {})
        for group, digest in summary.items():
            if group in known and known[group] != digest:
                mismatches.append(f"{group} differs from {source}")
    if not mismatches:
        entry = cached.setdefault(name, {}).setdefault(str(seed), {})
        if any(entry.get(g) != d for g, d in summary.items()):
            entry.update(summary)
            save_json(cache_path, cached)
        if save:
            committed.setdefault(name, {}).setdefault(str(seed), {}).update(summary)
            save_json(GOLDEN, committed)
    known = committed.get(name, {}).get(str(seed), {})
    note("golden", f"{len(summary)} output groups, {sum(g in known for g in summary)} "
         f"in golden.json, mismatches={mismatches or 'none'}")
    return not mismatches


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def report_ops(op_metrics, scaled, raw):
    """Per-op times: median, plus p99 where ten samples lie beyond it."""
    for op, label in op_metrics:
        samples = scaled.get(op, [])
        if not samples:
            continue
        count = len(samples)
        if label.endswith("_ms"):
            note(f"{label}_p50", f"{1000 * statistics.median(samples):.4f} ms "
                 f"[{1000 * statistics.median(raw[op]):.4f}] (n={count})")
            if count >= 1000:
                note(f"{label}_p99", f"{1000 * percentile(samples, 0.99):.4f} ms "
                     f"[{1000 * percentile(raw[op], 0.99):.4f}] (n={count})")
        else:
            note(label, f"{statistics.median(samples):.4f} s "
                 f"[{statistics.median(raw[op]):.4f}] (n={count})")


def untraced(workload, runner, seconds):
    host = runner.host
    with host:
        for _ in range(workload.setup_repeats):
            gc.collect()
            runner.timed(-1, "setup", workload.setup)
        begin = time.perf_counter()
        index = 0
        while index < workload.min_cycles or time.perf_counter() - begin < seconds:
            runner.run_cycle(index)
            index += 1
        note("measured", f"{time.perf_counter() - begin:.2f} s over {index} cycles")

    scaled, raw, cycles = {}, {}, {}
    for cycle, op, start, end, sampling in runner.records:
        seconds = host.scaled(start, end, sampling)
        scaled.setdefault(op, []).append(seconds)
        raw.setdefault(op, []).append(end - start - sampling)
        if cycle >= 0:
            cycles[cycle] = cycles.get(cycle, 0.0) + seconds
    passes = sorted(host.passes)
    note("host reference pass", f"median {1000 * statistics.median(passes):.3f} ms, "
         f"range {1000 * passes[0]:.3f}-{1000 * passes[-1]:.3f} ms over {len(passes)} samples; "
         f"times are scaled to {1000 * hostspeed.REFERENCE_PASS_S:.3f} ms, wall in brackets")
    report_ops((("setup", "setup_s"),) + workload.op_metrics, scaled, raw)
    return {
        "setup_s": (statistics.median(scaled["setup"]), "s"),
        "cycle_s": (statistics.median(cycles.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(workload, runner, spans_out):
    import spans as tracing

    residual = tracing.calibrate()
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        begin = time.perf_counter()
        workload.setup()
        for index in range(workload.trace_cycles):
            runner.run_cycle(index)
        wall = time.perf_counter() - begin
    finally:
        undo()
    note("traced", f"{wall:.2f} s over {workload.trace_cycles} cycles, {len(tracer.spans)} spans")
    note("bindings patched", json.dumps(tracer.bindings, sort_keys=True))
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_out, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    note("spans written to", spans_out.relative_to(ROOT))
    selfs = tracing.self_times(tracer.spans)
    return layer_metrics(tracer, tracing.aggregate(tracer.spans, selfs), selfs, workload, residual)


def layer_names():
    """Span names reported per layer; provider creation is traced only to
    collect the providers for the bound_log self-check."""
    from spans import TRACED

    return [n for n in dict.fromkeys(n for n, _, _ in TRACED)
            if n != "constructions.default_provider"]


def share(part, whole, label):
    note(label, f"{part:g} / {whole:g}")
    return part / whole if whole else 0.0


def layer_metrics(tracer, agg, selfs, workload, residual):
    """Per-layer metrics from the spans; also runs the bound_log self-check."""
    metrics = {}
    for name in layer_names():
        calls, self_s = agg.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    metrics["geometry.ranges_out"] = (tracer.ranges_out, "count")
    metrics["packing.admitted_share"] = (share(
        tracer.packing_members, tracer.packing_candidates, "packing members/candidates"), "ratio")
    metrics["lp.infeasible_share"] = (share(
        tracer.lp_infeasible, agg.get("lp.solve", (0, 0.0))[0], "lp infeasible/calls"), "ratio")

    # Verifier self time inside construction spans, over top-level construction time.
    spans = tracer.spans
    inside = [False] * len(spans)
    verify_inside = 0.0
    construction_s = 0.0
    for i, (name, start, end, parent, cost) in enumerate(spans):
        if parent >= 0:
            inside[i] = inside[parent] or spans[parent][0].startswith("constructions.")
        if name.startswith("verify.") and inside[i]:
            verify_inside += selfs[i]
        elif name.startswith("constructions.") and not inside[i]:
            construction_s += end - start
    metrics["verify.self_check_share"] = (
        share(verify_inside, construction_s, "verify self s / construction s"), "ratio")

    runs = getattr(workload, "protocol_runs", [])
    count = len(runs)
    metrics["protocols.rounds_mean"] = (sum(r[0] for r in runs) / count if count else 0.0, "rounds")
    metrics["protocols.bits_mean"] = (sum(r[1] for r in runs) / count if count else 0.0, "bits")
    metrics["protocols.abort_share"] = (
        share(sum(r[2] for r in runs), count, "protocol aborts/runs"), "ratio")

    overhead = sum(s[4] for s in spans) + residual * len(spans)
    metrics["trace.overhead_s"] = (overhead, "s")
    note("trace overhead", f"{overhead:.4f} s = in-wrapper time + {len(spans)} spans x "
         f"{residual * 1e9:.0f} ns call cost")

    logged = sum(len(p.bound_log) for p in tracer.providers)
    base_calls = agg.get("constructions.base_mnet", (0, 0.0))[0]
    note("base_mnet spans vs provider bound_log entries", f"{base_calls} vs {logged}")
    return metrics, base_calls == logged


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "bracketkit").is_dir():
        print(f"bracketkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    note("python", platform.python_version())
    note("numpy", numpy.__version__)
    note("nproc", os.cpu_count())
    note("workload", f"{args.workload} seed={args.seed} trace={args.trace}")

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(workload, None if args.trace else hostspeed.HostClock())
        self_check = True
        if args.trace:
            metrics, self_check = traced(
                workload, runner, CACHE / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = untraced(workload, runner, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    paths = getattr(workload, "paths", None)
    if paths:
        total = sum(paths.values())
        note("disjointness paths", ", ".join(
            f"{k} {v}/{total} ({v / total:.3f})" for k, v in sorted(paths.items())))
    note("failed_share", f"{runner.failed}/{runner.attempted}")
    for error in runner.errors:
        note("failure", error)
    golden_ok = compare_golden(args.workload, args.seed, runner.golden_summary(),
                               args.save_golden)
    correct = runner.failed == 0 and golden_ok and self_check
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
