"""Span recording from outside the program.

``install`` replaces the traced bracketkit functions with wrappers in every
module namespace that binds them (``from x import f`` copies the binding, so
patching only the defining module would miss calls).  Each wrapper records a
span ``(name, start, end, parent, cost)`` in memory, where ``cost`` is the
time the wrapper itself spent outside the wrapped call.  Tracing overhead is
thus measured span by span and never counted as any layer's self time.
"""

import importlib
import sys
import time
from dataclasses import dataclass, field

# (span name, defining module, attribute); a dotted attribute is a static method.
TRACED = (
    ("geometry.enumerate", "geometry", "enumerate_halfspace_ranges"),
    ("bitsets.indices_from_mask", "bitsets", "indices_from_mask"),
    ("bitsets.pack_masks", "bitsets", "pack_masks"),
    ("bitsets.symdiff_counts", "bitsets", "symdiff_counts"),
    ("bitsets.subset_matrix", "bitsets", "subset_matrix"),
    ("setsystem.from_masks", "setsystem", "SetSystem.from_masks"),
    ("setsystem.project", "setsystem", "project"),
    ("setsystem.complement_family", "setsystem", "complement_family"),
    ("setsystem.filter_by_size", "setsystem", "filter_by_size"),
    ("packing.greedy_delta_packing", "packing", "greedy_delta_packing"),
    ("constructions.default_provider", "constructions", "default_provider"),
    ("constructions.base_mnet", "constructions", "base_mnet"),
    ("constructions.boost_epsilon", "constructions", "boost_epsilon"),
    ("constructions.small_set_container", "constructions", "small_set_container"),
    ("constructions.bootstrap_interval_mnet", "constructions", "bootstrap_interval_mnet"),
    ("constructions.heavy_mnet", "constructions", "heavy_mnet"),
    ("constructions.build_container", "constructions", "build_container"),
    ("constructions.build_bracket", "constructions", "build_bracket"),
    ("verify.verify_mnet", "verify", "verify_mnet"),
    ("verify.verify_container", "verify", "verify_container"),
    ("verify.verify_bracket", "verify", "verify_bracket"),
    ("verify.container_lower_bound", "verify", "container_lower_bound"),
    ("families.make", "families", "make_mnet"),
    ("families.make", "families", "make_container"),
    ("families.make", "families", "make_bracket"),
    ("families.json", "families", "family_to_json"),
    ("families.json", "families", "family_from_json"),
    ("cli.main", "cli", "main"),
    ("lp.solve", "lp", "solve_equality_feasibility"),
    ("protocols.context", "protocols", "shared_protocol_context"),
    ("protocols.learn", "protocols", "learn_halfspace_protocol"),
    ("protocols.disjoint", "protocols", "convex_disjointness_protocol"),
    ("protocols.hull", "protocols", "exact_hull_intersection"),
)


@dataclass
class Tracer:
    """In-memory span list plus the counts observed at layer boundaries."""

    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    bindings: dict = field(default_factory=dict)
    providers: list = field(default_factory=list)
    ranges_out: int = 0
    packing_candidates: int = 0
    packing_members: int = 0
    lp_infeasible: int = 0

    def wrap(self, name, fn):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            t0 = clock()
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t2 = clock()
                stack.pop()
                spans[index] = (name, t1, t2, parent, (t1 - t0) + (clock() - t2))
                raise
            t2 = clock()
            stack.pop()
            if observe is not None:
                observe(self, result)
            spans[index] = (name, t1, t2, parent, (t1 - t0) + (clock() - t2))
            return result

        return traced


def _provider(tracer, provider):
    tracer.providers.append(provider)


def _enumerate(tracer, system):
    tracer.ranges_out += len(system.ranges)


def _packing(tracer, packing):
    cap = packing.shallow_cap
    tracer.packing_candidates += sum(
        1 for m in packing.base.ranges if cap is None or m.bit_count() <= cap
    )
    tracer.packing_members += len(packing.members)


def _lp(tracer, result):
    tracer.lp_infeasible += result[0] == "infeasible"


OBSERVERS = {
    "constructions.default_provider": _provider,
    "geometry.enumerate": _enumerate,
    "packing.greedy_delta_packing": _packing,
    "lp.solve": _lp,
}


def install(tracer):
    """Wrap every traced function in every loaded bracketkit namespace.

    ``tracer.bindings`` counts the namespaces patched per span name, so a
    missed binding shows in the output.  Returns a callable that undoes it.
    """
    wrappers = {}
    statics = []
    for name, module, attr in TRACED:
        mod = importlib.import_module(f"bracketkit.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            fn = cls.__dict__[meth].__func__
            setattr(cls, meth, staticmethod(tracer.wrap(name, fn)))
            statics.append((cls, meth, fn))
            tracer.bindings[name] = tracer.bindings.get(name, 0) + 1
        else:
            fn = getattr(mod, attr)
            wrappers[id(fn)] = (fn, name, tracer.wrap(name, fn))
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "bracketkit" and not modname.startswith("bracketkit."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is None or hit[0] is not value:
                continue
            setattr(mod, attr, hit[2])
            patched.append((mod, attr, value))
            tracer.bindings[hit[1]] = tracer.bindings.get(hit[1], 0) + 1

    def undo():
        for mod, attr, value in patched:
            setattr(mod, attr, value)
        for cls, meth, fn in statics:
            setattr(cls, meth, staticmethod(fn))

    return undo


def calibrate(rounds=200_000):
    """Per-span cost of a wrapper that the wrapper cannot time itself: the
    extra call frame and the bookkeeping before its first clock read."""
    tracer = Tracer()

    def bare():
        return None

    wrapped = tracer.wrap("calibrate", bare)
    clock = time.perf_counter
    start = clock()
    for _ in range(rounds):
        bare()
    plain = clock() - start
    start = clock()
    for _ in range(rounds):
        wrapped()
    traced = clock() - start
    measured = sum(s[4] for s in tracer.spans)
    return max(0.0, (traced - plain - measured) / rounds)


def self_times(spans):
    """Per span: its duration minus the part its child spans cover (child
    wrapper costs included, so tracing overhead is nobody's self time)."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, cost in spans:
        if parent >= 0:
            covered[parent] += (end - start) + cost
    return [end - start - child for (_, start, end, _, _), child in zip(spans, covered)]


def aggregate(spans, selfs):
    """Per span name: (call count, summed self time)."""
    out = {}
    for span, self_s in zip(spans, selfs):
        calls, total = out.get(span[0], (0, 0.0))
        out[span[0]] = (calls + 1, total + self_s)
    return out
