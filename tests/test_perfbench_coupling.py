"""The names the benchmark harness in ``perfbench/`` traces and calls still
exist, so a rename in ``src/`` fails here instead of crashing the benchmark.
The harness files are loaded from their source and left unchanged."""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files under perfbench/
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_bound(monkeypatch):
    spans = _load("spans", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        unbound = [name for name, _, _ in spans.TRACED if tracer.bindings.get(name, 0) < 1]
    finally:
        undo()
    assert unbound == []
    assert callable(workloads.CLEAR_CONTEXT_CACHE)
