"""A smoke run of ``tools/greedy_crossover.py``, the replay that places
``constructions._INT_CELLS``, on the context build of a 32-point domain,
whose greedy covers take all three paths.  The tool is loaded from its
path."""

import importlib.util
import re
import sys
from pathlib import Path

from bracketkit import constructions

TOOL = Path(__file__).resolve().parent.parent / "tools" / "greedy_crossover.py"


def _tool(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache files under tools/
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool puts src/ first
    spec = importlib.util.spec_from_file_location("tools_greedy_crossover", TOOL)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_the_crossover_replay_splits_the_covers_and_times_every_loop_call(monkeypatch, capsys):
    tool = _tool(monkeypatch)
    assert tool.main(["--n", "32", "--repeats", "1", "--max-cells", "100000"]) == 0
    split, header, *rows = capsys.readouterr().out.splitlines()
    counts = re.fullmatch(
        r"greedy covers: (\d+); one-pick (\d+), int (\d+), numpy (\d+) \(_INT_CELLS = (\d+)\)", split).groups()
    total, one_pick, int_calls, numpy_calls, int_cells = map(int, counts)
    assert total == one_pick + int_calls + numpy_calls
    assert min(one_pick, int_calls, numpy_calls) > 0
    assert int_cells == constructions._INT_CELLS
    assert header.split() == ["cells", "calls", "int_s", "numpy_s", "int/numpy"]
    # Every loop call is replayed (none is above the cell cap), one bucket
    # of 128 cells a row, in ascending order.
    buckets = [tuple(map(int, row.split()[0].split("-"))) for row in rows]
    assert all(hi == lo + 127 and (lo - 1) % 128 == 0 for lo, hi in buckets)
    assert buckets == sorted(set(buckets))
    assert sum(int(row.split()[1]) for row in rows) == int_calls + numpy_calls
