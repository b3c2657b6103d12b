"""Replay the greedy covers of a protocol context build on both greedy loops,
to place ``constructions._INT_CELLS``, the crossover between them.

The context container of a seed-2 planar domain (``build_container`` at
eps0 = 1/8, as ``shared_protocol_context`` builds it) is built once with
every ``_greedy_assignment`` call recorded, along with the path it took:
the one-pick meet, the int loop or the numpy loop.  Each recorded call that
reached a loop and has at most ``--max-cells`` serving cells (candidates x
heavy ranges) is then run on both loops, from the candidate set through
the candidate order and the loop, best of ``--repeats`` per call; both
loops must return the same witness map and pieces.  The output gives the
split of the calls over the three paths, and for each bucket of 128
cells the calls, both loops' summed times and the int/numpy time ratio.
The domain is the benchmark's: ``perfbench/workloads.pick_domain(n, 2)``.

Run from the repo root:

    python3 tools/greedy_crossover.py [--n 256] [--repeats 9] [--max-cells 1280]
"""

import argparse
import sys
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True  # no cache files under perfbench/

import bracketkit as bk  # noqa: E402
from bracketkit import constructions  # noqa: E402
from bracketkit.constructions import _candidates  # noqa: E402
from bracketkit.bitsets import pack_masks  # noqa: E402
from bracketkit.setsystem import canonical_rows, canonical_sort  # noqa: E402
from workloads import EPS0, pick_domain  # noqa: E402

SEED = 2
BUCKET = 128  # serving cells per row of the table


def record_covers(system):
    """Every greedy cover of the context build, in call order, as
    [heavy, lam, width, path]."""
    calls = []
    greedy, int_loop, numpy_loop = (constructions._greedy_assignment, constructions._int_greedy_cover,
                                    constructions._numpy_greedy_cover)

    def recording(heavy, lam, width):
        calls.append([heavy, lam, width, "one-pick"])
        return greedy(heavy, lam, width)

    def routed(loop, path):
        def run(*args):
            calls[-1][3] = path
            return loop(*args)
        return run

    with mock.patch.object(constructions, "_greedy_assignment", recording), \
            mock.patch.object(constructions, "_int_greedy_cover", routed(int_loop, "int")), \
            mock.patch.object(constructions, "_numpy_greedy_cover", routed(numpy_loop, "numpy")):
        bk.build_container(system, EPS0, bk.default_provider())
    return calls


def _int_path(heavy, lam, width):
    return constructions._int_greedy_cover(canonical_sort(_candidates(heavy)), heavy, lam)


def _numpy_path(heavy, lam, width):
    cands = canonical_rows(pack_masks(list(_candidates(heavy)), width))
    return constructions._numpy_greedy_cover(cands, heavy, pack_masks(heavy, width), lam)


def _best_time(run, args, repeats):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


def replay(calls, repeats, max_cells):
    """Rows (low cells, high cells, calls, int s, numpy s), one per
    non-empty bucket, of the recorded loop calls up to ``max_cells``."""
    rows = {}
    for heavy, lam, width, path in calls:
        cells = len(_candidates(heavy)) * len(heavy)
        if path == "one-pick" or cells > max_cells:
            continue
        int_s, int_out = _best_time(_int_path, (heavy, lam, width), repeats)
        numpy_s, numpy_out = _best_time(_numpy_path, (heavy, lam, width), repeats)
        if list(int_out[0].items()) != list(numpy_out[0].items()) or int_out[1] != numpy_out[1]:
            raise SystemExit(f"the loops differ on a cover of {cells} cells")
        row = rows.setdefault((cells - 1) // BUCKET, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += int_s
        row[2] += numpy_s
    return [(k * BUCKET + 1, (k + 1) * BUCKET, *rows[k]) for k in sorted(rows)]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256, help="points of the planar domain")
    parser.add_argument("--repeats", type=int, default=9, help="timed runs per call and loop; the best counts")
    parser.add_argument("--max-cells", type=int, default=1280, help="largest cover replayed, in serving cells")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    calls = record_covers(pick_domain(args.n, SEED)[1])
    paths = [call[3] for call in calls]
    print(f"greedy covers: {len(calls)}; one-pick {paths.count('one-pick')}, "
          f"int {paths.count('int')}, numpy {paths.count('numpy')} (_INT_CELLS = {constructions._INT_CELLS})")
    print("       cells  calls    int_s  numpy_s  int/numpy")
    for lo, hi, count, int_s, numpy_s in replay(calls, args.repeats, args.max_cells):
        print(f"{lo:>6}-{hi:<6} {count:5d} {int_s:8.4f} {numpy_s:8.4f} {int_s / numpy_s:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
