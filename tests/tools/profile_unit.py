"""cProfile the measured units of one end-to-end benchmark workload.

    python tests/tools/profile_unit.py --workload lp_churn_k16 --units 20
    python tests/tools/profile_unit.py --workload soak_chaos_k8 --units 3 --sort tottime
    python tests/tools/profile_unit.py --workload lp_churn_k16 --units 2 --smoke

It builds the workload from ``benchmarks/e2e/workloads.py`` (imported,
not changed), runs its set-up and three warm-up units unprofiled, then
profiles ``--units`` units the way a benchmark pass times them:
``prepare`` outside, ``unit`` inside, ``after`` outside. It prints the
top 40 functions by ``--sort`` (``cumulative`` by default; any
:mod:`pstats` key), each with its cumulative and own share of the
profiled unit time. ``--smoke`` builds the benchmark's k = 4 shape. cProfile charges a cost
to every Python call, so read the shares as where to look, and measure
a change with ``benchmarks/e2e/run.py``.

pytest does not collect this file; ``tests/tools/test_profile_unit.py``
runs it at k = 4 on ``lp_churn_k16`` and ``dist_churn_k16``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import pstats
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[2]
WORKLOADS_PY = ROOT / "benchmarks" / "e2e" / "workloads.py"
WARMUP_UNITS = 3
ROWS = 40


def load_workloads():
    """``benchmarks/e2e/workloads.py`` as a module of its own name."""
    spec = importlib.util.spec_from_file_location("e2e_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def profile_units(workload: str, units: int, seed: int, smoke: bool) -> cProfile.Profile:
    """Profile of ``units`` measured units after the unprofiled warm-up."""
    bench = load_workloads().build(workload, seed, smoke)
    bench.setup()
    for u in range(WARMUP_UNITS):
        bench.prepare(u)
        bench.unit(u)
        bench.after(u)
    bench.start_measuring()
    profile = cProfile.Profile()
    for u in range(WARMUP_UNITS, WARMUP_UNITS + units):
        bench.prepare(u)
        profile.enable()
        bench.unit(u)
        profile.disable()
        bench.after(u)
    bench.finish()
    return profile


def report(profile: cProfile.Profile, sort: str) -> str:
    """The top :data:`ROWS` functions by ``sort``, each with its
    cumulative and own time as a share of the profiled unit time."""
    stats = pstats.Stats(profile)
    stats.sort_stats(sort)
    # The workload's ``unit`` calls are the roots: their cumulative time
    # is the profiled unit time.
    total = max(row[3] for row in stats.stats.values()) or 1e-12
    lines = [f"{total * 1e3:.1f} ms profiled unit time",
             f"{'cum %':>6} {'own %':>6} {'calls':>8}  function"]
    for func in stats.fcn_list[:ROWS]:
        _, calls, own, cumulative, _ = stats.stats[func]
        name = pstats.func_std_string(func).replace(f"{ROOT}/", "")
        lines.append(f"{100 * cumulative / total:6.1f} {100 * own / total:6.1f} {calls:8d}  {name}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="lp_churn_k16, dist_churn_k16, fig11_sweep_k8 or soak_chaos_k8")
    parser.add_argument("--units", type=int, required=True, help="profiled units")
    parser.add_argument("--sort", default="cumulative", help="pstats sort key")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true", help="the k = 4 shape")
    args = parser.parse_args(argv)
    if args.units < 1:
        parser.error("need --units >= 1")
    began = time.perf_counter()
    profile = profile_units(args.workload, args.units, args.seed, args.smoke)
    print(f"{args.workload}: {args.units} profiled units after {WARMUP_UNITS} warm-up "
          f"(seed {args.seed}{', smoke' if args.smoke else ''}), "
          f"{time.perf_counter() - began:.1f} s wall")
    print(report(profile, args.sort))
    return 0


if __name__ == "__main__":
    sys.exit(main())
