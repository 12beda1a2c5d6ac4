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

For a workload that runs a simulation engine (both churn workloads and
the soak) it also prints the engine events per profiled unit and the
Python-level calls per event. Those are counts, not times, so cProfile's
per-call cost does not inflate them: a change to the message path can
size itself by the calls it removes per event.

pytest does not collect this file; ``tests/tools/test_profile_unit.py``
runs it at k = 4 on both churn workloads and on ``soak_chaos_k8``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib.util
import pstats
import sys
import time
from pathlib import Path
from typing import List, Optional, Tuple

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


def _engine_events(bench) -> Optional[int]:
    """Events the workload's engine has processed: a churn workload
    keeps one engine, a soak unit builds its own (``result.engine``).
    ``None`` when there is none."""
    engine = getattr(bench, "engine", None)
    if engine is None:
        engine = getattr(getattr(bench, "result", None), "engine", None)
    return None if engine is None else engine.events_processed


def profile_units(
    workload: str, units: int, seed: int, smoke: bool
) -> Tuple[cProfile.Profile, Optional[int]]:
    """Profile of ``units`` measured units after the unprofiled warm-up,
    and the engine events they processed (``None`` with no engine)."""
    bench = load_workloads().build(workload, seed, smoke)
    bench.setup()
    for u in range(WARMUP_UNITS):
        bench.prepare(u)
        bench.unit(u)
        bench.after(u)
    bench.start_measuring()
    profile = cProfile.Profile()
    events: Optional[int] = None
    for u in range(WARMUP_UNITS, WARMUP_UNITS + units):
        bench.prepare(u)
        before = _engine_events(bench) or 0  # a soak unit starts a fresh engine
        profile.enable()
        bench.unit(u)
        profile.disable()
        after = _engine_events(bench)
        if after is not None:
            events = (events or 0) + after - before
        bench.after(u)
    bench.finish()
    return profile, events


def python_calls(profile: cProfile.Profile) -> int:
    """Calls of Python-level functions in ``profile`` (builtins, which
    cProfile files under ``~``, left out)."""
    stats = pstats.Stats(profile)
    return sum(row[1] for func, row in stats.stats.items() if func[0] != "~")


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
    profile, events = profile_units(args.workload, args.units, args.seed, args.smoke)
    print(f"{args.workload}: {args.units} profiled units after {WARMUP_UNITS} warm-up "
          f"(seed {args.seed}{', smoke' if args.smoke else ''}), "
          f"{time.perf_counter() - began:.1f} s wall")
    if events:
        print(f"{events / args.units:.1f} engine events per unit, "
              f"{python_calls(profile) / events:.2f} Python calls per event")
    print(report(profile, args.sort))
    return 0


if __name__ == "__main__":
    sys.exit(main())
