"""Benchmark the vectorized Algorithm-1 heuristic kernel.

Measures, on a fig12-style fat-tree instance (k=16; k=4 with
``--smoke``), best-of-N wall time for:

* ``solve_heuristic`` — the CSR gather + ``np.lexsort`` kernel;
* ``tests.oracles.solve_heuristic_reference`` — the per-busy-node
  loop the test suite uses as its oracle.

Every timed kernel run is compared field-for-field (assignments,
offloaded/failed maps, HFR) against the reference on the same problem;
any disagreement makes the script exit non-zero. The full run gates on
the kernel being at least ``--min-speedup`` (default 5x) faster at
k=16; ``--smoke`` records the ratio without gating, since a 20-node
instance is too small to amortize the kernel's fixed numpy overhead.
Results land in ``BENCH_heuristic.json`` — regenerate with::

    PYTHONPATH=src python benchmarks/bench_heuristic_kernel.py

Honest-numbers note: timings come from whatever box runs this; the
recorded ``cpu_count`` and best-of-N protocol make cross-box numbers
comparable but not identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List

from repro.core.heuristic import solve_heuristic
from repro.core.placement import PlacementProblem
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import IterationSampler
from repro.topology.fattree import build_fat_tree

# The comparator lives with the test oracles, outside the package.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from tests.oracles import solve_heuristic_reference  # noqa: E402


def build_problem(k: int, seed: int) -> PlacementProblem:
    """One fig12-style placement instance on a ``k``-ary fat-tree."""
    policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
    for _, capacities in sampler.states(1):
        problem = PlacementProblem.from_loads(topology, capacities, policy)
        if not problem.busy or not problem.candidates:
            raise RuntimeError(f"seed {seed} produced a degenerate state")
        return problem
    raise RuntimeError("sampler yielded no states")


def reports_identical(kernel, reference) -> bool:
    if (
        kernel.hfr_pct != reference.hfr_pct
        or kernel.offloaded_per_busy != reference.offloaded_per_busy
        or kernel.failed_per_busy != reference.failed_per_busy
        or len(kernel.assignments) != len(reference.assignments)
    ):
        return False
    for a, b in zip(kernel.assignments, reference.assignments):
        if (
            a.busy != b.busy
            or a.candidate != b.candidate
            or a.amount_pct != b.amount_pct
            or a.response_time_s != b.response_time_s
            or a.hops != b.hops
            or a.route.nodes != b.route.nodes
            or a.route.edges != b.route.edges
        ):
            return False
    return True


def timed(fn, repeats: int) -> float:
    """Best-of-N wall time (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixture (4-k fat-tree), no speedup gate",
    )
    parser.add_argument("--repeats", type=int, default=7, help="best-of-N timing")
    parser.add_argument(
        "--seeds", type=int, default=3, help="independent problem instances"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required kernel-vs-reference ratio at k=16 (full run only)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_heuristic.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    k = 4 if args.smoke else 16
    repeats = 1 if args.smoke else max(1, args.repeats)

    failures: List[str] = []
    instances = []
    kernel_best = reference_best = float("inf")
    for seed in range(max(1, args.seeds)):
        problem = build_problem(k, seed)
        reference_report = solve_heuristic_reference(problem)
        if not reports_identical(solve_heuristic(problem), reference_report):
            failures.append(f"seed {seed}: kernel disagrees with reference")
        kernel_s = timed(lambda: solve_heuristic(problem), repeats)
        reference_s = timed(lambda: solve_heuristic_reference(problem), repeats)
        kernel_best = min(kernel_best, kernel_s)
        reference_best = min(reference_best, reference_s)
        instances.append(
            {
                "seed": seed,
                "busy": len(problem.busy),
                "candidates": len(problem.candidates),
                "kernel_s": kernel_s,
                "reference_s": reference_s,
                "speedup": reference_s / kernel_s if kernel_s else None,
            }
        )

    speedup = reference_best / kernel_best if kernel_best else float("inf")
    gated = not args.smoke
    if gated and speedup < args.min_speedup:
        failures.append(
            f"kernel speedup {speedup:.2f}x at k={k} is below the "
            f"{args.min_speedup:.1f}x gate"
        )

    report = {
        "bench": "heuristic_kernel",
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "fixture": {"topology": f"fat-tree k={k}", "repeats": repeats},
        "instances": instances,
        "kernel_best_s": kernel_best,
        "reference_best_s": reference_best,
        "speedup": speedup,
        "min_speedup_gate": args.min_speedup if gated else None,
        "bit_identical": not any("disagrees" in f for f in failures),
        "passed": not failures,
    }
    if failures:
        report["failures"] = failures

    path = os.path.abspath(args.output)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
    print(json.dumps(report, indent=2))
    print(f"report written to {path}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
