"""Benchmark branch-and-bound's parent-basis restart (the one LP warm start).

Self-checking (any disagreement exits non-zero, CI runs ``--smoke``):
integral placement-shaped ILPs with heterogeneous capacity coefficients
(which break total unimodularity and force real branching) are solved
with and without the parent-basis dual-simplex restart; warm must spend
strictly fewer total pivots for identical optima, and both must match
scipy (HiGHS) to 1e-6.

This is a restart of a *child* relaxation from its *parent* inside one
solve. Nothing is carried between Eq.-3 solves: the cross-solve warm
start this file used to time was offered a basis in 104 of the 1 904
solves of the ``benchmarks/e2e`` workloads and used it in 3 (DESIGN.md,
"No LP state between solves").

Results land in ``BENCH_lp.json`` — regenerate with::

    PYTHONPATH=src python benchmarks/bench_lp_warmstart.py

Honest-numbers note: wall-clock depends on the host; ``cpu_count`` is
recorded, and the pivot counts (machine-independent) are what the gate
reads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.lp import LinearProgram, lp_sum, solve_branch_and_bound, solve_scipy

_OBJ_TOL = 1e-6


def build_ilp(seed: int, m: int, n: int) -> Optional[LinearProgram]:
    """A placement-shaped ILP whose relaxation is fractional.

    Heterogeneous capacity coefficients break the transportation
    matrix's total unimodularity, so branch and bound has real work to
    do; capacities are sized to bind without (usually) going
    infeasible. Returns ``None`` for the occasional infeasible draw.
    """
    rng = np.random.default_rng(seed)
    cost = rng.uniform(1.0, 10.0, (m, n))
    coeff = rng.uniform(0.6, 1.7, (m, n))
    supply = rng.integers(2, 8, m).astype(float)
    cap = np.full(n, float(supply.sum()) * float(coeff.mean()) * 1.25 / n)
    lp = LinearProgram(f"bench-ilp-{seed}")
    x = {
        (i, j): lp.add_variable(f"x_{i}_{j}", is_integer=True)
        for i in range(m)
        for j in range(n)
    }
    for i in range(m):
        lp.add_constraint(
            lp_sum(x[(i, j)] for j in range(n)) == float(supply[i]),
            name=f"supply_{i}",
        )
    for j in range(n):
        lp.add_constraint(
            lp_sum(float(coeff[i, j]) * x[(i, j)] for i in range(m))
            <= float(cap[j]),
            name=f"capacity_{j}",
        )
    lp.set_objective(
        lp_sum(float(cost[i, j]) * x[(i, j)] for (i, j) in x)
    )
    if not solve_scipy(lp).status.is_optimal:
        return None
    return lp


def bench_branch_and_bound(
    smoke: bool, failures: List[str]
) -> Dict:
    seeds = range(3) if smoke else range(12)
    m, n = (3, 4) if smoke else (4, 5)
    cold_pivots = warm_pivots = 0
    cold_s = warm_s = 0.0
    instances = 0
    for seed in seeds:
        lp = build_ilp(seed, m, n)
        if lp is None:
            continue
        instances += 1
        t0 = time.perf_counter()
        cold = solve_branch_and_bound(lp, warm_start=False)
        cold_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = solve_branch_and_bound(lp, warm_start=True)
        warm_s += time.perf_counter() - t0
        reference = solve_scipy(lp)
        for label, sol in (("cold", cold), ("warm", warm)):
            if sol.status is not reference.status:
                failures.append(
                    f"bnb seed {seed}: {label} status {sol.status} "
                    f"!= scipy {reference.status}"
                )
            elif sol.status.is_optimal and abs(
                sol.objective - reference.objective
            ) > _OBJ_TOL:
                failures.append(
                    f"bnb seed {seed}: {label} objective {sol.objective!r} "
                    f"!= scipy {reference.objective!r}"
                )
        cold_pivots += cold.total_pivots
        warm_pivots += warm.total_pivots
    if instances == 0:
        failures.append("bnb: every fixture draw was infeasible")
        return {}
    if warm_pivots >= cold_pivots:
        failures.append(
            f"bnb: warm start did not reduce pivots "
            f"({warm_pivots} vs {cold_pivots})"
        )
    return {
        "instances": instances,
        "shape": [m, n],
        "cold_total_pivots": cold_pivots,
        "warm_total_pivots": warm_pivots,
        "pivot_reduction_pct": 100.0 * (1.0 - warm_pivots / cold_pivots)
        if cold_pivots
        else None,
        "cold_s": cold_s,
        "warm_s": warm_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="three 3 x 4 instances, finishes well under 60 s",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_lp.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    failures: List[str] = []
    report = {
        "bench": "lp_warmstart",
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "branch_and_bound": bench_branch_and_bound(args.smoke, failures),
    }
    report["self_check_passed"] = not failures
    if failures:
        report["failures"] = failures

    path = os.path.abspath(args.output)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"\nwrote {path}", file=sys.stderr)
    if failures:
        print("SELF-CHECK FAILURES:\n" + "\n".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
