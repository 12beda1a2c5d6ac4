"""Benchmark the warm-started LP solve layer behind PlacementSession.

Two scenarios, both self-checking (any disagreement exits non-zero,
CI runs ``--smoke``):

* **session re-solve** — a fig11-scale placement instance (8-k
  fat-tree; 4-k with ``--smoke``) is solved cold, then one busy node's
  excess load is perturbed *without* changing the busy/candidate sets
  and re-solved through a :class:`PlacementSession`. The session must
  register a warm hit and the warm LP re-solve must beat the cold solve
  of the same perturbed instance (LP seconds only; both sides price
  their routes afresh). Cold, warm and scipy (HiGHS) objectives must
  agree to 1e-6.
* **branch & bound** — integral placement-shaped ILPs with
  heterogeneous capacity coefficients (which break total unimodularity
  and force real branching) are solved with and without the
  parent-basis dual-simplex restart; warm must spend strictly fewer
  total pivots for identical optima.

Results land in ``BENCH_lp.json`` — regenerate with::

    PYTHONPATH=src python benchmarks/bench_lp_warmstart.py

Honest-numbers note: wall-clock speedups depend on the host;
``cpu_count`` is recorded, and the pivot counts (machine-independent)
are reported next to every timing so the mechanism is auditable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.placement import (
    PlacementEngine,
    PlacementProblem,
    PlacementSession,
)
from repro.core.roles import classify_network
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import IterationSampler
from repro.lp import LinearProgram, lp_sum, solve_branch_and_bound, solve_scipy
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree

_OBJ_TOL = 1e-6


def timed(fn, repeats: int) -> float:
    """Best-of-N wall time (seconds) of ``fn``'s *last* timed section.

    ``fn`` returns the seconds to count for one repeat, so callers can
    run untimed setup (e.g. re-priming a session basis) inside ``fn``.
    """
    best = float("inf")
    for _ in range(repeats):
        best = min(best, fn())
    return best


def build_placement_fixture(
    smoke: bool, seed: int = 0
) -> Tuple[PlacementProblem, PlacementProblem, int]:
    """(base problem, perturbed problem, fat-tree k).

    The perturbation scales one busy node's excess load — a single-node
    utilization change — leaving the busy/candidate sets (and hence the
    session key and the topology hash) untouched.
    """
    k = 4 if smoke else 8
    policy = ThresholdPolicy(c_max=80.0, co_max=35.0, x_min=10.0)
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
    for _, capacities in sampler.states(200):
        roles = classify_network(capacities, policy)
        busy, candidates = roles.busy, roles.candidates
        if len(busy) < 2 or len(candidates) < 4:
            continue
        cs = np.array([policy.excess_load(capacities[b]) for b in busy])
        cd = np.array([policy.spare_capacity(capacities[c]) for c in candidates])
        if cs.sum() <= cd.sum():  # enough spare capacity => feasible
            break
    else:
        raise RuntimeError("sampler produced no feasible busy/candidate split")
    base = dict(
        topology=topology,
        busy=tuple(busy),
        candidates=tuple(candidates),
        cd=cd,
        data_mb=np.full(len(busy), 10.0),
    )
    problem = PlacementProblem(**base, cs=cs)
    cs_perturbed = cs.copy()
    cs_perturbed[0] *= 0.85  # shrink: stays feasible if the base was
    perturbed = PlacementProblem(**base, cs=cs_perturbed)
    return problem, perturbed, k


def bench_session(
    smoke: bool, repeats: int, failures: List[str]
) -> Dict:
    problem, perturbed, k = build_placement_fixture(smoke)
    model = ResponseTimeModel(engine=PathEngine.DP, max_hops=None)
    session = PlacementSession(
        engine=PlacementEngine(response_model=model, with_routes=False)
    )
    cold_engine = PlacementEngine(response_model=model, with_routes=False)

    cold = cold_engine.solve(perturbed)
    if not cold.feasible:
        failures.append("session: cold solve of the perturbed instance infeasible")
        return {}

    def one_cold() -> float:
        report = cold_engine.solve(perturbed)
        if abs(report.objective_beta - cold.objective_beta) > _OBJ_TOL:
            failures.append("session: cold re-solve changed the objective")
        return report.lp_seconds

    cold_lp_s = timed(one_cold, repeats)

    warm_report = None

    def one_warm() -> float:
        nonlocal warm_report
        session.solve(problem)  # untimed: prime the basis on the base state
        t0 = time.perf_counter()
        warm_report = session.solve(perturbed)
        elapsed = time.perf_counter() - t0
        return min(elapsed, warm_report.lp_seconds + warm_report.trmin_seconds)

    warm_total_s = timed(one_warm, repeats)
    warm_lp_s = warm_report.lp_seconds

    if not warm_report.feasible:
        failures.append("session: warm solve infeasible")
        return {}
    if abs(warm_report.objective_beta - cold.objective_beta) > _OBJ_TOL:
        failures.append(
            "session: warm objective "
            f"{warm_report.objective_beta!r} != cold {cold.objective_beta!r}"
        )
    if not warm_report.lp_warm_started:
        failures.append("session: perturbed re-solve did not warm-start")
    if session.warm_hits < repeats:
        failures.append(
            f"session: {session.warm_hits} warm hits over {repeats} repeats"
        )

    scipy_engine = PlacementEngine(
        response_model=model, lp_backend="scipy", with_routes=False
    )
    scipy_report = scipy_engine.solve(perturbed)
    if abs(scipy_report.objective_beta - cold.objective_beta) > _OBJ_TOL:
        failures.append(
            "session: scipy objective "
            f"{scipy_report.objective_beta!r} != cold {cold.objective_beta!r}"
        )

    return {
        "fixture": {
            "topology": f"fat-tree k={k}",
            "busy": len(problem.busy),
            "candidates": len(problem.candidates),
        },
        "cold_lp_s": cold_lp_s,
        "cold_pivots": cold.lp_iterations,
        "warm_lp_s": warm_lp_s,
        # Whole warm re-solve: the LP plus a real route pricing call.
        "warm_resolve_s": warm_total_s,
        "warm_pivots": warm_report.lp_iterations,
        "warm_speedup": cold_lp_s / warm_lp_s if warm_lp_s else None,
        "objective": cold.objective_beta,
        "scipy_objective": scipy_report.objective_beta,
        "warm_hits": session.warm_hits,
        "warm_attempts": session.warm_attempts,
    }


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
        help="small fixture (4-k fat-tree), finishes well under 60 s",
    )
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N timing")
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_lp.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    repeats = max(1, args.repeats if not args.smoke else 2)

    failures: List[str] = []
    report = {
        "bench": "lp_warmstart",
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "session_resolve": bench_session(args.smoke, repeats, failures),
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
