#!/usr/bin/env python
"""Heuristic vs ILP trade-off study across network sizes.

Sweeps fat-tree sizes, comparing Algorithm 1 against the Eq. 3 optimum
on solution quality (beta, HFR) and runtime — the trade-off behind the
paper's recommendation to zone networks at <= 80 nodes.

Run with::

    python examples/heuristic_vs_ilp.py
"""

import numpy as np

from repro import PlacementEngine, ThresholdPolicy, build_fat_tree, solve_heuristic
from repro.core import PlacementProblem
from repro.experiments.common import IterationSampler, render_table
from repro.routing import PathEngine, ResponseTimeModel


def study(k: int, iterations: int, seed: int = 0):
    policy = ThresholdPolicy(c_max=80.0, co_max=40.0, x_min=10.0)
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
    max_hops = 6 if k <= 8 else 4
    ilp = PlacementEngine(
        response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=max_hops),
        with_routes=False,
    )
    ilp_times, heur_times, hfrs, gaps = [], [], [], []
    for _, capacities in sampler.states(iterations):
        problem = PlacementProblem.from_loads(topology, capacities, policy, max_hops=max_hops)
        if not problem.busy or not problem.candidates:
            continue
        report = ilp.solve(problem)
        heuristic = solve_heuristic(problem)
        ilp_times.append(report.total_seconds)
        heur_times.append(heuristic.total_seconds)
        hfrs.append(heuristic.hfr_pct)
        if report.feasible and heuristic.fully_offloaded and report.objective_beta > 0:
            heur_beta = sum(a.amount_pct * a.response_time_s for a in heuristic.assignments)
            gaps.append(100.0 * (heur_beta - report.objective_beta) / report.objective_beta)
    return (
        float(np.mean(ilp_times)),
        float(np.mean(heur_times)),
        float(np.mean(hfrs)),
        float(np.mean(gaps)) if gaps else float("nan"),
    )


def main() -> None:
    rows = []
    for k, iterations in ((4, 20), (8, 8), (16, 3)):
        ilp_s, heur_s, hfr, gap = study(k, iterations)
        rows.append((f"{k}-k", 5 * k * k // 4, ilp_s, heur_s,
                     ilp_s / heur_s if heur_s else float("nan"), hfr, gap))
    print(render_table(
        ("fat-tree", "nodes", "ILP s", "heuristic s", "speedup x",
         "HFR %", "beta gap % (full offloads)"),
        rows,
    ))
    print("\nreading: the heuristic is orders of magnitude faster but fails to "
          "place part of the load (HFR) and pays a response-time premium when "
          "it does succeed — the paper's Fig. 9/11/12 trade-off.")


if __name__ == "__main__":
    main()
