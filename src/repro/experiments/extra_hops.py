"""Extra study: hop counts to offload destinations (ILP vs heuristic).

The paper lists "the number of hops required to reach the destination"
among its comparison parameters but shows no dedicated figure for it.
This extra experiment fills the gap: load-weighted mean hop counts of
the ILP's chosen routes under different max-hop budgets, against the
heuristic's fixed single hop, plus the response-time premium the
one-hop restriction costs.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.heuristic import solve_heuristic
from repro.core.metrics import mean_hops
from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import ExperimentResult, IterationSampler
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree

DEFAULT_BUDGETS: Tuple[Optional[int], ...] = (2, 4, 6, None)


def run(
    iterations: int = 50,
    budgets: Sequence[Optional[int]] = DEFAULT_BUDGETS,
    k: int = 4,
    seed: int = 0,
) -> ExperimentResult:
    """Measure mean hops and beta for ILP budgets vs Algorithm 1."""
    start = time.perf_counter()
    policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)

    per_budget_hops = {b: [] for b in budgets}
    per_budget_beta = {b: [] for b in budgets}
    heuristic_beta, heuristic_hfr = [], []

    engines = {
        b: PlacementEngine(
            response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=b),
        )
        for b in budgets
    }

    for _, capacities in sampler.states(iterations):
        problem = PlacementProblem.from_loads(topology, capacities, policy)
        if not problem.busy or not problem.candidates:
            continue
        for budget in budgets:
            report = engines[budget].solve(replace(problem, max_hops=budget))
            if report.feasible and report.assignments:
                per_budget_hops[budget].append(mean_hops(report))
                per_budget_beta[budget].append(report.objective_beta)
        heuristic = solve_heuristic(problem)
        if heuristic.assignments:
            beta = sum(a.amount_pct * a.response_time_s for a in heuristic.assignments)
            heuristic_beta.append(beta)
        heuristic_hfr.append(heuristic.hfr_pct)

    rows = []
    for budget in budgets:
        hops_list = per_budget_hops[budget]
        beta_list = per_budget_beta[budget]
        rows.append((
            f"ILP max-hop {budget if budget is not None else 'none'}",
            float(np.mean(hops_list)) if hops_list else float("nan"),
            float(np.mean(beta_list)) if beta_list else float("nan"),
            0.0,
        ))
    rows.append((
        "heuristic (Algorithm 1)",
        1.0,
        float(np.mean(heuristic_beta)) if heuristic_beta else float("nan"),
        float(np.mean(heuristic_hfr)) if heuristic_hfr else float("nan"),
    ))
    return ExperimentResult(
        experiment_id="hops",
        title="Mean hops to offload destination: ILP budgets vs heuristic",
        columns=("strategy", "mean hops (load-weighted)", "mean beta (s)", "mean HFR %"),
        rows=tuple(rows),
        paper_claim=(
            "hops-to-destination is one of the paper's comparison parameters; "
            "no dedicated figure (extra study)"
        ),
        observations=(
            "tighter hop budgets shrink mean hops; the heuristic's 1-hop "
            "restriction trades HFR for locality"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(("iterations", iterations), ("k", k), ("seed", seed)),
    )
