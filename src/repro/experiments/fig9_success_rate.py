"""Fig. 9 — heuristic vs optimization success split on the 4-k fat-tree.

Paper: over 100 iterations, the one-hop heuristic fully offloaded every
overloaded node in 18.37% of iterations, placed nothing (while the ILP
succeeded) in 6.13%, and partially offloaded in the remaining 75.5%.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.heuristic import solve_heuristic
from repro.core.metrics import (
    SuccessCategory,
    categorize_iteration,
    summarize_categories,
)
from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import ExperimentResult, IterationSampler
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree


def run(
    iterations: int = 100,
    seed: int = 0,
    c_max: float = 80.0,
    co_max: float = 50.0,
    x_min: float = 10.0,
    max_hops: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 9's three-way split."""
    start = time.perf_counter()
    policy = ThresholdPolicy(c_max=c_max, co_max=co_max, x_min=x_min)
    topology = build_fat_tree(4)
    sampler = IterationSampler(topology, x_min=x_min, seed=seed)
    ilp_engine = PlacementEngine(
        response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=max_hops),
        with_routes=False,
    )
    categories = []
    hfrs = []
    for _, capacities in sampler.states(iterations):
        problem = PlacementProblem.from_loads(topology, capacities, policy, max_hops=max_hops)
        if not problem.busy:
            categories.append(SuccessCategory.NO_OVERLOAD)
            continue
        heuristic = solve_heuristic(problem)
        ilp = ilp_engine.solve(problem)
        categories.append(categorize_iteration(heuristic, ilp))
        hfrs.append(heuristic.hfr_pct)
    summary = summarize_categories(categories)
    rows = (
        (
            "heuristic full offload",
            summary.counts.get(SuccessCategory.HEURISTIC_FULL, 0),
            summary.pct(SuccessCategory.HEURISTIC_FULL),
            18.37,
        ),
        (
            "heuristic zero / ILP success",
            summary.counts.get(SuccessCategory.HEURISTIC_ZERO, 0),
            summary.pct(SuccessCategory.HEURISTIC_ZERO),
            6.13,
        ),
        (
            "partial (heuristic + ILP remainder)",
            summary.counts.get(SuccessCategory.PARTIAL, 0),
            summary.pct(SuccessCategory.PARTIAL),
            75.5,
        ),
    )
    return ExperimentResult(
        experiment_id="fig9",
        title="Heuristic vs ILP success split (4-k fat-tree)",
        columns=("category", "count", "measured %", "paper %"),
        rows=rows,
        paper_claim="18.37% heuristic-full / 6.13% heuristic-zero / 75.5% partial",
        observations=(
            f"partial dominates ({summary.pct(SuccessCategory.PARTIAL):.1f}%), "
            f"full ({summary.pct(SuccessCategory.HEURISTIC_FULL):.1f}%) > "
            f"zero ({summary.pct(SuccessCategory.HEURISTIC_ZERO):.1f}%); "
            f"mean HFR {np.mean(hfrs):.1f}%"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(("iterations", iterations), ("seed", seed), ("c_max", c_max), ("co_max", co_max)),
    )
