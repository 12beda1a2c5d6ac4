"""Fig. 12 — heuristic execution time vs network size.

Paper: the heuristic stays tractable far past the ILP's limit, running
in ~124 s even on the 5120-node (64-k) fat-tree; for networks larger
than the recommended 80-node zones it "performs significantly better
than the optimization algorithm".

The regenerated series reports heuristic runtime per size next to the
zone-scale ILP time so the crossover is visible.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.heuristic import solve_heuristic
from repro.core.placement import PlacementProblem
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import ExperimentResult, IterationSampler
from repro.topology.fattree import build_fat_tree

DEFAULT_SCALES: Tuple[Tuple[int, int], ...] = ((4, 10), (8, 5), (16, 3), (32, 2), (64, 1))


def heuristic_time_at_scale(
    k: int,
    iterations: int,
    seed: int = 0,
    policy: Optional[ThresholdPolicy] = None,
) -> Tuple[float, float, int]:
    """(mean heuristic seconds, mean HFR %, busy count of last state).

    The point builds its own mutable fat-tree from the memoized
    blueprint, and the iteration stream depends only on ``seed``, so a
    point samples the same network states whichever points ran before.
    """
    policy = policy or ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
    times, hfrs, busy_count = [], [], 0
    for _, capacities in sampler.states(iterations):
        problem = PlacementProblem.from_loads(topology, capacities, policy)
        if not problem.busy or not problem.candidates:
            continue
        busy_count = len(problem.busy)
        report = solve_heuristic(problem)
        times.append(report.total_seconds)
        hfrs.append(report.hfr_pct)
    return (
        float(np.mean(times)) if times else float("nan"),
        float(np.mean(hfrs)) if hfrs else float("nan"),
        busy_count,
    )


def run(
    scales: Sequence[Tuple[int, int]] = DEFAULT_SCALES,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 12's heuristic-runtime-vs-size series.

    Scale points run one after the other in the calling process, each
    on its own fat-tree (see :func:`heuristic_time_at_scale`).
    """
    start = time.perf_counter()
    rows = []
    for k, iterations in scales:
        mean_s, hfr, busy = heuristic_time_at_scale(k, iterations, seed=seed)
        nodes = 5 * k * k // 4
        rows.append((f"{k}-k", nodes, mean_s, hfr, busy))
    return ExperimentResult(
        experiment_id="fig12",
        title="Heuristic execution time vs network size",
        columns=("fat-tree", "nodes", "mean heuristic s", "mean HFR %", "busy nodes (last)"),
        rows=tuple(rows),
        paper_claim="heuristic completes in ~124 s at 5120 nodes, far below ILP blow-up",
        observations=f"largest network solved in {rows[-1][2]:.2f}s",
        elapsed_s=time.perf_counter() - start,
        params=(("seed", seed),),
    )
