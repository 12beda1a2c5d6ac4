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
from repro.core.roles import classify_network
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import ExperimentResult, IterationSampler, run_sharded_sweep
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
    blueprint, so a pool worker needs nothing but ``k`` and ``seed``.
    The iteration stream depends only on ``seed``, so the sharded and
    serial runs sample identical network states.
    """
    policy = policy or ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
    times, hfrs, busy_count = [], [], 0
    for _, capacities in sampler.states(iterations):
        roles = classify_network(capacities, policy)
        busy, candidates = roles.busy, roles.candidates
        if not busy or not candidates:
            continue
        busy_count = len(busy)
        problem = PlacementProblem(
            topology=topology,
            busy=tuple(busy),
            candidates=tuple(candidates),
            cs=np.array([policy.excess_load(capacities[b]) for b in busy]),
            cd=np.array([policy.spare_capacity(capacities[c]) for c in candidates]),
            data_mb=np.full(len(busy), 10.0),
        )
        report = solve_heuristic(problem)
        times.append(report.total_seconds)
        hfrs.append(report.hfr_pct)
    return (
        float(np.mean(times)) if times else float("nan"),
        float(np.mean(hfrs)) if hfrs else float("nan"),
        busy_count,
    )


def _sweep_point(payload: dict) -> Tuple[float, float, int]:
    """One (k, seed) scale point — module-level so pool workers can run it."""
    return heuristic_time_at_scale(
        payload["k"],
        payload["iterations"],
        seed=payload["seed"],
    )


def run(
    scales: Sequence[Tuple[int, int]] = DEFAULT_SCALES,
    seed: int = 0,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 12's heuristic-runtime-vs-size series.

    Scale points are independent, so they shard over the worker pool;
    a payload carries only ``k``, the iteration count and the seed, and
    each point builds its own fat-tree (see
    :func:`heuristic_time_at_scale`).
    """
    start = time.perf_counter()
    payloads = [
        {"k": k, "iterations": iterations, "seed": seed} for k, iterations in scales
    ]
    points = run_sharded_sweep(_sweep_point, payloads, workers=workers)
    rows = []
    for (k, iterations), (mean_s, hfr, busy) in zip(scales, points):
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
