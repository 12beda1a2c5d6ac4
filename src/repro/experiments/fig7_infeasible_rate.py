"""Fig. 7 — Infeasible Optimization (io) rate vs Δ_io.

Paper: over 1000 iterations on the 4-k fat-tree, the io rate ranges
from 0.2% (Δ_io = 3.5) to 69% (Δ_io = 0.8); the recommendation is to
configure thresholds with K_io ≥ 2.

Each Δ point fixes ``C_max`` and ``x_min`` and derives ``CO_max`` from
Eq. 5, then re-rolls the network state per iteration and counts
INFEASIBLE placement outcomes.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import ExperimentResult, IterationSampler
from repro.lp.result import SolveStatus
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree

#: Δ sweep matching the paper's reported range.
DEFAULT_DELTAS: Tuple[float, ...] = (0.8, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 3.5)


def io_rate_for_policy(
    policy: ThresholdPolicy,
    iterations: int,
    k: int = 4,
    seed: Optional[int] = 0,
    max_hops: Optional[int] = None,
) -> float:
    """Infeasible-rate (%) of the placement program over random states."""
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
    engine = PlacementEngine(
        response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=max_hops),
        with_routes=False,
    )
    infeasible = 0
    considered = 0
    for _, capacities in sampler.states(iterations):
        problem = PlacementProblem.from_loads(topology, capacities, policy, max_hops=max_hops)
        if not problem.busy:
            continue  # nothing to optimize, not an io event either way
        considered += 1
        report = engine.solve(problem)
        if report.status is SolveStatus.INFEASIBLE:
            infeasible += 1
    if considered == 0:
        return 0.0
    return 100.0 * infeasible / considered


def run(
    iterations: int = 1000,
    deltas: Sequence[float] = DEFAULT_DELTAS,
    c_max: float = 82.0,
    x_min: float = 10.0,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 7's io-rate curve."""
    start = time.perf_counter()
    rows = []
    rates = []
    for delta in deltas:
        policy = ThresholdPolicy.with_delta_io(delta, c_max=c_max, x_min=x_min)
        rate = io_rate_for_policy(policy, iterations, seed=seed)
        rates.append(rate)
        rows.append((delta, policy.co_max, rate, "yes" if delta >= 2.0 else "no"))
    monotone = all(a >= b - 2.0 for a, b in zip(rates, rates[1:]))
    low_at_2 = min(r for d, r in zip(deltas, rates) if d >= 2.0) if any(
        d >= 2.0 for d in deltas
    ) else float("nan")
    return ExperimentResult(
        experiment_id="fig7",
        title="Infeasible Optimization rate vs delta_io (4-k fat-tree)",
        columns=("delta_io", "CO_max (derived)", "io rate %", "meets K_io>=2"),
        rows=tuple(rows),
        paper_claim="io rate 69% at delta=0.8 falling to 0.2% at delta=3.5; set K_io >= 2",
        observations=(
            f"io rate falls {'monotonically' if monotone else 'non-monotonically'} "
            f"from {rates[0]:.1f}% to {rates[-1]:.1f}%; "
            f"min rate at delta>=2 is {low_at_2:.1f}%"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(("iterations", iterations), ("c_max", c_max), ("x_min", x_min), ("seed", seed)),
    )
