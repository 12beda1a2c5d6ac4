"""Fig. 8 — ILP computation time vs max-hop on the 4-k fat-tree.

Paper: averaged over 100 iterations, computation time grows with the
max-hop limit; with no limit it stays below 3.5 s, and a 0.5 s
threshold suggests max-hop = 10 for the 4-k (20-node) topology.

Route pricing runs the enumeration engine, whose pruning keeps the
measured time nearly flat in max-hop; the hop-bounded path count, which
grows like the paper's times, is the scorecard's Fig. 8 count row.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.roles import classify_network
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import ExperimentResult, IterationSampler
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree

DEFAULT_HOPS: Tuple[Optional[int], ...] = (2, 4, 6, 8, 10, 12, None)
#: Thresholds of Figs. 8 and 10 (also the scorecard's path-count instances).
DEFAULT_POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
#: Solves per instance; its time is their minimum, since host noise
#: only ever adds.
REPEATS = 5


def mean_solve_time(
    k: int,
    max_hops: Optional[int],
    iterations: int,
    seed: int = 0,
    policy: Optional[ThresholdPolicy] = None,
    engine_kind: PathEngine = PathEngine.ENUMERATION,
) -> Tuple[float, float]:
    """(mean total solve seconds, mean feasible beta) for one hop limit.

    One untimed solve comes first, so the point does not pay a fresh
    process's one-off set-up; each instance's time is then the minimum
    of :data:`REPEATS` solves.

    ``engine_kind=PathEngine.DP`` prices all busy sources through one
    all-sources DP plane — this is what keeps the k=32 series of
    Fig. 10 tractable.
    """
    policy = policy or DEFAULT_POLICY
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
    engine = PlacementEngine(
        response_model=ResponseTimeModel(engine=engine_kind, max_hops=max_hops),
        with_routes=False,
    )
    times = []
    betas = []
    for _, capacities in sampler.states(iterations):
        roles = classify_network(capacities, policy)
        busy, candidates = roles.busy, roles.candidates
        if not busy or not candidates:
            continue
        problem = PlacementProblem(
            topology=topology,
            busy=tuple(busy),
            candidates=tuple(candidates),
            cs=np.array([policy.excess_load(capacities[b]) for b in busy]),
            cd=np.array([policy.spare_capacity(capacities[c]) for c in candidates]),
            data_mb=np.full(len(busy), 10.0),
            max_hops=max_hops,
        )
        if not times:
            engine.solve(problem)
        reports = [engine.solve(problem) for _ in range(REPEATS)]
        times.append(min(r.total_seconds for r in reports))
        report = reports[0]
        if report.feasible:
            betas.append(report.objective_beta)
    return (
        float(np.mean(times)) if times else float("nan"),
        float(np.mean(betas)) if betas else float("nan"),
    )


def run(
    iterations: int = 30,
    hops: Sequence[Optional[int]] = DEFAULT_HOPS,
    threshold_s: float = 0.5,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate Fig. 8's time-vs-max-hop curve on the 4-k fat-tree."""
    start = time.perf_counter()
    rows = []
    for h in hops:
        mean_s, mean_beta = mean_solve_time(4, h, iterations, seed=seed)
        within = mean_s <= threshold_s
        rows.append((h if h is not None else "none", mean_s, mean_beta, "yes" if within else "no"))
    return ExperimentResult(
        experiment_id="fig8",
        title="ILP computation time vs max-hop (4-k fat-tree, enumeration engine)",
        columns=("max-hop", "mean solve s", "mean beta (s)", f"<= {threshold_s}s"),
        rows=tuple(rows),
        paper_claim="time grows with max-hop; < 3.5 s with no limit; 0.5 s threshold => max-hop 10",
        observations=(
            f"mean solve {rows[0][1] * 1e3:.1f} ms at max-hop {rows[0][0]}, "
            f"{rows[-1][1] * 1e3:.1f} ms at max-hop {rows[-1][0]}"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(("iterations", iterations), ("seed", seed)),
    )
