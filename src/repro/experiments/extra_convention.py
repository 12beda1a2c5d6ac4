"""Extra study: Eq. 1's bandwidth-convention ambiguity, quantified.

The paper defines ``Lu`` as *utilized* bandwidth yet divides by it to
get transfer time (see docs/experiments.md). This study runs the same
randomized placement workload under both readings and compares the
quantities the paper reports — showing which conclusions are and are
not sensitive to the choice.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.heuristic import solve_heuristic
from repro.core.metrics import mean_hops
from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import ExperimentResult, IterationSampler
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree
from repro.topology.links import BandwidthConvention


def run(iterations: int = 60, k: int = 4, seed: int = 0) -> ExperimentResult:
    """Compare AVAILABLE vs UTILIZED_LITERAL over random states."""
    start = time.perf_counter()
    policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)

    stats = {
        conv: {"feasible": 0, "hops": [], "hfr": [], "solved": 0}
        for conv in BandwidthConvention
    }
    engines = {
        conv: PlacementEngine(
            response_model=ResponseTimeModel(convention=conv, engine=PathEngine.DP),
        )
        for conv in BandwidthConvention
    }
    agreement = 0
    considered = 0
    for _, capacities in sampler.states(iterations):
        problem = PlacementProblem.from_loads(topology, capacities, policy)
        if not problem.busy or not problem.candidates:
            continue
        considered += 1
        destinations = {}
        for conv in BandwidthConvention:
            report = engines[conv].solve(problem)
            bucket = stats[conv]
            bucket["solved"] += 1
            if report.feasible:
                bucket["feasible"] += 1
                bucket["hops"].append(mean_hops(report))
                destinations[conv] = frozenset(report.destinations())
            bucket["hfr"].append(solve_heuristic(problem, convention=conv).hfr_pct)
        if len(destinations) == 2 and len(set(destinations.values())) == 1:
            agreement += 1

    rows = []
    for conv in BandwidthConvention:
        bucket = stats[conv]
        rows.append((
            conv.value,
            100.0 * bucket["feasible"] / bucket["solved"] if bucket["solved"] else 0.0,
            float(np.mean(bucket["hops"])) if bucket["hops"] else float("nan"),
            float(np.mean(bucket["hfr"])) if bucket["hfr"] else float("nan"),
        ))
    agree_pct = 100.0 * agreement / considered if considered else 0.0
    return ExperimentResult(
        experiment_id="convention",
        title="Eq. 1 bandwidth-convention sensitivity (extra)",
        columns=("convention", "feasible %", "mean hops", "mean heuristic HFR %"),
        rows=tuple(rows),
        paper_claim=(
            "the paper's text is ambiguous between utilized and available "
            "bandwidth as Eq. 1's denominator (no figure)"
        ),
        observations=(
            f"feasibility and HFR are convention-independent (capacity-driven); "
            f"identical destination sets in {agree_pct:.0f}% of iterations — only "
            "route pricing shifts"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(("iterations", iterations), ("k", k), ("seed", seed)),
    )
