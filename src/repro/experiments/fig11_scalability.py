"""Fig. 11 — scalability: heuristic HFR (a) and ILP time (b) vs size.

Paper: as the fat-tree grows from small to large scale, the heuristic's
HFR falls from 47.92% to 11.04% — approximately a power law with
exponent ≈ −0.5 in network size — while mean ILP optimization time
rises from 0.2 s to over 153 s. The crossover motivates zoning
networks at ≤ 80 nodes or switching to the heuristic.

HFR falls with k because node degree grows linearly in k: a busy switch
in a larger fabric simply has more one-hop candidates.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.heuristic import solve_heuristic
from repro.core.metrics import fit_power_law
from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import ExperimentResult, IterationSampler, run_sharded_sweep
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree

#: (k, iterations, run_ilp, ilp_max_hops): the ILP column is produced for
#: sizes where the paper itself still ran the optimization; the paper
#: recommends zones of <= 80 nodes precisely because larger ILPs blow up.
DEFAULT_SCALES: Tuple[Tuple[int, int, bool, Optional[int]], ...] = (
    (4, 20, True, None),
    (8, 8, True, 5),
    (16, 3, True, 4),
    (32, 2, False, None),
    (64, 1, False, None),
)


#: Fig. 11's thresholds; :func:`scalability_point` says why ``CO_max = 35``.
DEFAULT_POLICY = ThresholdPolicy(c_max=80.0, co_max=35.0, x_min=10.0)


def scalability_point(
    k: int,
    iterations: int,
    run_ilp: bool,
    ilp_max_hops: Optional[int],
    seed: int = 0,
    policy: Optional[ThresholdPolicy] = None,
) -> Tuple[float, float, float]:
    """(mean HFR %, mean ILP seconds, mean heuristic seconds) at size k.

    The default thresholds use ``CO_max = 35``: the paper does not state
    the thresholds behind Fig. 11, and this value reproduces its HFR
    band (≈48% at small scale decaying to ≈11% at 5120 nodes) — with
    more generous candidate thresholds one-hop capacity stops being
    scarce at scale and HFR collapses to zero instead.

    The point builds its own fat-tree (a fresh topology from the
    memoized blueprint), and the iteration stream depends only on
    ``seed``, so per-seed HFR values are identical whether this point
    runs inline or on a pool worker.
    """
    policy = policy or DEFAULT_POLICY
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
    ilp_engine = PlacementEngine(
        response_model=ResponseTimeModel(
            engine=PathEngine.ENUMERATION, max_hops=ilp_max_hops
        ),
        with_routes=False,
    )
    hfrs, ilp_times, heuristic_times = [], [], []
    for _, capacities in sampler.states(iterations):
        problem = PlacementProblem.from_loads(
            topology, capacities, policy, max_hops=ilp_max_hops
        )
        if not problem.busy or not problem.candidates:
            continue
        heuristic = solve_heuristic(problem)
        hfrs.append(heuristic.hfr_pct)
        heuristic_times.append(heuristic.total_seconds)
        if run_ilp:
            ilp_times.append(ilp_engine.solve(problem).total_seconds)
    return (
        float(np.mean(hfrs)) if hfrs else float("nan"),
        float(np.mean(ilp_times)) if ilp_times else float("nan"),
        float(np.mean(heuristic_times)) if heuristic_times else float("nan"),
    )


def _sweep_point(payload: dict) -> Tuple[float, float, float]:
    """One (k, seed) scale point — module-level so pool workers can run it."""
    return scalability_point(
        payload["k"],
        payload["iterations"],
        payload["run_ilp"],
        payload["ilp_max_hops"],
        seed=payload["seed"],
    )


def run(
    scales: Sequence[Tuple[int, int, bool, Optional[int]]] = DEFAULT_SCALES,
    seed: int = 0,
    workers: Optional[int] = None,
) -> ExperimentResult:
    """Regenerate Fig. 11a (HFR vs size) and 11b (ILP time vs size).

    Scale points shard over the worker pool; a payload carries only
    the scale parameters and seed, and each point builds its own
    fat-tree (see :func:`scalability_point`).
    """
    start = time.perf_counter()
    payloads = [
        {
            "k": k,
            "iterations": iterations,
            "run_ilp": run_ilp,
            "ilp_max_hops": ilp_hops,
            "seed": seed,
        }
        for k, iterations, run_ilp, ilp_hops in scales
    ]
    points = run_sharded_sweep(_sweep_point, payloads, workers=workers)
    rows = []
    sizes, hfr_series = [], []
    for (k, iterations, run_ilp, ilp_hops), (hfr, ilp_s, _) in zip(scales, points):
        nodes = 5 * k * k // 4
        rows.append((f"{k}-k", nodes, hfr, ilp_s if run_ilp else float("nan")))
        if hfr == hfr and hfr > 0:
            sizes.append(nodes)
            hfr_series.append(hfr)
    exponent = (
        fit_power_law(sizes, hfr_series) if len(hfr_series) >= 2 else float("nan")
    )
    return ExperimentResult(
        experiment_id="fig11",
        title="Scalability: heuristic HFR and ILP computation time vs network size",
        columns=("fat-tree", "nodes", "mean HFR %", "mean ILP solve s"),
        rows=tuple(rows),
        paper_claim=(
            "HFR falls 47.92% -> 11.04% (~size^-0.5); mean ILP time rises 0.2s -> 153s"
        ),
        observations=(
            f"HFR falls from {hfr_series[0]:.1f}% to {hfr_series[-1]:.1f}% "
            f"(power-law exponent {exponent:.2f})"
            if hfr_series
            else "no overloaded iterations sampled"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(("seed", seed),),
    )
