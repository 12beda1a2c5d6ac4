"""Extra study: distributed placement solve vs the centralized LP.

The paper's Eq. 3 program is solved by one manager holding the whole
network view. This study splits the same program across per-pod zone
managers (see ``docs/distributed_solve.md``): each zone prices only its
own busy rows, and a thin coordinator exchanges duals until the global
optimum is certified. On every point the distributed objective must
match the centralized solve to float precision; beside it the study
records both solves' measured wall time (``total_seconds``), one after
the other in the same process on the same snapshot.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Optional, Sequence

from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.thresholds import ThresholdPolicy
from repro.core.zoning import DistributedPlacementEngine, partition_by_pod
from repro.experiments.common import ExperimentResult, IterationSampler
from repro.obs import observability_artifact
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree

DEFAULT_KS: Sequence[int] = (16, 32)
#: Relative objective agreement demanded between the two solvers.
OBJECTIVE_TOLERANCE = 1e-6


def _engine(max_hops: Optional[int]) -> PlacementEngine:
    """A DP-engine PlacementEngine; each solver gets its own instance so
    the two sides being compared share nothing."""
    return PlacementEngine(
        response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=max_hops),
        with_routes=False,
    )


def solve_point(
    k: int,
    seed: int = 0,
    max_hops: Optional[int] = 4,
    policy: Optional[ThresholdPolicy] = None,
) -> dict:
    """Solve one fat-tree snapshot both ways; return the comparison.

    Builds the k-ary fat tree, samples one randomized network state,
    and solves the identical :class:`PlacementProblem` with the
    centralized engine and with the per-pod distributed
    engine. Raises ``AssertionError`` if the objectives disagree beyond
    :data:`OBJECTIVE_TOLERANCE` — the study is a correctness gate first and a
    timing comparison second.
    """
    policy = policy or ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
    _, capacities = next(iter(sampler.states(1)))
    problem = PlacementProblem.from_loads(topology, capacities, policy, max_hops=max_hops)

    central = _engine(max_hops).solve(problem)
    zones = partition_by_pod(topology)
    distributed = DistributedPlacementEngine(
        zones=zones, engine=_engine(max_hops)
    ).solve(problem)

    rel_diff = abs(distributed.objective_beta - central.objective_beta) / max(
        1.0, abs(central.objective_beta)
    )
    assert distributed.status == central.status, (
        f"k={k}: distributed {distributed.status} != centralized {central.status}"
    )
    if central.feasible:
        assert rel_diff <= OBJECTIVE_TOLERANCE, (
            f"k={k}: objectives diverge by {rel_diff:.3e} > {OBJECTIVE_TOLERANCE}"
        )
    return {
        "k": k,
        "nodes": topology.num_nodes,
        "zones": distributed.zones,
        "busy": len(problem.busy),
        "candidates": len(problem.candidates),
        "centralized_s": central.total_seconds,
        "distributed_s": distributed.total_seconds,
        "coordinator_s": distributed.coordinator_seconds,
        "rounds": distributed.rounds,
        "pivots": distributed.pivots,
        "messages": distributed.dsolve_messages,
        "status": distributed.status.name,
        "centralized_status": central.status.name,
        "objective_rel_diff": rel_diff,
        "objective_beta": distributed.objective_beta,
    }


def run(
    ks: Sequence[int] = DEFAULT_KS,
    seed: int = 0,
    max_hops: Optional[int] = 4,
    json_path: Optional[str] = None,
) -> ExperimentResult:
    """The distributed solve vs the centralized LP, one point per fat-tree ``k``.

    Optionally dumps the points (plus the observability bundle) as JSON;
    CI gates every point's status and objective on that artifact.
    """
    start = time.perf_counter()
    points = [solve_point(k, seed=seed, max_hops=max_hops) for k in ks]
    if json_path is not None:
        artifact = {
            "points": points,
            "objective_tolerance": OBJECTIVE_TOLERANCE,
            "observability": observability_artifact(),
        }
        Path(json_path).write_text(json.dumps(artifact, indent=2))
    rows = tuple(
        (
            p["k"],
            p["zones"],
            p["busy"],
            p["candidates"],
            f"{p['centralized_s']:.3f}",
            f"{p['distributed_s']:.3f}",
            p["rounds"],
            f"{p['objective_rel_diff']:.1e}",
        )
        for p in points
    )
    exact = all(p["objective_rel_diff"] <= OBJECTIVE_TOLERANCE for p in points)
    return ExperimentResult(
        experiment_id="distributed",
        title="Distributed placement solve vs centralized LP (extra)",
        columns=(
            "k", "zones", "busy", "cand", "central s", "distributed s",
            "rounds", "obj rel diff",
        ),
        rows=rows,
        paper_claim=(
            "the paper solves Eq. 3 at one manager; a zone-decomposed solve "
            "is not evaluated (no figure)"
        ),
        observations=(
            f"objectives {'matched' if exact else 'DID NOT match'} the "
            f"centralized LP within {OBJECTIVE_TOLERANCE:g} on every point"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(("ks", tuple(ks)), ("seed", seed), ("max_hops", max_hops)),
    )
