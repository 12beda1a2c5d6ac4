"""Experiment registry: one entry per paper table/figure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import ReproError
from repro.experiments import (
    extra_convention,
    extra_distributed,
    extra_hops,
    extra_overhead,
    extra_resilience,
    extra_soak,
    fig1_cpu_monitoring,
    fig6_offload_savings,
    fig7_infeasible_rate,
    fig8_maxhop_smallscale,
    fig9_success_rate,
    fig10_maxhop_largescale,
    fig11_scalability,
    fig12_heuristic_scalability,
    scorecard,
)
from repro.experiments.common import ExperimentResult


@dataclass(frozen=True)
class ExperimentEntry:
    """One registered experiment."""

    experiment_id: str
    description: str
    run: Callable[..., ExperimentResult]
    quick_params: Dict[str, object]  # reduced-size parameters for CI


_REGISTRY: Dict[str, ExperimentEntry] = {}


def _register(entry: ExperimentEntry) -> None:
    _REGISTRY[entry.experiment_id] = entry


_register(ExperimentEntry(
    "fig1", "CPU utilization of the monitoring module under VxLAN load",
    fig1_cpu_monitoring.run, {"intervals": 30},
))
_register(ExperimentEntry(
    "fig6", "Local vs DUST-offloaded CPU and memory utilization",
    fig6_offload_savings.run, {"intervals": 30},
))
_register(ExperimentEntry(
    "fig7", "Infeasible Optimization rate vs delta_io",
    fig7_infeasible_rate.run, {"iterations": 150},
))
_register(ExperimentEntry(
    "fig8", "ILP computation time vs max-hop (small scale, 4-k)",
    fig8_maxhop_smallscale.run, {"iterations": 5, "hops": (2, 4, 6, 8)},
))
_register(ExperimentEntry(
    "fig9", "Heuristic vs ILP success split (4-k)",
    fig9_success_rate.run, {"iterations": 40},
))
_register(ExperimentEntry(
    "fig10", "ILP computation time vs max-hop (large scale, 8-k/16-k)",
    fig10_maxhop_largescale.run,
    {
        "iterations_8k": 2,
        "iterations_16k": 1,
        "hops_8k": (2, 3, 4),
        "hops_16k": (2, 3),
        "hops_32k": (),
    },
))
_register(ExperimentEntry(
    "fig11", "Scalability: HFR and ILP time vs network size",
    fig11_scalability.run,
    {"scales": ((4, 5, True, None), (8, 3, True, 4), (16, 2, False, None), (64, 1, False, None))},
))
_register(ExperimentEntry(
    "fig12", "Heuristic execution time vs network size",
    fig12_heuristic_scalability.run, {"scales": ((4, 3), (8, 2), (16, 1), (64, 1))},
))
_register(ExperimentEntry(
    "scorecard", "Paper scorecard: paper vs ours per claim, with a verdict",
    scorecard.run, {"quick": True},
))
# Extra (beyond-the-paper) studies — runnable by id, excluded from `all`
# which regenerates exactly the paper's figures.
_register(ExperimentEntry(
    "hops", "Mean hops to destination: ILP budgets vs heuristic (extra)",
    extra_hops.run, {"iterations": 15},
))
_register(ExperimentEntry(
    "convention", "Eq. 1 bandwidth-convention sensitivity (extra)",
    extra_convention.run, {"iterations": 20},
))
_register(ExperimentEntry(
    "overhead", "Control-plane message volume vs update interval (extra)",
    extra_overhead.run, {"intervals": (60.0, 300.0), "horizon_s": 1800.0},
))
_register(ExperimentEntry(
    "resilience", "Chaos resilience: lossy fabric + manager failover (extra)",
    extra_resilience.run, {"seeds": (0,), "horizon_s": 1800.0},
))
_register(ExperimentEntry(
    "soak", "Soak: sustained churn + composed chaos against the manager (extra)",
    extra_soak.run, {"seeds": (0,), "horizon_s": 300.0},
))
_register(ExperimentEntry(
    "distributed",
    "Distributed placement solve vs centralized LP (extra)",
    extra_distributed.run, {"ks": (8, 16)},
))

#: Paper figures, in publication order (the `all` target).
PAPER_FIGURE_IDS = ("fig1", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12")


def all_experiments() -> Tuple[ExperimentEntry, ...]:
    """Entries in figure order (paper figures only)."""
    return tuple(_REGISTRY[eid] for eid in PAPER_FIGURE_IDS)


def get_experiment(experiment_id: str) -> ExperimentEntry:
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        raise ReproError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def run_experiment(experiment_id: str, quick: bool = False, **overrides) -> ExperimentResult:
    """Run one experiment, optionally with its quick (CI-sized) params."""
    entry = get_experiment(experiment_id)
    params = dict(entry.quick_params) if quick else {}
    params.update(overrides)
    return entry.run(**params)
