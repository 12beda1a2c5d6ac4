"""Discrete-event simulation substrate."""

from __future__ import annotations

from repro.simulation.engine import SimulationEngine
from repro.simulation.events import ScheduledEvent
from repro.simulation.network_sim import (
    FaultConfig,
    FaultyNetwork,
    Message,
    MessageNetwork,
)
from repro.simulation.profiles import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
)
from repro.simulation.random import rng_from, spawn_seeds

# The deployment builder and the chaos and soak harnesses compose this
# package with repro.core, whose modules import repro.simulation.engine
# — so their names are loaded lazily (PEP 562) to keep the import graph
# acyclic.
_CHAOS_EXPORTS = frozenset(
    {
        "ChaosRunResult",
        "ChaosScenario",
        "FaultSchedule",
        "ScenarioComparison",
        "Wiring",
        "build_deployment",
        "default_scenario",
        "evaluate_scenario",
        "run_scenario",
    }
)

_SOAK_EXPORTS = frozenset(
    {
        "SoakConfig",
        "SoakResult",
        "StreamSpec",
        "default_soak_chaos",
        "run_soak",
    }
)


def __getattr__(name: str):
    if name in _CHAOS_EXPORTS:
        from repro.simulation import chaos

        return getattr(chaos, name)
    if name in _SOAK_EXPORTS:
        from repro.simulation import soak

        return getattr(soak, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ArrivalProcess",
    "BurstyArrivals",
    "ChaosRunResult",
    "ChaosScenario",
    "DiurnalArrivals",
    "FaultConfig",
    "FaultSchedule",
    "FaultyNetwork",
    "Message",
    "MessageNetwork",
    "PoissonArrivals",
    "ScenarioComparison",
    "ScheduledEvent",
    "SimulationEngine",
    "SoakConfig",
    "SoakResult",
    "StreamSpec",
    "Wiring",
    "build_deployment",
    "default_scenario",
    "default_soak_chaos",
    "evaluate_scenario",
    "rng_from",
    "run_scenario",
    "run_soak",
    "spawn_seeds",
]
