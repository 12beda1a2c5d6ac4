"""DUST reproduction: resource-aware telemetry offloading (IPPS 2024).

A full Python implementation of the DUST system — in-device telemetry
substrate, distributed control plane (DUST-Manager / DUST-Client), the
Eq.-3 min-cost placement optimization with controllable routing, and
the one-hop heuristic (Algorithm 1) — plus the simulators and testbed
emulation needed to regenerate every figure in the paper's evaluation.

Quick start::

    from repro import build_fat_tree, ThresholdPolicy, PlacementEngine
    from repro.core import PlacementProblem

See ``examples/quickstart.py`` for a complete walk-through.
"""

from __future__ import annotations

from repro._version import __version__
from repro.core import (
    DUSTClient,
    DUSTManager,
    HeuristicReport,
    NMDB,
    PlacementEngine,
    PlacementProblem,
    PlacementReport,
    ThresholdPolicy,
    solve_heuristic,
)
from repro.errors import ReproError
from repro.routing import PathEngine, ResponseTimeModel
from repro.simulation import MessageNetwork, SimulationEngine
from repro.topology import (
    BandwidthConvention,
    CapacityModel,
    Link,
    LinkUtilizationModel,
    NodeKind,
    Topology,
    build_fat_tree,
)

__all__ = [
    "BandwidthConvention",
    "CapacityModel",
    "DUSTClient",
    "DUSTManager",
    "HeuristicReport",
    "Link",
    "LinkUtilizationModel",
    "MessageNetwork",
    "NMDB",
    "NodeKind",
    "PathEngine",
    "PlacementEngine",
    "PlacementProblem",
    "PlacementReport",
    "ReproError",
    "ResponseTimeModel",
    "SimulationEngine",
    "ThresholdPolicy",
    "Topology",
    "__version__",
    "build_fat_tree",
    "solve_heuristic",
]
