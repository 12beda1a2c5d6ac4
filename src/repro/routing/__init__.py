"""Routing substrate: hop-bounded paths, shortest paths, response times."""

from __future__ import annotations

from repro.routing.engine import EngineStats, TrminEngine
from repro.routing.enumkernel import count_paths_kernel
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.routing.routes import Path, RouteChoice
from repro.routing.shortest import (
    HopConstrainedResult,
    hop_constrained_shortest,
    shortest_path,
)

__all__ = [
    "EngineStats",
    "HopConstrainedResult",
    "Path",
    "PathEngine",
    "ResponseTimeModel",
    "RouteChoice",
    "TrminEngine",
    "count_paths_kernel",
    "hop_constrained_shortest",
    "shortest_path",
]
