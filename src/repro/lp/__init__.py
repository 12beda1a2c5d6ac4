"""The Eq.-3 solvers: one transportation simplex, centralized or split
across zones, both returning their duals.

This package replaces the Gurobi toolkit used by the paper's simulator.
Eq. 3 is a continuous transportation problem, so it needs no general LP
layer:

* :mod:`repro.lp.transportation` — exact transportation-problem solver
  (Vogel start + MODI pivots). An optimal result carries the duals
  ``u`` / ``v``; ``v`` is each destination's capacity shadow price.
* :mod:`repro.lp.distributed` — the same simplex with its pricing split
  across zone managers and a thin price-exchange coordinator (see
  ``docs/distributed_solve.md``); its result carries the coordinator's
  final duals.
"""

from __future__ import annotations

from repro.lp.result import SolveStatus
from repro.lp.transportation import (
    TransportationBasis,
    TransportationProblem,
    TransportationResult,
    solve_transportation,
)
from repro.lp.distributed import (
    DistributedCoordinator,
    DistributedSolveResult,
    ZoneProfile,
    ZoneWorker,
    run_protocol,
)

__all__ = [
    "DistributedCoordinator",
    "DistributedSolveResult",
    "SolveStatus",
    "TransportationBasis",
    "TransportationProblem",
    "TransportationResult",
    "ZoneProfile",
    "ZoneWorker",
    "run_protocol",
    "solve_transportation",
]
