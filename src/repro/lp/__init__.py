"""LP/ILP substrate: modeling layer plus one solver per program shape.

This package replaces the Gurobi toolkit used by the paper's simulator:

* :mod:`repro.lp.model` — algebraic model building (variables,
  expressions, constraints).
* :mod:`repro.lp.transportation` — exact transportation-problem solver
  for the paper's Eq. 3, whose native structure it is.
* :mod:`repro.lp.scipy_backend` — HiGHS via scipy for every other
  program: heterogeneous capacities, whole-unit (MILP) placement and
  multi-resource placement. It also returns the duals.
* :mod:`repro.lp.distributed` — zone-decomposed transportation solve
  with a thin price-exchange coordinator (see
  ``docs/distributed_solve.md``).
"""

from __future__ import annotations

from repro.lp.model import INF, Constraint, LinearProgram, LinExpr, Variable, lp_sum
from repro.lp.result import Solution, SolveStatus
from repro.lp.scipy_backend import solve_scipy
from repro.lp.transportation import (
    TransportationBasis,
    TransportationProblem,
    TransportationResult,
    solve_transportation,
)
from repro.lp.distributed import (
    DistributedCoordinator,
    DistributedSolveResult,
    FlowAssignment,
    LaneBids,
    PriceUpdate,
    ZoneProfile,
    ZoneWorker,
    extract_zone_subproblems,
    run_protocol,
    solve_distributed,
)

__all__ = [
    "INF",
    "Constraint",
    "DistributedCoordinator",
    "DistributedSolveResult",
    "FlowAssignment",
    "LaneBids",
    "LinExpr",
    "LinearProgram",
    "PriceUpdate",
    "Solution",
    "SolveStatus",
    "TransportationBasis",
    "TransportationProblem",
    "TransportationResult",
    "Variable",
    "ZoneProfile",
    "ZoneWorker",
    "extract_zone_subproblems",
    "lp_sum",
    "run_protocol",
    "solve_distributed",
    "solve_scipy",
    "solve_transportation",
]
