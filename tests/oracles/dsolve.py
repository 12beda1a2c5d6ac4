"""Zone-decomposed transportation solve driven from a plain instance.

``src/`` builds its :class:`~repro.lp.distributed.ZoneWorker` objects
from the Trmin rows each zone priced (:mod:`repro.core.zoning`); the
suites start from a :class:`~repro.lp.TransportationProblem` and a
row/column partition instead, and slice the workers here.
"""

from typing import Sequence

from repro.errors import SolverError
from repro.lp import TransportationProblem
from repro.lp.distributed import DistributedSolveResult, ZoneWorker, run_protocol


def solve_distributed(
    problem: TransportationProblem,
    zone_rows: Sequence[Sequence[int]],
    zone_cols: Sequence[Sequence[int]],
) -> DistributedSolveResult:
    """Run :func:`~repro.lp.distributed.run_protocol` with zone ``z``
    owning rows ``zone_rows[z]`` and columns ``zone_cols[z]`` (each a
    partition of ``0..m-1`` / ``0..n-1``, else ``SolverError``)."""
    if len(zone_rows) != len(zone_cols):
        raise SolverError("zone_rows and zone_cols must have the same length")
    workers = []
    for z, (rows, cols) in enumerate(zip(zone_rows, zone_cols)):
        rows = [int(r) for r in rows]
        cols = [int(c) for c in cols]
        workers.append(
            ZoneWorker(
                zone_id=z,
                rows=rows,
                cols=cols,
                cost_rows=problem.cost[rows, :],
                supplies=problem.supply[rows],
                capacities=problem.demand[cols],
            )
        )
    return run_protocol(workers)
