"""Terminal status of a transportation solve.

Both solvers — :func:`~repro.lp.transportation.solve_transportation` and
the distributed :func:`~repro.lp.distributed.run_protocol` — report a
:class:`SolveStatus`. The vocabulary mirrors commercial solvers
(Gurobi, CPLEX): the paper's "Infeasible Optimization rate" experiment
(Fig. 7) counts ``SolveStatus.INFEASIBLE`` outcomes over randomized
network states.
"""

from __future__ import annotations

import enum


class SolveStatus(enum.Enum):
    """Terminal state of one solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"

    @property
    def is_optimal(self) -> bool:
        """``True`` iff an optimal solution was found and proven."""
        return self is SolveStatus.OPTIMAL
