"""Solution containers for the general LP/ILP path.

:func:`repro.lp.solve_scipy` returns a :class:`Solution`; the
transportation solver reports the same :class:`SolveStatus` in its own
:class:`~repro.lp.transportation.TransportationResult`. The status mirrors
the vocabulary used by commercial solvers (Gurobi, CPLEX): the paper's
"Infeasible Optimization rate" experiment (Fig. 7) counts
``SolveStatus.INFEASIBLE`` outcomes over randomized network states.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping


class SolveStatus(enum.Enum):
    """Terminal state of one solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    ERROR = "error"

    @property
    def is_optimal(self) -> bool:
        """``True`` iff an optimal solution was found and proven."""
        return self is SolveStatus.OPTIMAL


@dataclass(frozen=True)
class Solution:
    """Outcome of solving a :class:`repro.lp.model.LinearProgram`.

    Attributes
    ----------
    status:
        Terminal solver state.
    objective:
        Objective value at the returned point; ``nan`` unless optimal.
    values:
        Mapping from variable name to its value in the solution. Empty
        unless :attr:`status` is optimal.
    backend:
        Name of the solver that produced this solution (``"scipy"``).
    iterations:
        Solver iteration count (HiGHS simplex iterations; 0 for a MILP).
    solve_time:
        Wall-clock seconds spent inside the solver.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Mapping[str, float] = field(default_factory=dict)
    backend: str = "unknown"
    iterations: int = 0
    solve_time: float = 0.0
    #: Dual values (shadow prices) keyed by constraint name, when the
    #: solver provides them (HiGHS for continuous LPs; none for a
    #: MILP). For a `<=` capacity row the dual is ≤ 0: the objective
    #: decreases by |dual| per unit of extra capacity.
    duals: Mapping[str, float] = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        """Convenience accessor: ``solution["x_0_1"]``."""
        return self.values[name]

    def value(self, name: str, default: float = 0.0) -> float:
        """Value of variable ``name``, or ``default`` if absent."""
        return self.values.get(name, default)
