"""Solution containers shared by every LP/ILP backend.

A backend returns a :class:`Solution` whose :class:`SolveStatus` mirrors
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
        Name of the backend that produced this solution (``"simplex"``,
        ``"transportation"``, ``"scipy"``, ``"branch-and-bound"``).
    iterations:
        Backend-specific iteration count (simplex pivots, B&B nodes).
    solve_time:
        Wall-clock seconds spent inside the backend.
    """

    status: SolveStatus
    objective: float = float("nan")
    values: Mapping[str, float] = field(default_factory=dict)
    backend: str = "unknown"
    iterations: int = 0
    solve_time: float = 0.0
    #: Dual values (shadow prices) keyed by constraint name, when the
    #: backend provides them (currently the scipy/HiGHS backend for
    #: continuous LPs). For a `<=` capacity row the dual is ≤ 0: the
    #: objective decreases by |dual| per unit of extra capacity.
    duals: Mapping[str, float] = field(default_factory=dict)
    #: Backend-specific final basis: the transportation backend stores
    #: its :class:`~repro.lp.transportation.TransportationBasis`, the
    #: dense simplex the :class:`~repro.lp.simplex.SimplexBasis` that
    #: branch-and-bound restarts child relaxations from. ``None`` when
    #: the backend has none (non-optimal exit, scipy).
    basis: object = None
    #: Sum of simplex pivots across every relaxation a composite solver
    #: ran (branch-and-bound reports the whole tree here); equals
    #: :attr:`iterations` for single-solve backends that set it.
    total_pivots: int = 0
    #: True when the backend actually started from a supplied warm
    #: basis; False when no hint was given or the hint was rejected.
    warm_started: bool = False

    def __getitem__(self, name: str) -> float:
        """Convenience accessor: ``solution["x_0_1"]``."""
        return self.values[name]

    def value(self, name: str, default: float = 0.0) -> float:
        """Value of variable ``name``, or ``default`` if absent."""
        return self.values.get(name, default)
