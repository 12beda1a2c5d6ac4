"""Independent solution verification: feasibility and optimality
certificates.

Solvers can be wrong (the transportation solver is hand-rolled);
verification is cheap.
This module checks a claimed :class:`~repro.lp.result.Solution` against
its :class:`~repro.lp.model.LinearProgram` without re-solving:

* :func:`check_feasibility` — bounds and every constraint within
  tolerance;
* :func:`duality_gap_bound` — when duals are available, the weak-duality
  certificate: the dual objective lower-bounds the primal, so
  ``primal − dual ≤ gap`` proves the claimed solution is within ``gap``
  of optimal (0 ⇒ optimal);
* :func:`verify_solution` — both, rolled into a verdict object.

The LP tests use this to certify, not just compare, HiGHS optima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.lp.model import Constraint, LinearProgram, LinExpr
from repro.lp.result import Solution


@dataclass(frozen=True)
class Verification:
    """Outcome of verifying one solution."""

    feasible: bool
    violations: tuple
    duality_gap: Optional[float]  # None when no duals were available

    @property
    def certified_optimal(self) -> bool:
        """Feasible with a (near-)zero duality gap certificate."""
        return self.feasible and self.duality_gap is not None and self.duality_gap <= 1e-6

    def __bool__(self) -> bool:
        return self.feasible


def evaluate(expr: LinExpr, values: Mapping[str, float]) -> float:
    """Value of ``expr`` under ``{variable name: value}`` (missing = 0)."""
    total = expr.constant
    for var, coef in expr.terms.items():
        total += coef * values.get(var.name, 0.0)
    return total


def violation(con: Constraint, values: Mapping[str, float]) -> float:
    """Amount by which ``values`` violate ``con`` (≥ 0)."""
    lhs = evaluate(con.expr, values)
    if con.sense == "<=":
        return max(0.0, lhs - con.rhs)
    if con.sense == ">=":
        return max(0.0, con.rhs - lhs)
    return abs(lhs - con.rhs)


def check_feasibility(
    program: LinearProgram, values: Mapping[str, float], tol: float = 1e-6
) -> List[str]:
    """Human-readable list of bound/constraint violations (empty = ok)."""
    violations: List[str] = []
    dense = program.to_dense()
    for name, lower, upper, integral in zip(
        dense.variable_names, dense.lower, dense.upper, dense.integrality
    ):
        value = values.get(name, 0.0)
        if value < lower - tol:
            violations.append(f"{name} = {value:.6g} below lower bound {float(lower)}")
        if value > upper + tol:
            violations.append(f"{name} = {value:.6g} above upper bound {float(upper)}")
        if integral and abs(value - round(value)) > tol:
            violations.append(f"{name} = {value:.6g} is not integral")
    for con in program.constraints:
        amount = violation(con, values)
        if amount > tol:
            violations.append(
                f"constraint {con.name or '?'} violated by {amount:.6g}"
            )
    return violations


def dual_objective(program: LinearProgram, duals: Mapping[str, float]) -> float:
    """Dual objective value ``Σ y_k · rhs_k`` for the given multipliers.

    Valid as a primal lower bound when the duals come from an optimal
    dual solution of the same program (what HiGHS returns). Variable
    bound duals are not exposed by the solver, so programs whose
    optimum leans on finite variable bounds get a looser bound; callers
    see that as a positive gap, never a false certificate — unless every
    bounded variable sits at zero in the optimal basis.
    """
    total = float(program.objective.constant)
    for con in program.constraints:
        y = duals.get(con.name)
        if y is not None:
            total += y * con.rhs
    return total


def duality_gap_bound(
    program: LinearProgram, solution: Solution
) -> Optional[float]:
    """Primal − dual gap when duals are present (``None`` otherwise).

    A (near-)zero gap certifies optimality by weak duality; a positive
    value only bounds the distance from optimal (see
    :func:`dual_objective` for when the bound is loose).
    """
    if not solution.duals:
        return None
    primal = evaluate(program.objective, dict(solution.values))
    dual = dual_objective(program, solution.duals)
    return float(primal - dual)


def verify_solution(
    program: LinearProgram, solution: Solution, tol: float = 1e-6
) -> Verification:
    """Full verification of a claimed optimal solution."""
    if not solution.status.is_optimal:
        return Verification(feasible=False, violations=("status is not optimal",),
                            duality_gap=None)
    violations = check_feasibility(program, dict(solution.values), tol)
    gap = duality_gap_bound(program, solution)
    return Verification(
        feasible=not violations,
        violations=tuple(violations),
        duality_gap=gap,
    )
