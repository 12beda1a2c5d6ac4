"""SciPy (HiGHS) backend — the reproduction's stand-in for Gurobi.

The paper solves its placement ILP with the Gurobi toolkit; this
backend lowers a :class:`repro.lp.model.LinearProgram` to
``scipy.optimize.linprog`` (continuous) or ``scipy.optimize.milp``
(when integer variables are present), both of which dispatch to the
bundled HiGHS solver.
"""

from __future__ import annotations

import time

import numpy as np

from repro.lp.model import LinearProgram
from repro.lp.result import Solution, SolveStatus
from repro.obs import get_registry, trace_span

_STATUS_FROM_LINPROG = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}

_STATUS_FROM_MILP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,  # iteration/time limit
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def solve_scipy(program: LinearProgram) -> Solution:
    """Solve ``program`` with HiGHS via SciPy.

    Continuous programs go through :func:`scipy.optimize.linprog`;
    programs with any integer variable go through
    :func:`scipy.optimize.milp` so integrality is honored exactly.

    Parameters
    ----------
    program : LinearProgram
        The program to solve.

    Returns
    -------
    Solution
        Status, objective and variable values. Each solve also reports
        into the ``lp.scipy.*`` metrics and (when tracing is on)
        records an ``lp.scipy.solve`` span.
    """
    with trace_span(
        "lp.scipy.solve",
        variables=program.num_variables,
        integer=program.has_integer_variables,
    ):
        result = _solve_scipy_impl(program)
    registry = get_registry()
    registry.counter("lp.scipy.solves").inc()
    registry.histogram("lp.scipy.solve_seconds").observe(result.solve_time)
    return result


def _solve_scipy_impl(program: LinearProgram) -> Solution:
    # Imported here, not at module level: scipy.optimize is slow to load
    # and large in memory, and only this solver uses it, so ``import
    # repro`` does not pay for it.
    from scipy import optimize
    from scipy.optimize import LinearConstraint

    start = time.perf_counter()
    dense = program.to_dense()
    n = dense.c.size
    if n == 0:
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=float(program.objective.constant),
            values={},
            backend="scipy",
            solve_time=time.perf_counter() - start,
        )

    if program.has_integer_variables:
        constraints = []
        if dense.A_ub.shape[0]:
            constraints.append(
                LinearConstraint(dense.A_ub, -np.inf * np.ones(dense.b_ub.size), dense.b_ub)
            )
        if dense.A_eq.shape[0]:
            constraints.append(LinearConstraint(dense.A_eq, dense.b_eq, dense.b_eq))
        res = optimize.milp(
            c=dense.c,
            constraints=constraints,
            bounds=optimize.Bounds(dense.lower, dense.upper),
            integrality=dense.integrality.astype(int),
        )
        status = _STATUS_FROM_MILP.get(res.status, SolveStatus.ERROR)
        x = res.x
    else:
        res = optimize.linprog(
            c=dense.c,
            A_ub=dense.A_ub if dense.A_ub.shape[0] else None,
            b_ub=dense.b_ub if dense.b_ub.size else None,
            A_eq=dense.A_eq if dense.A_eq.shape[0] else None,
            b_eq=dense.b_eq if dense.b_eq.size else None,
            bounds=np.column_stack([dense.lower, dense.upper]),
            method="highs",
        )
        status = _STATUS_FROM_LINPROG.get(res.status, SolveStatus.ERROR)
        x = res.x

    elapsed = time.perf_counter() - start
    if not status.is_optimal or x is None:
        return Solution(status=status, backend="scipy", solve_time=elapsed)

    values = {name: float(x[j]) for j, name in enumerate(dense.variable_names)}
    objective = float(dense.c @ x) + float(program.objective.constant)
    duals = _extract_duals(program, res) if not program.has_integer_variables else {}
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=objective,
        values=values,
        backend="scipy",
        iterations=int(getattr(res, "nit", 0) or 0),
        solve_time=elapsed,
        duals=duals,
    )


def _extract_duals(program: LinearProgram, res) -> dict:
    """Map HiGHS marginals back to constraint names.

    ``to_dense`` emits `<=` rows (with `>=` rows negated into them) in
    constraint order, then `==` rows — mirrored here so each marginal
    lands on the right name. `>=` rows get their sign flipped back.
    """
    ineq = getattr(getattr(res, "ineqlin", None), "marginals", None)
    eq = getattr(getattr(res, "eqlin", None), "marginals", None)
    duals: dict = {}
    i_ineq = 0
    i_eq = 0
    for con in program.constraints:
        if con.sense == "==":
            if eq is not None and i_eq < len(eq):
                duals[con.name] = float(eq[i_eq])
            i_eq += 1
        else:
            if ineq is not None and i_ineq < len(ineq):
                marginal = float(ineq[i_ineq])
                duals[con.name] = -marginal if con.sense == ">=" else marginal
            i_ineq += 1
    return duals
