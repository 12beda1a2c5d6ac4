"""The LP parity oracle: HiGHS on the dense transportation LP.

``src/`` solves Eq. 3 only with the transportation simplex; this is the
independent solver the suites hold it to. It builds the LP with one
column per finite lane and hands it to ``scipy.optimize.linprog``.
scipy is a ``dev`` dependency, so callers skip when it is absent.

HiGHS runs at primal and dual feasibility tolerances of 1e-10, not its
default 1e-7: Eq. 3's costs are Trmin in seconds (~1e-3), and at the
default HiGHS accepts a basis with a lane whose reduced cost is a few
percent of its own cost, the same short stop as an absolute 1e-7 test.
"""

from typing import Optional, Tuple

import numpy as np

from repro.lp import SolveStatus, TransportationProblem

#: Feasibility tolerances tight enough for costs far below 1.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def highs_status_objective(
    problem: TransportationProblem,
) -> Optional[Tuple[SolveStatus, float]]:
    """(status, objective) from HiGHS, or ``None`` without scipy."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    m, n = problem.cost.shape
    lanes = [(i, j) for i in range(m) for j in range(n)
             if np.isfinite(problem.cost[i, j])]
    if not lanes:
        feasible = problem.supply.sum() <= 1e-9
        return (SolveStatus.OPTIMAL if feasible else SolveStatus.INFEASIBLE), 0.0
    a_eq = np.zeros((m, len(lanes)))
    a_ub = np.zeros((n, len(lanes)))
    for k, (i, j) in enumerate(lanes):
        a_eq[i, k] = 1.0
        a_ub[j, k] = 1.0
    res = linprog(
        [problem.cost[i, j] for i, j in lanes],
        A_ub=a_ub, b_ub=problem.demand, A_eq=a_eq, b_eq=problem.supply,
        bounds=(0, None), method="highs", options=HIGHS_OPTIONS,
    )
    if res.status == 2:
        return SolveStatus.INFEASIBLE, float("nan")
    assert res.status == 0, res.message
    return SolveStatus.OPTIMAL, float(res.fun)
