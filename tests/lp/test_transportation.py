"""Tests for the transportation (Vogel + MODI) solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.lp import (
    LinearProgram,
    SolveStatus,
    TransportationProblem,
    lp_sum,
    solve_scipy,
    solve_transportation,
)


def test_textbook_instance():
    problem = TransportationProblem(
        supply=np.array([10.0, 5.0]),
        demand=np.array([8.0, 9.0, 4.0]),
        cost=np.array([[1.0, 2.0, 3.0], [4.0, 1.0, 2.0]]),
    )
    result = solve_transportation(problem)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == pytest.approx(17.0)
    # Supplies shipped exactly.
    np.testing.assert_allclose(result.flow.sum(axis=1), problem.supply, atol=1e-9)
    # Demands respected.
    assert (result.flow.sum(axis=0) <= problem.demand + 1e-9).all()


def test_zero_supply_trivial():
    problem = TransportationProblem(
        supply=np.zeros(2), demand=np.array([5.0]), cost=np.ones((2, 1))
    )
    result = solve_transportation(problem)
    assert result.status is SolveStatus.OPTIMAL
    assert result.objective == 0.0
    assert not result.flow.any()


def test_oversupply_is_infeasible():
    problem = TransportationProblem(
        supply=np.array([10.0]), demand=np.array([5.0]), cost=np.array([[1.0]])
    )
    assert solve_transportation(problem).status is SolveStatus.INFEASIBLE


def test_no_destinations_infeasible():
    problem = TransportationProblem(
        supply=np.array([1.0]), demand=np.zeros(0), cost=np.zeros((1, 0))
    )
    assert solve_transportation(problem).status is SolveStatus.INFEASIBLE


def test_forbidden_lane_forces_infeasibility():
    problem = TransportationProblem(
        supply=np.array([3.0]),
        demand=np.array([5.0, 5.0]),
        cost=np.array([[np.inf, np.inf]]),
    )
    assert solve_transportation(problem).status is SolveStatus.INFEASIBLE


def test_forbidden_lane_routes_around():
    problem = TransportationProblem(
        supply=np.array([3.0]),
        demand=np.array([5.0, 5.0]),
        cost=np.array([[np.inf, 2.0]]),
    )
    result = solve_transportation(problem)
    assert result.status is SolveStatus.OPTIMAL
    assert result.flow[0, 0] == 0.0
    assert result.flow[0, 1] == pytest.approx(3.0)


def test_exact_balance_no_dummy():
    problem = TransportationProblem(
        supply=np.array([4.0, 6.0]),
        demand=np.array([5.0, 5.0]),
        cost=np.array([[1.0, 9.0], [9.0, 1.0]]),
    )
    result = solve_transportation(problem)
    assert result.status is SolveStatus.OPTIMAL
    np.testing.assert_allclose(result.flow.sum(axis=0), problem.demand, atol=1e-9)
    assert result.objective == pytest.approx(4.0 * 1 + 1.0 * 9 + 5.0 * 1)


def test_shape_mismatch_rejected():
    with pytest.raises(SolverError):
        TransportationProblem(
            supply=np.array([1.0]), demand=np.array([1.0]), cost=np.ones((2, 2))
        )


def test_negative_supply_rejected():
    with pytest.raises(SolverError):
        TransportationProblem(
            supply=np.array([-1.0]), demand=np.array([1.0]), cost=np.ones((1, 1))
        )


def test_nan_supply_rejected():
    with pytest.raises(SolverError):
        TransportationProblem(
            supply=np.array([1.0, np.nan]), demand=np.array([3.0]), cost=np.ones((2, 1))
        )


def test_nan_demand_rejected():
    with pytest.raises(SolverError):
        TransportationProblem(
            supply=np.array([1.0]), demand=np.array([np.nan, 3.0]), cost=np.ones((1, 2))
        )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=100_000),
    st.booleans(),
    st.booleans(),
)
def test_property_optimal_matches_highs(m, n, seed, with_forbidden, degenerate):
    """MODI's optimum equals HiGHS on random instances, including ones
    with forbidden lanes and ones whose supplies and demands tie."""
    rng = np.random.default_rng(seed)
    if degenerate:
        # Repeated integer supplies/demands force flow ties, the classic
        # breeding ground for degenerate pivots and cycling.
        supply = rng.integers(1, 4, m).astype(float)
        demand = rng.integers(1, 4, n).astype(float)
    else:
        supply = rng.uniform(0.0, 10.0, m)
        demand = rng.uniform(0.0, 10.0, n)
    if supply.sum() > demand.sum():
        supply *= 0.85 * demand.sum() / supply.sum()
    cost = rng.uniform(1.0, 10.0, (m, n))
    if with_forbidden:
        mask = rng.random((m, n)) < 0.25
        cost = np.where(mask, np.inf, cost)
    problem = TransportationProblem(supply, demand, cost)
    own = solve_transportation(problem)

    lp = LinearProgram()
    xs = {}
    for i in range(m):
        for j in range(n):
            if np.isfinite(cost[i, j]):
                xs[(i, j)] = lp.add_variable(f"x_{i}_{j}")
    feasible_model = True
    for i in range(m):
        row = [xs[(i, j)] for j in range(n) if (i, j) in xs]
        if not row:
            feasible_model = supply[i] <= 1e-12
            if not feasible_model:
                break
            continue
        lp.add_constraint(lp_sum(row) == float(supply[i]))
    if feasible_model:
        for j in range(n):
            col = [xs[(i, j)] for i in range(m) if (i, j) in xs]
            if col:
                lp.add_constraint(lp_sum(col) <= float(demand[j]))
        lp.set_objective(lp_sum(cost[i, j] * v for (i, j), v in xs.items()))
        ref = solve_scipy(lp)
    else:
        ref = None

    if ref is None:
        assert own.status is SolveStatus.INFEASIBLE
    else:
        assert own.status == ref.status, (own.status, ref.status)
        if ref.status is SolveStatus.OPTIMAL:
            assert own.objective == pytest.approx(ref.objective, abs=1e-5)
            # Flow is feasible: supplies met, demands respected, no
            # forbidden lane used.
            np.testing.assert_allclose(own.flow.sum(axis=1), supply, atol=1e-6)
            assert (own.flow.sum(axis=0) <= demand + 1e-6).all()
            assert (own.flow[~np.isfinite(cost)] <= 1e-9).all()
