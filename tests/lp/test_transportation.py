"""Tests for the transportation (Vogel + MODI) solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.lp import SolveStatus, TransportationProblem, solve_transportation
from repro.lp.transportation import _best_entering
from tests.oracles.dsolve import solve_distributed
from tests.oracles.highs import highs_status_objective


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


def test_a_big_m_lane_inside_its_tolerance_does_not_end_the_solve():
    # Row 1 ships nothing and every lane of it is forbidden: one of its
    # Big-M lanes becomes the first most-negative lane while a real lane
    # still improves. Stopping there left 9.0; the optimum is 7.0.
    inf = np.inf
    problem = TransportationProblem(
        supply=np.array([1.0, 0.0, 3.0]),
        demand=np.array([4.0, 3.0, 2.0]),
        cost=np.array([[inf, 1.0, 2.0], [inf, inf, inf], [2.0, inf, 3.0]]),
    )
    assert solve_transportation(problem).objective == 7.0
    assert solve_distributed(problem, [[0, 1, 2]], [[0, 1, 2]]).objective == 7.0


def test_big_m_is_scaled_by_the_largest_absolute_cost():
    # The only feasible flow is row 0 -> column 0, row 1 -> column 1.
    # A Big-M scaled by the largest cost (0 here) priced the forbidden
    # lane at 2e6, so routing row 0 through it "saved" 1e13 against the
    # -1e13 lane and both solvers reported INFEASIBLE.
    problem = TransportationProblem(
        supply=np.array([1.0, 1.0]),
        demand=np.array([1.0, 1.0]),
        cost=np.array([[0.0, np.inf], [-1e13, 0.0]]),
    )
    highs = highs_status_objective(problem)
    if highs is not None:
        assert highs == (SolveStatus.OPTIMAL, 0.0)
    for result in (
        solve_transportation(problem),
        solve_distributed(problem, [[0, 1]], [[0, 1]]),
    ):
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == 0.0
        assert np.array_equal(result.flow, np.eye(2))


BIG_M = 1e6


@pytest.mark.parametrize(
    "reduced, cost, entering",
    [
        # The most negative lane is a Big-M lane inside its tolerance
        # (floor ≈ -0.1); the later real lane improves and enters.
        ([-0.05, 0.0, -0.01], [BIG_M, 2.0, 1.0], 2),
        # Two lanes tie at the most negative value: the first enters.
        ([0.0, -2.0, -1.0, -2.0], [1.0, 1.0, 1.0, 1.0], 1),
        # Basic lanes (pinned to 0) and lanes inside tolerance: none enters.
        ([0.0, -1e-8, 0.5, -0.05], [1.0, 1.0, 1.0, BIG_M], -1),
        # The coordinator's order: a bid, a dummy-row lane, an
        # artificial-column lane and the corner, all equal: the bid wins.
        ([-5.0, -5.0, -5.0, -5.0], [2.0, 0.0, BIG_M, 0.0], 0),
        ([0.0, -5.0, -5.0, -5.0], [2.0, 0.0, BIG_M, 0.0], 1),
    ],
)
def test_entering_lane(reduced, cost, entering):
    assert _best_entering(np.array(reduced), np.array(cost), 1.0) == entering


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


@pytest.mark.parametrize(
    "supply, demand, cost",
    [
        ([np.inf], [np.inf], [[1.0]]),
        ([1.0], [np.inf], [[1.0]]),
        ([1.0], [2.0], [[np.nan]]),
        ([1.0], [2.0], [[-np.inf]]),
    ],
    ids=["inf-supply-and-demand", "inf-demand", "nan-cost", "minus-inf-cost"],
)
def test_non_finite_input_rejected(supply, demand, cost):
    """An infinite supply once solved to OPTIMAL with objective inf, and
    a NaN or -inf cost was read as a forbidden lane; only +inf is one."""
    with pytest.raises(SolverError):
        TransportationProblem(np.array(supply), np.array(demand), np.array(cost))


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
    ref = highs_status_objective(problem)
    if ref is None:
        pytest.skip("scipy is not installed")
    assert own.status == ref[0], (own.status, ref[0])
    if own.status is SolveStatus.OPTIMAL:
        assert own.objective == pytest.approx(ref[1], abs=1e-5)
        # Flow is feasible: supplies met, demands respected, no
        # forbidden lane used.
        np.testing.assert_allclose(own.flow.sum(axis=1), supply, atol=1e-6)
        assert (own.flow.sum(axis=0) <= demand + 1e-6).all()
        assert (own.flow[~np.isfinite(cost)] <= 1e-9).all()
