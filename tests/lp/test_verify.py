"""Tests for the independent solution verifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import LinearProgram, Solution, SolveStatus, lp_sum, solve_scipy
from tests.oracles.lp_verify import (
    check_feasibility,
    dual_objective,
    duality_gap_bound,
    verify_solution,
)


def transport_lp(supply, demand, cost):
    m, n = cost.shape
    lp = LinearProgram()
    xs = [[lp.add_variable(f"x_{i}_{j}") for j in range(n)] for i in range(m)]
    for i in range(m):
        lp.add_constraint(lp_sum(xs[i]) == float(supply[i]), name=f"s{i}")
    for j in range(n):
        lp.add_constraint(
            lp_sum(xs[i][j] for i in range(m)) <= float(demand[j]), name=f"d{j}"
        )
    lp.set_objective(lp_sum(cost[i, j] * xs[i][j] for i in range(m) for j in range(n)))
    return lp


class TestFeasibilityCheck:
    def test_clean_solution(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=5.0)
        lp.add_constraint(x <= 4, name="cap")
        assert check_feasibility(lp, {"x": 3.0}) == []

    def test_bound_violations_reported(self):
        lp = LinearProgram()
        lp.add_variable("x", lower=1.0, upper=5.0)
        msgs = check_feasibility(lp, {"x": 0.0})
        assert any("below lower bound" in m for m in msgs)
        msgs = check_feasibility(lp, {"x": 9.0})
        assert any("above upper bound" in m for m in msgs)

    def test_constraint_violation_reported(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_constraint(x <= 2, name="cap")
        msgs = check_feasibility(lp, {"x": 3.0})
        assert any("cap" in m for m in msgs)

    def test_integrality_checked(self):
        lp = LinearProgram()
        lp.add_variable("n", is_integer=True)
        assert check_feasibility(lp, {"n": 1.5})
        assert check_feasibility(lp, {"n": 2.0}) == []


class TestDualityCertificate:
    def test_scipy_solution_certified_optimal(self):
        rng = np.random.default_rng(0)
        lp = transport_lp(
            np.array([5.0, 3.0]), np.array([4.0, 6.0]), rng.uniform(1, 5, (2, 2))
        )
        solution = solve_scipy(lp)
        verdict = verify_solution(lp, solution)
        assert verdict.feasible
        assert verdict.certified_optimal, verdict

    def test_simplex_solution_feasible_but_uncertified(self):
        """A solution that carries values but no duals: feasibility holds
        but no optimality certificate is produced."""
        lp = transport_lp(
            np.array([5.0]), np.array([10.0]), np.array([[2.0]])
        )
        solution = Solution(
            status=SolveStatus.OPTIMAL, objective=10.0, values={"x_0_0": 5.0}
        )
        verdict = verify_solution(lp, solution)
        assert verdict.feasible
        assert verdict.duality_gap is None
        assert not verdict.certified_optimal

    def test_suboptimal_claim_gets_positive_gap(self):
        """Hand a feasible-but-suboptimal point to the verifier with the
        true dual prices: the gap exposes the slack."""
        lp = transport_lp(
            np.array([5.0]), np.array([10.0, 10.0]), np.array([[1.0, 3.0]])
        )
        optimal = solve_scipy(lp)
        assert optimal.objective == pytest.approx(5.0)
        # Suboptimal primal: ship on the expensive lane.
        fake = Solution(
            status=SolveStatus.OPTIMAL,
            objective=15.0,
            values={"x_0_0": 0.0, "x_0_1": 5.0},
            duals=dict(optimal.duals),
        )
        gap = duality_gap_bound(lp, fake)
        assert gap == pytest.approx(10.0)
        assert not verify_solution(lp, fake).certified_optimal

    def test_non_optimal_status_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        verdict = verify_solution(lp, Solution(status=SolveStatus.INFEASIBLE))
        assert not verdict.feasible

    def test_dual_objective_includes_constant(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=4.0)
        lp.add_constraint(x >= 1, name="floor")
        lp.set_objective(x + 10)
        solution = solve_scipy(lp)
        assert solution.objective == pytest.approx(11.0)
        assert dual_objective(lp, solution.duals) == pytest.approx(11.0)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_scipy_transportation_always_certifies(self, m, n, seed):
        """For the placement program's structure, HiGHS optima always
        pass the weak-duality certificate (x = 0 optimal bases aside,
        these LPs don't lean on variable upper bounds)."""
        rng = np.random.default_rng(seed)
        supply = rng.uniform(0.0, 10.0, m)
        demand = rng.uniform(0.0, 10.0, n)
        if supply.sum() > demand.sum():
            supply *= 0.9 * demand.sum() / supply.sum()
        lp = transport_lp(supply, demand, rng.uniform(1.0, 9.0, (m, n)))
        solution = solve_scipy(lp)
        if solution.status is SolveStatus.OPTIMAL:
            verdict = verify_solution(lp, solution)
            assert verdict.feasible, verdict.violations
            assert verdict.duality_gap == pytest.approx(0.0, abs=1e-6)
