"""Tests for capacity shadow prices (LP duals) on placement reports."""

import dataclasses

import numpy as np
import pytest

from repro.core import PlacementEngine, PlacementProblem
from repro.lp import LinearProgram, lp_sum, solve_scipy
from tests.topologies import build_star


def star_problem(capacity_coefficients=None):
    topo = build_star(2)
    topo.links[0].utilization = 0.2  # cheap lane to candidate 1
    topo.links[1].utilization = 0.8  # expensive lane to candidate 2
    return PlacementProblem(
        topology=topo, busy=(0,), candidates=(1, 2),
        cs=np.array([10.0]), cd=np.array([6.0, 20.0]),
        data_mb=np.array([5.0]), capacity_coefficients=capacity_coefficients,
    )


def highs_problem():
    """The star problem with unit capacity coefficients: the identical LP,
    solved by HiGHS, which reports duals."""
    return star_problem(capacity_coefficients=np.ones((1, 2)))


class TestPlacementDuals:
    def test_binding_capacity_has_negative_dual(self):
        report = PlacementEngine().solve(highs_problem())
        assert report.capacity_duals[1] < 0
        assert report.capacity_duals[2] == pytest.approx(0.0)

    def test_dual_equals_cost_difference(self):
        """Textbook LP: the binding cheap lane's shadow price equals the
        (cheap - expensive) unit-cost gap."""
        report = PlacementEngine().solve(highs_problem())
        cheap = 5.0 / (10_000.0 * 0.8)  # D / available bandwidth
        pricey = 5.0 / (10_000.0 * 0.2)
        assert report.capacity_duals[1] == pytest.approx(cheap - pricey)

    def test_dual_predicts_objective_change(self):
        """beta(cd + eps) - beta(cd) ≈ dual * eps for a small increase
        of the binding capacity."""
        base = highs_problem()
        report = PlacementEngine().solve(base)
        eps = 0.5
        bumped = dataclasses.replace(base, cd=base.cd + np.array([eps, 0.0]))
        bumped_report = PlacementEngine().solve(bumped)
        predicted = report.objective_beta + report.capacity_duals[1] * eps
        assert bumped_report.objective_beta == pytest.approx(predicted, rel=1e-6)

    def test_transportation_backend_has_no_duals(self):
        report = PlacementEngine().solve(star_problem())
        assert report.capacity_duals == {}


class TestScipyDualExtraction:
    def test_ge_constraint_dual_sign_restored(self):
        """>= rows are negated in dense form; duals must flip back."""
        lp = LinearProgram()
        x = lp.add_variable("x", upper=10.0)
        con = lp.add_constraint(x >= 3, name="floor")
        lp.set_objective(x)  # minimum is x = 3, constraint binding
        solution = solve_scipy(lp)
        # Raising the floor by 1 raises the objective by 1 => dual +1.
        assert solution.duals["floor"] == pytest.approx(1.0)

    def test_equality_dual_present(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        lp.add_constraint(x + y == 5, name="bal")
        lp.set_objective(2 * x + 3 * y)
        solution = solve_scipy(lp)
        # All mass on x; marginal cost of one more unit of balance = 2.
        assert solution.duals["bal"] == pytest.approx(2.0)

    def test_slack_constraint_dual_zero(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=1.0)
        lp.add_constraint(x <= 100, name="loose")
        lp.set_objective(-x)
        solution = solve_scipy(lp)
        assert solution.duals["loose"] == pytest.approx(0.0)
