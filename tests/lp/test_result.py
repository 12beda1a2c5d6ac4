"""Tests for the Solution container."""

import math

from repro.lp import Solution, SolveStatus


class TestSolution:
    def test_getitem_and_value(self):
        sol = Solution(status=SolveStatus.OPTIMAL, objective=1.0, values={"x": 2.0})
        assert sol["x"] == 2.0
        assert sol.value("x") == 2.0
        assert sol.value("missing", default=7.0) == 7.0

    def test_default_objective_is_nan(self):
        sol = Solution(status=SolveStatus.INFEASIBLE)
        assert math.isnan(sol.objective)

    def test_status_is_optimal_property(self):
        assert SolveStatus.OPTIMAL.is_optimal
        assert not SolveStatus.INFEASIBLE.is_optimal
        assert not SolveStatus.UNBOUNDED.is_optimal
