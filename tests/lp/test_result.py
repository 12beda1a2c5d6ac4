"""Tests for the solve status."""

from repro.lp import SolveStatus


class TestSolveStatus:
    def test_status_is_optimal_property(self):
        assert SolveStatus.OPTIMAL.is_optimal
        assert not SolveStatus.INFEASIBLE.is_optimal
        assert not SolveStatus.ITERATION_LIMIT.is_optimal
