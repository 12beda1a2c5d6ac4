"""Tests for the multi-resource (CPU + memory) placement extension."""

import numpy as np
import pytest

from repro.core import MultiResourceProblem, solve_multiresource
from repro.errors import PlacementError
from repro.lp import SolveStatus
from tests.topologies import build_star


def star_problem(demands, spares, resources=("cpu_pct", "memory_pct")):
    topo = build_star(len(spares))
    for link in topo.links:
        link.utilization = 0.5
    return MultiResourceProblem(
        topology=topo,
        busy=(0,),
        candidates=tuple(range(1, len(spares) + 1)),
        demands=np.asarray(demands, dtype=float),
        spares=np.asarray(spares, dtype=float),
        data_mb=np.array([10.0]),
        resources=resources,
    )


class TestValidation:
    def test_shape_checks(self):
        topo = build_star(1)
        with pytest.raises(PlacementError, match="demands shape"):
            MultiResourceProblem(
                topology=topo, busy=(0,), candidates=(1,),
                demands=np.ones((2, 2)), spares=np.ones((1, 2)),
                data_mb=np.array([1.0]),
            )
        with pytest.raises(PlacementError, match="spares shape"):
            MultiResourceProblem(
                topology=topo, busy=(0,), candidates=(1,),
                demands=np.ones((1, 2)), spares=np.ones((2, 2)),
                data_mb=np.array([1.0]),
            )

    def test_negative_rejected(self):
        topo = build_star(1)
        with pytest.raises(PlacementError, match="non-negative"):
            MultiResourceProblem(
                topology=topo, busy=(0,), candidates=(1,),
                demands=np.array([[-1.0, 1.0]]), spares=np.ones((1, 2)),
                data_mb=np.array([1.0]),
            )

    def test_overlap_rejected(self):
        topo = build_star(1)
        with pytest.raises(PlacementError, match="overlap"):
            MultiResourceProblem(
                topology=topo, busy=(1,), candidates=(1,),
                demands=np.ones((1, 2)), spares=np.ones((1, 2)),
                data_mb=np.array([1.0]),
            )


class TestSolve:
    def test_single_candidate_full_offload(self):
        problem = star_problem(demands=[[10.0, 4.0]], spares=[[12.0, 6.0]])
        report = solve_multiresource(problem)
        assert report.feasible
        assert report.fractions[0, 0] == pytest.approx(1.0)
        np.testing.assert_allclose(
            report.per_resource_usage["cpu_pct"], [10.0]
        )
        np.testing.assert_allclose(
            report.per_resource_usage["memory_pct"], [4.0]
        )

    def test_memory_is_the_binding_resource(self):
        """CPU fits on candidate 1 alone, memory forces a split."""
        problem = star_problem(
            demands=[[10.0, 8.0]],
            spares=[[20.0, 4.0], [20.0, 20.0]],
        )
        report = solve_multiresource(problem)
        assert report.feasible
        # Candidate 0 can hold at most 4/8 = 50% of the workload.
        assert report.fractions[0, 0] <= 0.5 + 1e-9
        assert report.fractions.sum() == pytest.approx(1.0)
        assert report.per_resource_usage["memory_pct"][0] <= 4.0 + 1e-9

    def test_infeasible_when_any_resource_short(self):
        problem = star_problem(
            demands=[[10.0, 8.0]],
            spares=[[100.0, 3.0], [100.0, 4.0]],  # memory 7 < 8 needed
        )
        report = solve_multiresource(problem)
        assert report.status is SolveStatus.INFEASIBLE

    def test_reduces_to_single_resource_case(self):
        """With one resource the optimum matches PlacementEngine."""
        from repro.core import PlacementEngine, PlacementProblem

        topo = build_star(2)
        for link in topo.links:
            link.utilization = 0.5
        multi = MultiResourceProblem(
            topology=topo, busy=(0,), candidates=(1, 2),
            demands=np.array([[10.0]]), spares=np.array([[6.0], [20.0]]),
            data_mb=np.array([10.0]), resources=("cpu_pct",),
        )
        multi_report = solve_multiresource(multi)
        single = PlacementProblem(
            topology=topo, busy=(0,), candidates=(1, 2),
            cs=np.array([10.0]), cd=np.array([6.0, 20.0]),
            data_mb=np.array([10.0]),
        )
        single_report = PlacementEngine().solve(single)
        assert multi_report.feasible and single_report.feasible
        assert multi_report.objective_beta * 10.0 == pytest.approx(
            single_report.objective_beta, rel=1e-6
        )

    def test_no_busy_trivial(self):
        topo = build_star(1)
        problem = MultiResourceProblem(
            topology=topo, busy=(), candidates=(1,),
            demands=np.zeros((0, 2)), spares=np.ones((1, 2)),
            data_mb=np.zeros(0),
        )
        report = solve_multiresource(problem)
        assert report.feasible
        assert report.objective_beta == 0.0

    def test_no_candidates_infeasible(self):
        topo = build_star(1)
        problem = MultiResourceProblem(
            topology=topo, busy=(0,), candidates=(),
            demands=np.ones((1, 2)), spares=np.zeros((0, 2)),
            data_mb=np.array([1.0]),
        )
        assert solve_multiresource(problem).status is SolveStatus.INFEASIBLE

    def test_assignments_report_dominant_resource_amount(self):
        problem = star_problem(demands=[[10.0, 4.0]], spares=[[12.0, 6.0]])
        report = solve_multiresource(problem)
        assert len(report.assignments) == 1
        assert report.assignments[0].amount_pct == pytest.approx(10.0)
        assert report.assignments[0].route is not None
