"""Tests for the heterogeneous-coefficient and integral placement
extensions (paper's 'coefficient factor' remark and ILP naming)."""

import numpy as np
import pytest

from repro.core import PlacementEngine, PlacementProblem
from repro.errors import PlacementError
from repro.lp import SolveStatus
from tests.topologies import build_star


def star(cs=10.0, cd=(8.0, 8.0)):
    topo = build_star(2)
    for link in topo.links:
        link.utilization = 0.5
    return topo, (0,), (1, 2), np.array([cs]), np.asarray(cd, dtype=float)


class TestHeterogeneousCoefficients:
    def test_coefficient_shrinks_effective_capacity(self):
        """h=2 means each offloaded point costs 2 points at the
        destination: capacity 8 absorbs only 4 source points."""
        topo, busy, cands, cs, cd = star(cs=10.0, cd=(8.0, 8.0))
        problem = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]),
            capacity_coefficients=np.array([[2.0, 1.0]]),
        )
        report = PlacementEngine().solve(problem)
        assert report.feasible
        flows = {a.candidate: a.amount_pct for a in report.assignments}
        # Destination 1 can host at most 4 source-points (8 / 2).
        assert flows.get(1, 0.0) <= 4.0 + 1e-9
        assert sum(flows.values()) == pytest.approx(10.0)

    def test_coefficients_can_make_problem_infeasible(self):
        topo, busy, cands, cs, cd = star(cs=10.0, cd=(8.0, 8.0))
        problem = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]),
            capacity_coefficients=np.array([[2.0, 2.0]]),  # 16/2 = 8 < 10
        )
        report = PlacementEngine().solve(problem)
        assert report.status is SolveStatus.INFEASIBLE

    def test_unit_coefficients_match_homogeneous(self):
        topo, busy, cands, cs, cd = star()
        base = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]),
        )
        unit = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]),
            capacity_coefficients=np.ones((1, 2)),
        )
        r_base = PlacementEngine().solve(base)
        r_unit = PlacementEngine().solve(unit)
        assert r_base.objective_beta == pytest.approx(r_unit.objective_beta)

    def test_transportation_backend_transparently_upgraded(self):
        topo, busy, cands, cs, cd = star()
        problem = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]),
            capacity_coefficients=np.array([[1.5, 1.0]]),
        )
        report = PlacementEngine().solve(problem)
        assert report.feasible  # no crash, handled by the general path

    def test_shape_and_sign_validation(self):
        topo, busy, cands, cs, cd = star()
        with pytest.raises(PlacementError, match="shape"):
            PlacementProblem(
                topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
                data_mb=np.array([5.0]),
                capacity_coefficients=np.ones((2, 2)),
            )
        with pytest.raises(PlacementError, match="positive"):
            PlacementProblem(
                topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
                data_mb=np.array([5.0]),
                capacity_coefficients=np.array([[0.0, 1.0]]),
            )

    def test_is_homogeneous_flag(self):
        topo, busy, cands, cs, cd = star()
        base = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]),
        )
        assert base.is_homogeneous
        het = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]),
            capacity_coefficients=np.ones((1, 2)),
        )
        assert not het.is_homogeneous


class TestIntegralPlacement:
    @pytest.mark.parametrize(
        "coefficients", [None, np.array([[1.0, 0.5]])],
        ids=["scipy", "scipy-heterogeneous"],
    )
    def test_integral_flows_are_whole_units(self, coefficients):
        topo, busy, cands, cs, cd = star(cs=7.0, cd=(4.5, 5.5))
        problem = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]), integral=True,
            capacity_coefficients=coefficients,
        )
        report = PlacementEngine().solve(problem)
        assert report.feasible
        for a in report.assignments:
            assert a.amount_pct == pytest.approx(round(a.amount_pct))
        assert report.total_offloaded == pytest.approx(7.0)

    def test_integral_respects_fractional_capacity(self):
        """Capacity 4.5 admits at most 4 whole units."""
        topo, busy, cands, cs, cd = star(cs=7.0, cd=(4.5, 5.5))
        problem = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]), integral=True,
        )
        report = PlacementEngine().solve(problem)
        flows = {a.candidate: a.amount_pct for a in report.assignments}
        assert flows.get(1, 0.0) <= 4.0 + 1e-9
        assert flows.get(2, 0.0) <= 5.0 + 1e-9

    def test_integral_infeasible_when_rounding_blocks(self):
        """cs=9 but capacities 4.5+4.5 floor to 4+4=8 whole units."""
        topo, busy, cands, cs, cd = star(cs=9.0, cd=(4.5, 4.5))
        problem = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]), integral=True,
        )
        report = PlacementEngine().solve(problem)
        assert report.status is SolveStatus.INFEASIBLE
        # The continuous relaxation, by contrast, is feasible.
        relaxed = PlacementProblem(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]),
        )
        assert PlacementEngine().solve(relaxed).feasible

    def test_integral_requires_integer_excess(self):
        topo, busy, cands, cs, cd = star(cs=7.3)
        with pytest.raises(PlacementError, match="integer excess"):
            PlacementProblem(
                topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
                data_mb=np.array([5.0]), integral=True,
            )

    def test_integral_objective_at_least_continuous(self):
        """Integrality can only cost response time, never save it."""
        topo, busy, cands, cs, cd = star(cs=6.0, cd=(3.5, 9.0))
        kwargs = dict(
            topology=topo, busy=busy, candidates=cands, cs=cs, cd=cd,
            data_mb=np.array([5.0]),
        )
        cont = PlacementEngine().solve(PlacementProblem(**kwargs))
        integ = PlacementEngine().solve(
            PlacementProblem(**kwargs, integral=True)
        )
        assert integ.objective_beta >= cont.objective_beta - 1e-9
