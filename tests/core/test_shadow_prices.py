"""Tests for capacity shadow prices (LP duals) on placement reports."""

import dataclasses

import numpy as np
import pytest

from repro.core import PlacementEngine, PlacementProblem
from tests.topologies import build_star


def star_problem():
    topo = build_star(2)
    topo.links[0].utilization = 0.2  # cheap lane to candidate 1
    topo.links[1].utilization = 0.8  # expensive lane to candidate 2
    return PlacementProblem(
        topology=topo, busy=(0,), candidates=(1, 2),
        cs=np.array([10.0]), cd=np.array([6.0, 20.0]),
        data_mb=np.array([5.0]),
    )


class TestPlacementDuals:
    def test_binding_capacity_has_negative_dual(self):
        report = PlacementEngine().solve(star_problem())
        assert report.capacity_duals[1] < 0
        assert report.capacity_duals[2] == pytest.approx(0.0)

    def test_dual_equals_cost_difference(self):
        """Textbook LP: the binding cheap lane's shadow price equals the
        (cheap - expensive) unit-cost gap."""
        report = PlacementEngine().solve(star_problem())
        cheap = 5.0 / (10_000.0 * 0.8)  # D / available bandwidth
        pricey = 5.0 / (10_000.0 * 0.2)
        assert report.capacity_duals[1] == pytest.approx(cheap - pricey)

    def test_dual_predicts_objective_change(self):
        """beta(cd + eps) - beta(cd) ≈ dual * eps for a small increase
        of the binding capacity."""
        base = star_problem()
        report = PlacementEngine().solve(base)
        eps = 0.5
        bumped = dataclasses.replace(base, cd=base.cd + np.array([eps, 0.0]))
        bumped_report = PlacementEngine().solve(bumped)
        predicted = report.objective_beta + report.capacity_duals[1] * eps
        assert bumped_report.objective_beta == pytest.approx(predicted, rel=1e-6)

    def test_transportation_backend_reports_duals(self):
        """The transportation solve fills one dual per candidate, and a
        problem with no busy node prices free capacity at zero."""
        report = PlacementEngine().solve(star_problem())
        assert set(report.capacity_duals) == {1, 2}
        idle = dataclasses.replace(
            star_problem(), busy=(), cs=np.zeros(0), data_mb=np.zeros(0)
        )
        assert PlacementEngine().solve(idle).capacity_duals == {1: 0.0, 2: 0.0}
