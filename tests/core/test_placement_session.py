"""Tests for PlacementSession: the LP warm basis carried across solves."""

import numpy as np
import pytest

from repro.core.placement import (
    PlacementEngine,
    PlacementProblem,
    PlacementSession,
)
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree


def make_problem(topology, cs_scale=1.0, busy=(0, 1), candidates=(2, 3, 4)):
    return PlacementProblem(
        topology=topology,
        busy=tuple(busy),
        candidates=tuple(candidates),
        cs=np.array([20.0, 10.0]) * cs_scale,
        cd=np.array([15.0, 15.0, 10.0]),
        data_mb=np.full(2, 10.0),
    )


@pytest.fixture
def topology():
    topo = build_fat_tree(4)
    rng = np.random.default_rng(13)
    topo.set_link_utilizations(rng.uniform(0.0, 0.8, topo.num_edges))
    return topo


@pytest.fixture
def session():
    return PlacementSession(
        engine=PlacementEngine(
            response_model=ResponseTimeModel(engine=PathEngine.DP),
            with_routes=False,
        )
    )


class TestWarmReuse:
    def test_perturbed_resolve_warm_starts_and_matches_cold(
        self, topology, session
    ):
        first = session.solve(make_problem(topology))
        assert first.feasible
        assert not first.lp_warm_started
        assert session.warm_attempts == 0

        perturbed = make_problem(topology, cs_scale=0.9)
        warm = session.solve(perturbed)
        assert warm.feasible
        assert session.warm_attempts == 1
        assert session.warm_hits == 1
        assert warm.lp_warm_started

        cold = PlacementEngine(
            response_model=ResponseTimeModel(engine=PathEngine.DP),
            with_routes=False,
        ).solve(perturbed)
        assert warm.objective_beta == pytest.approx(
            cold.objective_beta, abs=1e-9
        )

    def test_identical_resolve_takes_zero_lp_pivots(self, topology, session):
        session.solve(make_problem(topology))
        again = session.solve(make_problem(topology))
        assert again.lp_warm_started
        assert again.lp_iterations == 0


class TestWarmSkips:
    def test_different_busy_set_solves_cold(self, topology, session):
        session.solve(make_problem(topology))
        other = session.solve(
            make_problem(topology, busy=(0, 5), candidates=(2, 3, 4))
        )
        assert session.warm_attempts == 0
        assert not other.lp_warm_started

    def test_scipy_backend_keeps_no_basis(self, topology):
        session = PlacementSession(
            engine=PlacementEngine(
                response_model=ResponseTimeModel(engine=PathEngine.DP),
                lp_backend="scipy",
                with_routes=False,
            )
        )
        session.solve(make_problem(topology))
        report = session.solve(make_problem(topology, cs_scale=0.9))
        assert session.warm_attempts == 0
        assert not report.lp_warm_started

    def test_infeasible_solve_drops_the_stored_basis(self, topology, session):
        session.solve(make_problem(topology))
        # Excess far beyond total spare: INFEASIBLE, basis must be dropped.
        bad = PlacementProblem(
            topology=topology,
            busy=(0, 1),
            candidates=(2, 3, 4),
            cs=np.array([500.0, 400.0]),
            cd=np.array([15.0, 15.0, 10.0]),
            data_mb=np.full(2, 10.0),
        )
        report = session.solve(bad)
        assert not report.feasible
        follow_up = session.solve(make_problem(topology))
        assert follow_up.feasible
        assert not follow_up.lp_warm_started

    def test_reset_forces_the_next_solve_cold(self, topology, session):
        session.solve(make_problem(topology))
        session.reset()
        report = session.solve(make_problem(topology))
        assert session.warm_attempts == 0
        assert not report.lp_warm_started
