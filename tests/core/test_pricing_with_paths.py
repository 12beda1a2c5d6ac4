"""``with_paths`` is the caller's: route-less solves never build paths.

A ``with_routes=False`` placement, every zone's pricing in a
distributed solve and a direct ``with_paths=False`` engine call must
reach :meth:`ResponseTimeModel.resistance_matrix` with
``with_paths=False`` — and the ``(R, hops)`` they get are exactly the
ones a ``with_paths=True`` call returns, so no decision can depend on
whether routes were asked for.
"""

import numpy as np
import pytest

from repro.core.heuristic import solve_heuristic
from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.zoning import DistributedPlacementEngine, partition_by_pod
from repro.routing import PathEngine, ResponseTimeModel, TrminEngine, response_time
from repro.topology import build_fat_tree
from tests import oracles

ENGINES = [PathEngine.DP, PathEngine.ENUMERATION]

# Busy nodes in three pods (three zones price), candidates in five.
BUSY = (16, 24, 33)
CANDIDATES = (17, 18, 25, 40, 41, 48, 56, 57)


@pytest.fixture
def topology():
    topo = build_fat_tree(8)
    rng = np.random.default_rng(21)
    topo.set_link_utilizations(rng.uniform(0.0, 0.9, topo.num_edges))
    return topo


@pytest.fixture
def seen_with_paths(monkeypatch):
    """Every ``with_paths`` value the one pricing pipeline was called with."""
    seen = []
    original = ResponseTimeModel.resistance_matrix

    def spy(self, topology, sources, destinations, with_paths=False):
        seen.append(with_paths)
        result = original(self, topology, sources, destinations, with_paths)
        if not with_paths:
            assert result[2] == {}
        return result

    monkeypatch.setattr(ResponseTimeModel, "resistance_matrix", spy)
    return seen


def make_problem(topology):
    return PlacementProblem(
        topology=topology,
        busy=BUSY,
        candidates=CANDIDATES,
        cs=np.array([12.0, 8.0, 5.0]),
        cd=np.full(len(CANDIDATES), 6.0),
        data_mb=np.array([10.0, 20.0, 5.0]),
        max_hops=4,
    )


@pytest.mark.parametrize("path_engine", ENGINES)
class TestWithPathsIsForwarded:
    def test_direct_call_builds_no_paths_and_prices_the_same(
        self, topology, seen_with_paths, path_engine
    ):
        engine = TrminEngine(ResponseTimeModel(engine=path_engine, max_hops=4))
        R, hops, paths = engine.resistance_matrix(
            topology, BUSY, CANDIDATES, with_paths=False
        )
        assert seen_with_paths == [False]
        assert paths == {}
        R_routed, hops_routed, routed = engine.resistance_matrix(
            topology, BUSY, CANDIDATES, with_paths=True
        )
        assert seen_with_paths == [False, True]
        assert len(routed) == int(np.isfinite(R_routed).sum()) > 0
        assert np.array_equal(R, R_routed)
        assert np.array_equal(hops, hops_routed)

    def test_routeless_placement_builds_no_paths(
        self, topology, seen_with_paths, path_engine
    ):
        model = ResponseTimeModel(engine=path_engine, max_hops=4)
        report = PlacementEngine(response_model=model, with_routes=False).solve(
            make_problem(topology)
        )
        assert report.feasible
        assert seen_with_paths == [False]

    def test_zone_pricing_builds_no_paths(
        self, topology, seen_with_paths, path_engine
    ):
        model = ResponseTimeModel(engine=path_engine, max_hops=4)
        report = DistributedPlacementEngine(
            zones=partition_by_pod(topology),
            engine=PlacementEngine(response_model=model, with_routes=False),
        ).solve(make_problem(topology))
        assert report.feasible
        # One Trmin pricing call per zone that owns a busy row; the
        # protocol prices those same rows, it does not re-price routes.
        assert seen_with_paths == [False, False, False]


@pytest.fixture
def walked(monkeypatch):
    """``(source, destination)`` of every dp route walk."""
    calls = []
    walk = response_time._walk

    def spy(topology, source, row, destination):
        calls.append((source, destination))
        return walk(topology, source, row, destination)

    monkeypatch.setattr(response_time, "_walk", spy)
    return calls


class TestRoutesOnlyForFlows:
    """With routes on, a dp solve walks one route per reported flow —
    not one per reachable pair — and it is the route an eager walk of
    every pair would have given that flow."""

    def test_placement_walks_one_route_per_assignment(self, topology, walked):
        problem = make_problem(topology)
        report = PlacementEngine(with_routes=True).solve(problem)
        assert report.feasible and report.assignments
        assert len(walked) == len(report.assignments)
        model = ResponseTimeModel(engine=PathEngine.DP, max_hops=problem.max_hops)
        _, _, eager = oracles.resistance_matrix(model, topology, BUSY, CANDIDATES)
        assert len(eager) > len(report.assignments)
        for a in report.assignments:
            assert a.route == eager[(a.busy, a.candidate)]

    def test_wider_radius_heuristic_walks_one_route_per_assignment(
        self, topology, walked
    ):
        report = solve_heuristic(make_problem(topology), hop_radius=2)
        assert walked == []  # assignments, and their routes, build on access
        assert report.assignments
        assert all(a.route is not None for a in report.assignments)
        assert len(walked) == len(report.assignments)
