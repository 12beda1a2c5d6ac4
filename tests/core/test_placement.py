"""Tests for the Eq. 3 placement engine."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlacementEngine, PlacementProblem, ThresholdPolicy, classify_network
from repro.core.zoning import DistributedPlacementEngine, Zone, partition_by_pod
from repro.errors import PlacementError
from repro.lp import SolveStatus, TransportationProblem
from repro.routing import PathEngine, ResponseTimeModel
from repro.topology import (
    CapacityModel,
    Link,
    LinkUtilizationModel,
    Topology,
    build_fat_tree,
)
from tests.oracles.highs import highs_status_objective
from tests.topologies import build_line


def engine_for(solver, problem):
    """A placement engine on ``solver``: the centralized transportation
    simplex, or the distributed one with every node in one zone."""
    if solver == "transportation":
        return PlacementEngine()
    nodes = tuple(range(problem.topology.num_nodes))
    return DistributedPlacementEngine(zones=[Zone(0, nodes)])


def oracle_on_trmin(engine, problem):
    """HiGHS's (status, beta) on the Trmin matrix ``engine`` prices for
    ``problem``, or ``None`` without scipy."""
    trmin, _, _ = engine.trmin_engine.trmin_matrix(
        problem.topology, list(problem.busy), list(problem.candidates),
        problem.data_mb, with_paths=False, model=engine._model_for(problem),
    )
    return highs_status_objective(TransportationProblem(problem.cs, problem.cd, trmin))


def simple_problem():
    """0 (busy) - 1 (candidate) - 2 (candidate); equal links."""
    topo = build_line(3)
    for link in topo.links:
        link.utilization = 0.5
    return PlacementProblem(
        topology=topo,
        busy=(0,),
        candidates=(1, 2),
        cs=np.array([10.0]),
        cd=np.array([6.0, 20.0]),
        data_mb=np.array([5.0]),
    )


class TestProblemValidation:
    def test_shape_checks(self):
        topo = build_line(3)
        with pytest.raises(PlacementError, match="cs has shape"):
            PlacementProblem(topo, (0,), (1,), np.zeros(2), np.zeros(1), np.zeros(1))
        with pytest.raises(PlacementError, match="cd has shape"):
            PlacementProblem(topo, (0,), (1,), np.zeros(1), np.zeros(2), np.zeros(1))
        with pytest.raises(PlacementError, match="data_mb has shape"):
            PlacementProblem(topo, (0,), (1,), np.zeros(1), np.zeros(1), np.zeros(2))

    def test_negative_values_rejected(self):
        topo = build_line(3)
        with pytest.raises(PlacementError, match="non-negative"):
            PlacementProblem(
                topo, (0,), (1,), np.array([-1.0]), np.zeros(1), np.zeros(1)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("field", ["cs", "cd", "data_mb"])
    def test_non_finite_values_rejected(self, field, bad):
        """NaN compares False against every bound, so a sign check alone
        lets it (and inf) through into the LP."""
        kwargs = dict(
            topology=build_line(3), busy=(0,), candidates=(1, 2),
            cs=np.array([1.0]), cd=np.array([2.0, 2.0]), data_mb=np.array([1.0]),
        )
        kwargs[field] = np.array(kwargs[field], dtype=float)
        kwargs[field].flat[0] = bad
        with pytest.raises(PlacementError, match="finite"):
            PlacementProblem(**kwargs)

    def test_overlap_rejected(self):
        topo = build_line(3)
        with pytest.raises(PlacementError, match="both busy and candidate"):
            PlacementProblem(
                topo, (0,), (0,), np.zeros(1), np.zeros(1), np.zeros(1)
            )

    def test_unknown_node_rejected(self):
        topo = build_line(3)
        with pytest.raises(Exception):
            PlacementProblem(
                topo, (9,), (1,), np.zeros(1), np.zeros(1), np.zeros(1)
            )

    def test_totals(self):
        problem = simple_problem()
        assert problem.total_excess == 10.0
        assert problem.total_spare == 26.0


class TestSolve:
    @pytest.mark.parametrize("solver", ["transportation", "distributed"])
    def test_supply_constraint_3b_met(self, solver):
        problem = simple_problem()
        report = engine_for(solver, problem).solve(problem)
        assert report.feasible
        assert report.total_offloaded == pytest.approx(10.0)

    @pytest.mark.parametrize("solver", ["transportation", "distributed"])
    def test_capacity_constraint_3a_respected(self, solver):
        problem = simple_problem()
        report = engine_for(solver, problem).solve(problem)
        to_1 = sum(a.amount_pct for a in report.assignments if a.candidate == 1)
        to_2 = sum(a.amount_pct for a in report.assignments if a.candidate == 2)
        assert to_1 <= 6.0 + 1e-9
        assert to_2 <= 20.0 + 1e-9

    def test_prefers_cheaper_nearer_candidate(self):
        """Node 1 is one hop away, node 2 two hops: fill node 1 first."""
        problem = simple_problem()
        report = PlacementEngine().solve(problem)
        flows = {a.candidate: a.amount_pct for a in report.assignments}
        assert flows[1] == pytest.approx(6.0)
        assert flows[2] == pytest.approx(4.0)

    def test_beta_equals_sum_of_flow_times_trmin(self):
        problem = simple_problem()
        report = PlacementEngine().solve(problem)
        recomputed = sum(a.amount_pct * a.response_time_s for a in report.assignments)
        assert report.objective_beta == pytest.approx(recomputed)

    def test_infeasible_when_spare_insufficient(self):
        topo = build_line(2)
        topo.links[0].utilization = 0.5
        problem = PlacementProblem(
            topo, (0,), (1,), np.array([10.0]), np.array([3.0]), np.array([1.0])
        )
        report = PlacementEngine().solve(problem)
        assert report.status is SolveStatus.INFEASIBLE
        assert report.assignments == ()

    def test_infeasible_when_no_candidates(self):
        topo = build_line(2)
        problem = PlacementProblem(
            topo, (0,), (), np.array([10.0]), np.zeros(0), np.array([1.0])
        )
        assert PlacementEngine().solve(problem).status is SolveStatus.INFEASIBLE

    def test_trivial_when_no_busy(self):
        topo = build_line(2)
        problem = PlacementProblem(
            topo, (), (1,), np.zeros(0), np.array([5.0]), np.zeros(0)
        )
        report = PlacementEngine().solve(problem)
        assert report.feasible
        assert report.objective_beta == 0.0

    def test_max_hops_infeasibility(self):
        """Candidate out of hop range => no lane => infeasible."""
        topo = build_line(4)
        for link in topo.links:
            link.utilization = 0.5
        problem = PlacementProblem(
            topo, (0,), (3,), np.array([5.0]), np.array([10.0]),
            np.array([1.0]), max_hops=2,
        )
        assert PlacementEngine().solve(problem).status is SolveStatus.INFEASIBLE
        problem_ok = PlacementProblem(
            topo, (0,), (3,), np.array([5.0]), np.array([10.0]),
            np.array([1.0]), max_hops=3,
        )
        assert PlacementEngine().solve(problem_ok).feasible

    def test_routes_materialized(self):
        problem = simple_problem()
        report = PlacementEngine(with_routes=True).solve(problem)
        for a in report.assignments:
            assert a.route is not None
            assert a.route.source == a.busy
            assert a.route.destination == a.candidate
            assert a.route.num_hops == a.hops

    def test_report_helpers(self):
        problem = simple_problem()
        report = PlacementEngine().solve(problem)
        assert report.destinations() == [1, 2]
        assert len(report.flows_from(0)) == 2
        assert len(report.flows_to(1)) == 1

    def test_timings_recorded(self):
        report = PlacementEngine().solve(simple_problem())
        assert report.total_seconds > 0
        assert report.trmin_seconds >= 0
        assert report.lp_seconds >= 0


class TestBackendEquivalence:
    @pytest.mark.parametrize("solver", ["transportation", "distributed"])
    def test_unreachable_busy_row_is_infeasible_on_every_backend(self, solver):
        """A busy row with excess and no reachable candidate is
        INFEASIBLE on both solvers, as HiGHS finds on the same Trmin."""
        topo = Topology()
        for _ in range(4):
            topo.add_node()
        topo.add_edge(0, 1, Link(capacity_mbps=1000.0))
        topo.add_edge(2, 3, Link(capacity_mbps=1000.0))
        problem = PlacementProblem(
            topology=topo,
            busy=(0,),
            candidates=(3,),
            cs=np.array([5.0]),
            cd=np.array([10.0]),
            data_mb=np.array([1.0]),
        )
        report = engine_for(solver, problem).solve(problem)
        assert report.status is SolveStatus.INFEASIBLE
        assert np.isnan(report.objective_beta)
        assert report.assignments == ()
        assert report.capacity_duals == {}
        oracle = oracle_on_trmin(PlacementEngine(), problem)
        if oracle is not None:
            assert oracle[0] is SolveStatus.INFEASIBLE

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2000))
    def test_property_backends_agree_on_random_states(self, seed):
        pytest.importorskip("scipy.optimize")
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.1, 0.9, seed=seed).apply(topo)
        policy = ThresholdPolicy(c_max=75.0, co_max=50.0, x_min=10.0)
        caps = CapacityModel(x_min=10.0, seed=seed + 1).sample(topo.num_nodes)
        roles = classify_network(caps, policy)
        if not roles.busy or not roles.candidates:
            return
        problem = PlacementProblem(
            topology=topo,
            busy=tuple(roles.busy),
            candidates=tuple(roles.candidates),
            cs=np.array([policy.excess_load(caps[b]) for b in roles.busy]),
            cd=np.array([policy.spare_capacity(caps[c]) for c in roles.candidates]),
            data_mb=np.full(len(roles.busy), 10.0),
            max_hops=6,
        )
        engine = PlacementEngine(
            response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=6),
            with_routes=False,
        )
        report = engine.solve(problem)
        status, beta = oracle_on_trmin(engine, problem)
        assert report.status is status
        if report.feasible:
            assert abs(report.objective_beta - beta) < 1e-6
            # Every candidate has a non-positive capacity shadow price.
            assert set(report.capacity_duals) == set(problem.candidates)
            assert all(v <= 1e-9 for v in report.capacity_duals.values())


def _fat_tree_problem(topology, policy, seed):
    caps = CapacityModel(x_min=policy.x_min, seed=seed).sample(topology.num_nodes)
    roles = classify_network(caps, policy)
    return PlacementProblem(
        topology=topology,
        busy=tuple(roles.busy),
        candidates=tuple(roles.candidates),
        cs=np.array([policy.excess_load(caps[b]) for b in roles.busy]),
        cd=np.array([policy.spare_capacity(caps[c]) for c in roles.candidates]),
        data_mb=np.full(len(roles.busy), 10.0),
        max_hops=4,
    )


@pytest.mark.parametrize(
    "distributed", [False, True], ids=["centralized", "distributed"]
)
def test_solve_is_a_pure_function_of_its_problem(distributed):
    """Nothing is carried between solves: the same problem gives the same
    report — pivots, epochs and messages included — whatever the engine
    solved before it."""
    topology = build_fat_tree(8)
    LinkUtilizationModel(0.1, 0.9, seed=8).apply(topology)
    policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    first = _fat_tree_problem(topology, policy, seed=8)
    other = _fat_tree_problem(topology, policy, seed=9)
    assert first.busy != other.busy
    engine = PlacementEngine(
        response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=4),
        with_routes=False,
    )
    if distributed:
        engine = DistributedPlacementEngine(
            zones=partition_by_pod(topology), engine=engine
        )
    reports = [engine.solve(p) for p in (first, first, other, first)]
    assert reports[0].feasible and reports[0].lp_iterations > 0
    compared = [
        f.name for f in dataclasses.fields(reports[0]) if "seconds" not in f.name
    ]
    assert {"status", "objective_beta", "assignments", "lp_iterations"} <= set(compared)
    if distributed:
        assert {"rounds", "pivots", "dsolve_messages"} <= set(compared)
    for again in (reports[1], reports[3]):
        for name in compared:
            assert getattr(again, name) == getattr(reports[0], name), name
