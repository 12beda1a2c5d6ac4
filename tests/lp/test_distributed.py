"""Distributed transportation solve: exactness against the centralized LP.

The distributed protocol IS the transportation simplex with its
candidate-list pricing split across zones, so the bar is not
"approximately right" — on every instance the status must match the
centralized solver's and (when optimal) the objective must agree to
float noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.roles import classify_network
from repro.core.thresholds import ThresholdPolicy
from repro.core.zoning import (
    DistributedPlacementEngine,
    DistributedPlacementReport,
    partition_by_pod,
    zone_boundaries,
)
from repro.core.metrics import relief_by_source, relief_divergence
from repro.errors import PlacementError
from repro.experiments.common import IterationSampler
from repro.lp import (
    SolveStatus,
    TransportationProblem,
    solve_distributed,
    solve_transportation,
)
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree

OBJ_TOL = 1e-6


def _random_problem(rng: np.random.Generator):
    """A random (possibly infeasible, possibly forbidden-laned) instance."""
    m = int(rng.integers(1, 15))
    n = int(rng.integers(1, 18))
    supply = rng.uniform(0.5, 12.0, m)
    demand = rng.uniform(0.5, 12.0, n)
    if rng.random() < 0.85:  # mostly feasible: scale demand above supply
        demand *= (supply.sum() / demand.sum()) * float(rng.uniform(1.05, 1.8))
    cost = rng.uniform(0.1, 60.0, (m, n))
    if rng.random() < 0.6:  # heterogeneous cost scales per row
        cost *= rng.uniform(0.2, 5.0, (m, 1))
    forbidden = rng.random((m, n)) < 0.25
    cost = np.where(forbidden, np.inf, cost)
    return TransportationProblem(supply, demand, cost)


def _tie_problem(rng: np.random.Generator):
    """An integer instance built for ties: costs in {1, 2, 3}, ~15 %
    forbidden lanes, integer supplies and demands (zeros included)."""
    m = int(rng.integers(1, 10))
    n = int(rng.integers(1, 12))
    supply = rng.integers(0, 6, m).astype(float)
    demand = rng.integers(0, 6, n).astype(float)
    if rng.random() < 0.85 and demand.sum() < supply.sum():  # mostly feasible
        j = int(rng.integers(0, n))
        demand[j] += supply.sum() - demand.sum() + int(rng.integers(0, 4))
    cost = rng.integers(1, 4, (m, n)).astype(float)
    cost[rng.random((m, n)) < 0.15] = np.inf
    return TransportationProblem(supply, demand, cost)


def _highs_status_objective(problem: TransportationProblem):
    """(status, objective) from HiGHS, or ``None`` without scipy."""
    try:
        from scipy.optimize import linprog
    except ImportError:
        return None
    m, n = problem.cost.shape
    lanes = [(i, j) for i in range(m) for j in range(n)
             if np.isfinite(problem.cost[i, j])]
    a_eq = np.zeros((m, len(lanes)))
    a_ub = np.zeros((n, len(lanes)))
    for k, (i, j) in enumerate(lanes):
        a_eq[i, k] = 1.0
        a_ub[j, k] = 1.0
    if not lanes:
        feasible = problem.supply.sum() <= 1e-9
        return (SolveStatus.OPTIMAL if feasible else SolveStatus.INFEASIBLE), 0.0
    res = linprog(
        [problem.cost[i, j] for i, j in lanes],
        A_ub=a_ub, b_ub=problem.demand, A_eq=a_eq, b_eq=problem.supply,
        bounds=(0, None), method="highs",
    )
    if res.status == 2:
        return SolveStatus.INFEASIBLE, float("nan")
    assert res.status == 0, res.message
    return SolveStatus.OPTIMAL, float(res.fun)


def _random_zones(rng: np.random.Generator, m: int, n: int, max_zones: int = 5):
    """A random partition of rows and columns into 1..max_zones zones."""
    zones = int(rng.integers(1, max_zones + 1))
    row_owner = rng.integers(0, zones, m)
    col_owner = rng.integers(0, zones, n)
    zone_rows = [list(np.flatnonzero(row_owner == z)) for z in range(zones)]
    zone_cols = [list(np.flatnonzero(col_owner == z)) for z in range(zones)]
    return zone_rows, zone_cols


class TestConvergenceCorpus:
    """>= 50 seeded instances: exact parity with the centralized LP."""

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_centralized(self, seed):
        rng = np.random.default_rng(seed)
        problem = _random_problem(rng)
        zone_rows, zone_cols = _random_zones(
            rng, problem.num_sources, problem.num_destinations
        )
        reference = solve_transportation(problem)
        result = solve_distributed(problem, zone_rows, zone_cols)
        assert result.status == reference.status, seed
        if reference.status is SolveStatus.OPTIMAL:
            scale = max(1.0, abs(reference.objective))
            assert abs(result.objective - reference.objective) <= OBJ_TOL * scale
            # The flows must satisfy the constraints they claim to.
            flow = result.flow
            np.testing.assert_allclose(
                flow.sum(axis=1), problem.supply, atol=1e-6
            )
            assert (flow.sum(axis=0) <= problem.demand + 1e-6).all()
            assert (flow >= -1e-9).all()


class TestTieCorpus:
    """Tie-heavy integer instances with forbidden lanes: the degenerate
    pivots where the shared leaving-cell tie-break decides the path.

    Tied costs leave a face of optimal flows, and the two solvers may
    stop on different vertices of it, so the distributed flow is checked
    for feasibility and optimality rather than compared cell by cell.
    """

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_centralized_and_highs(self, seed):
        rng = np.random.default_rng(10_000 + seed)
        problem = _tie_problem(rng)
        zone_rows, zone_cols = _random_zones(
            rng, problem.num_sources, problem.num_destinations, max_zones=3
        )
        reference = solve_transportation(problem)
        result = solve_distributed(problem, zone_rows, zone_cols)
        assert result.status == reference.status, seed
        highs = _highs_status_objective(problem)
        if highs is not None:
            assert highs[0] == reference.status, seed
        if reference.status is not SolveStatus.OPTIMAL:
            return
        assert abs(result.objective - reference.objective) <= 1e-9
        if highs is not None:
            assert abs(highs[1] - reference.objective) <= 1e-6
        flow = result.flow
        np.testing.assert_allclose(flow.sum(axis=1), problem.supply, atol=1e-9)
        assert (flow.sum(axis=0) <= problem.demand + 1e-9).all()
        assert (flow >= 0.0).all()
        forbidden = ~np.isfinite(problem.cost)
        assert not flow[forbidden].any()
        cost = np.where(forbidden, 0.0, problem.cost)
        assert abs(float((cost * flow).sum()) - result.objective) <= 1e-9


class TestTopologyLevel:
    """The DistributedPlacementEngine against the centralized engine
    on real fat-tree snapshots, k in {4, 8, 16}."""

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_fat_tree_parity(self, k):
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        topology = build_fat_tree(k)
        sampler = IterationSampler(topology, x_min=policy.x_min, seed=k)
        _, capacities = next(iter(sampler.states(1)))
        roles = classify_network(capacities, policy)
        problem = PlacementProblem(
            topology=topology,
            busy=tuple(roles.busy),
            candidates=tuple(roles.candidates),
            cs=np.array([policy.excess_load(capacities[b]) for b in roles.busy]),
            cd=np.array(
                [policy.spare_capacity(capacities[c]) for c in roles.candidates]
            ),
            data_mb=np.full(len(roles.busy), 10.0),
            max_hops=4,
        )

        def engine():
            return PlacementEngine(
                response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=4),
                with_routes=False,
            )

        central = engine().solve(problem)
        zones = partition_by_pod(topology)
        distributed = DistributedPlacementEngine(zones=zones, engine=engine()).solve(
            problem
        )
        assert isinstance(distributed, DistributedPlacementReport)
        assert distributed.status == central.status
        scale = max(1.0, abs(central.objective_beta))
        assert (
            abs(distributed.objective_beta - central.objective_beta)
            <= OBJ_TOL * scale
        )
        # Same total relief per source, however the lanes were split.
        def relief(assignments):
            return relief_by_source(
                type("O", (), {"source": a.busy, "amount_pct": a.amount_pct})()
                for a in assignments
            )

        assert (
            relief_divergence(
                relief(central.assignments), relief(distributed.assignments)
            )
            <= 1e-6
        )
        assert distributed.boundary_sizes == {
            zid: len(nodes)
            for zid, nodes in zone_boundaries(topology, zones).items()
        }

    def test_rejects_integral_problems(self):
        topology = build_fat_tree(4)
        zones = partition_by_pod(topology)
        problem = PlacementProblem(
            topology=topology,
            busy=(0,),
            candidates=(5,),
            cs=np.array([4.0]),
            cd=np.array([10.0]),
            data_mb=np.array([10.0]),
            integral=True,
        )
        with pytest.raises(PlacementError):
            DistributedPlacementEngine(zones=zones).solve(problem)


class TestEdgeCases:
    def test_infeasible_matches_centralized(self):
        problem = TransportationProblem(
            np.array([5.0, 7.0]), np.array([3.0]), np.array([[1.0], [2.0]])
        )
        reference = solve_transportation(problem)
        result = solve_distributed(problem, [[0], [1]], [[0], []])
        assert result.status == reference.status
        assert result.status is SolveStatus.INFEASIBLE
        assert not result.feasible

    def test_all_forbidden_is_infeasible(self):
        problem = TransportationProblem(
            np.array([2.0]), np.array([5.0]), np.array([[np.inf]])
        )
        result = solve_distributed(problem, [[0]], [[0]])
        assert result.status is SolveStatus.INFEASIBLE

    def test_zero_supply_trivially_optimal(self):
        problem = TransportationProblem(
            np.array([0.0, 0.0]), np.array([4.0]), np.array([[1.0], [2.0]])
        )
        result = solve_distributed(problem, [[0, 1]], [[0]])
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(0.0)

    def test_empty_zone_participates_harmlessly(self):
        problem = TransportationProblem(
            np.array([3.0]), np.array([2.0, 2.0]), np.array([[1.0, 4.0]])
        )
        result = solve_distributed(problem, [[0], []], [[0], [1]])
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(1.0 * 2.0 + 4.0 * 1.0)

    def test_invalid_partition_rejected(self):
        problem = TransportationProblem(
            np.array([3.0]), np.array([4.0]), np.array([[1.0]])
        )
        with pytest.raises(Exception):
            solve_distributed(problem, [[0], [0]], [[0], []])
