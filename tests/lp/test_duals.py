"""Both transportation solvers return an optimal dual, and the dual
certifies the optimum by itself: no second solver is consulted.

Degenerate instances have many optimal duals, so the bar is the
certificate, not equality with another solver's dual. For ``(u, v)`` on
an optimal solve of ``min c·x, Σ_j x_ij = s_i, Σ_i x_ij <= d_j, x >= 0``:

* every finite lane has reduced cost ``c_ij - u_i - v_j >= 0``;
* every basic finite lane prices to 0 (complementary slackness);
* ``v <= 0``: a ``<=`` row's shadow price;
* ``s·u + d·v`` equals the objective (strong duality).
"""

import numpy as np
import pytest

from repro.core import PlacementEngine, PlacementProblem, ThresholdPolicy, classify_network
from repro.core.zoning import DistributedPlacementEngine, partition_by_pod
from repro.experiments.common import IterationSampler
from repro.lp import SolveStatus, TransportationProblem, solve_transportation
from repro.routing import PathEngine, ResponseTimeModel
from repro.topology import build_fat_tree
from tests.lp.test_distributed import _random_zones
from tests.lp.test_vogel import _corpus
from tests.oracles.dsolve import solve_distributed

#: The solvers' own optimality tolerance on a reduced cost, relative to
#: ``1 + |c_ij|``.
LANE_TOL = 1e-7
#: Strong duality, relative to ``max(1, |beta|)``.
OBJ_TOL = 1e-9


def assert_certificate(problem, result, basic):
    """``result``'s duals certify its objective; ``basic`` lists the
    real basic cells of the final basis."""
    assert result.status is SolveStatus.OPTIMAL
    u, v = result.u, result.v
    m, n = problem.cost.shape
    assert u.shape == (m,) and v.shape == (n,)
    finite = np.isfinite(problem.cost)
    cost = np.where(finite, problem.cost, 0.0)
    reduced = cost - u[:, None] - v[None, :]
    slack = LANE_TOL * (1.0 + np.abs(cost))
    assert (reduced[finite] >= -slack[finite]).all()
    for i, j in basic:
        if finite[i, j]:
            assert abs(reduced[i, j]) <= slack[i, j], (i, j)
    assert (v <= LANE_TOL).all()
    dual = float(problem.supply @ u + problem.demand @ v)
    assert abs(dual - result.objective) <= OBJ_TOL * max(1.0, abs(result.objective))


def centralized_basic(result):
    m, _ = result.flow.shape
    return [(i, j) for i, j in result.basis.cells if i < m]


def flowing(result):
    """Lanes carrying flow: basic in any optimal basis that ships it."""
    return list(zip(*np.nonzero(result.flow > 1e-9)))


def _balanced_problem(rng):
    """Supply equals capacity exactly: the solve has no dummy row."""
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
    supply = rng.integers(1, 6, m).astype(float)
    demand = rng.integers(1, 6, n).astype(float)
    demand[-1] += max(supply.sum() - demand.sum(), 0.0)
    supply[-1] += demand.sum() - supply.sum()
    cost = rng.integers(1, 5, (m, n)).astype(float)
    cost[rng.random((m, n)) < 0.1] = np.inf
    return TransportationProblem(supply, demand, cost)


@pytest.mark.parametrize("corpus", ["random", "tie", "balanced"])
def test_both_solvers_certify_on_the_corpora(corpus):
    if corpus == "balanced":
        rng = np.random.default_rng(43_000)
        problems = [_balanced_problem(rng) for _ in range(60)]
    else:
        problems = _corpus(corpus)
    rng = np.random.default_rng(43_100)
    optimal = balanced = 0
    for problem in problems:
        zones = _random_zones(rng, problem.num_sources, problem.num_destinations, 3)
        central = solve_transportation(problem)
        distributed = solve_distributed(problem, *zones)
        assert distributed.status is central.status
        if central.status is not SolveStatus.OPTIMAL:
            assert central.u is central.v is distributed.u is distributed.v is None
            continue
        optimal += 1
        balanced += not central.basis.dummy
        assert_certificate(problem, central, centralized_basic(central))
        assert_certificate(problem, distributed, flowing(distributed))
    assert optimal >= 40
    if corpus == "balanced":
        assert balanced == optimal


def test_certificate_holds_with_a_forbidden_lane_in_the_basis():
    """A degenerate exactly balanced instance whose only spanning trees
    hold a Big-M lane at zero flow: its potential is Big-M-sized and the
    certificate must still hold on the finite lanes."""
    problem = TransportationProblem(
        np.array([1.0, 1.0]), np.array([1.0, 1.0]),
        np.array([[1.0, np.inf], [np.inf, 1.0]]),
    )
    result = solve_transportation(problem)
    basic = centralized_basic(result)
    assert any(np.isinf(problem.cost[c]) for c in basic)
    assert_certificate(problem, result, basic)
    assert_certificate(problem, solve_distributed(problem, [[0, 1]], [[0, 1]]), [])


def test_zero_supply_duals_are_feasible():
    for capacity, cost, zones in (
        ([4.0, 1.0], [[1.0, -2.0], [np.inf, 3.0]], [[0, 1]]),
        ([3.0, 4.0], [[-2.0, 1.0], [5.0, -1.0]], [[0], [1]]),
    ):
        problem = TransportationProblem(np.zeros(2), np.array(capacity), np.array(cost))
        for result in (
            solve_transportation(problem),
            solve_distributed(problem, zones, zones),
        ):
            assert np.array_equal(result.v, np.zeros(2))
            assert_certificate(problem, result, [])


@pytest.mark.parametrize("k", [4, 8, 16])
def test_fat_tree_placements_certify_and_report_their_duals(k):
    policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    topology = build_fat_tree(k)
    sampler = IterationSampler(topology, x_min=policy.x_min, seed=k)
    engine = PlacementEngine(
        response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=4),
        with_routes=False,
    )
    zones = partition_by_pod(topology)
    solved = 0
    for _, capacities in sampler.states(3):
        roles = classify_network(capacities, policy)
        problem = PlacementProblem(
            topology=topology,
            busy=tuple(roles.busy),
            candidates=tuple(roles.candidates),
            cs=np.array([policy.excess_load(capacities[b]) for b in roles.busy]),
            cd=np.array([policy.spare_capacity(capacities[c]) for c in roles.candidates]),
            data_mb=np.full(len(roles.busy), 10.0),
            max_hops=4,
        )
        trmin, _, _ = engine.trmin_engine.trmin_matrix(
            topology, list(problem.busy), list(problem.candidates),
            problem.data_mb, with_paths=False, model=engine._model_for(problem),
        )
        lp = TransportationProblem(problem.cs, problem.cd, trmin)
        central = solve_transportation(lp)
        if central.status is not SolveStatus.OPTIMAL:
            continue
        solved += 1
        assert_certificate(lp, central, centralized_basic(central))
        rows = {z.zone_id: [] for z in zones}
        cols = {z.zone_id: [] for z in zones}
        owner = {node: z.zone_id for z in zones for node in z.nodes}
        for i, b in enumerate(problem.busy):
            rows[owner[b]].append(i)
        for j, c in enumerate(problem.candidates):
            cols[owner[c]].append(j)
        distributed = solve_distributed(lp, list(rows.values()), list(cols.values()))
        assert_certificate(lp, distributed, flowing(distributed))
        for report, result in (
            (engine.solve(problem), central),
            (DistributedPlacementEngine(zones, engine).solve(problem), distributed),
        ):
            assert report.feasible
            assert report.capacity_duals == dict(zip(problem.candidates, result.v.tolist()))
    assert solved
