"""Eq. 3 stops at the optimum of its own cost scale.

Eq. 3's costs are Trmin in seconds, about 1e-3, so an improving-lane
test of ``reduced < -1e-7·(1 + |c|)`` is absolute there: it read a lane
whose reduced cost was -4.5e-8, 3.6 % of its own cost, as optimal. Both
solvers now judge ``scale + |c|``, with ``scale`` the instance's
largest finite ``|c|`` capped at 1, and the Big-M is counted in the
same unit: potentials that carry a Big-M built for costs of 1 carry
rounding noise far above a floor of 1e-3 and a degenerate solve cycles.

The regression instance is the first optimization round of the
``dist_churn_k16`` benchmark workload at seed 2889578: 26 busy rows by
293 candidates. The centralized solver used to stop 15 pivots in at
beta = 0.3161975098, which HiGHS at its default tolerances also
accepted; the optimum is 0.3161971066.
"""

import numpy as np
import pytest

from repro.core import PlacementEngine
from repro.core import placement as placement_module
from repro.core.zoning import DistributedPlacementEngine
from repro.lp import SolveStatus, TransportationProblem, solve_transportation
from repro.lp.transportation import _best_entering, _big_m, _cost_scale
from tests.lp.test_duals import assert_certificate, centralized_basic
from tests.oracles.dsolve import solve_distributed
from tests.oracles.highs import highs_status_objective
from tests.tools.profile_unit import load_workloads

#: The distributed solve's objective on the instance, which the flow of
#: HiGHS at 1e-10 tolerances also reaches.
OPTIMUM = 0.31619710664015865


@pytest.fixture(scope="module")
def round_one():
    """The workload's first round: its distributed engine and problem,
    captured inside the round (the next period moves the links)."""
    bench = load_workloads().build("dist_churn_k16", 2889578, False)
    bench.setup()
    captured = []
    solve = DistributedPlacementEngine.solve

    def spy(self, problem):
        if not captured:
            lp = []
            solve_lp = placement_module.solve_transportation
            placement_module.solve_transportation = lambda p: lp.append(p) or solve_lp(p)
            try:
                central = PlacementEngine(with_routes=False).solve(problem)
            finally:
                placement_module.solve_transportation = solve_lp
            captured.append((problem, central, lp[0]))
        report = solve(self, problem)
        if len(captured) == 1:
            captured.append(report)
        return report

    DistributedPlacementEngine.solve = spy
    try:
        bench.prepare(0)
        bench.unit(0)
    finally:
        DistributedPlacementEngine.solve = solve
    (problem, central, lp), distributed = captured[:2]
    return problem, central, lp, distributed


def test_round_one_is_the_26_by_293_instance(round_one):
    problem, _, lp, _ = round_one
    assert (len(problem.busy), len(problem.candidates)) == (26, 293)
    assert lp.cost.shape == (26, 293)
    finite = np.isfinite(lp.cost)
    assert np.abs(lp.cost[finite]).max() < 1e-2  # costs far below 1


def test_both_solvers_reach_the_optimum(round_one):
    _, central, lp, distributed = round_one
    assert central.status is distributed.status is SolveStatus.OPTIMAL
    assert central.objective_beta == pytest.approx(OPTIMUM, rel=1e-12, abs=0.0)
    assert distributed.objective_beta == pytest.approx(OPTIMUM, rel=1e-12, abs=0.0)
    result = solve_transportation(lp)
    assert result.objective == pytest.approx(OPTIMUM, rel=1e-12, abs=0.0)
    assert_certificate(lp, result, centralized_basic(result))


def test_highs_at_tight_tolerances_agrees(round_one):
    highs = highs_status_objective(round_one[2])
    if highs is None:
        pytest.skip("scipy is not installed")
    status, objective = highs
    assert status is SolveStatus.OPTIMAL
    assert objective == pytest.approx(OPTIMUM, rel=1e-9, abs=0.0)


def test_the_scale_is_the_largest_cost_capped_at_one():
    assert _cost_scale(7.0e-3) == 7.0e-3
    assert _cost_scale(1.0) == _cost_scale(250.0) == 1.0
    assert _cost_scale(0.0) == 1.0
    # The short stop's lane: a reduced cost of 3.6 % of its own cost
    # improves at the instance's scale and not at the floor of 1.
    reduced, cost = np.array([-4.49e-8, 0.0]), np.array([1.26e-3, 2.0e-3])
    assert _best_entering(reduced, cost, 1.0) == -1
    assert _best_entering(reduced, cost, _cost_scale(7.0e-3)) == 0


def test_the_big_m_is_counted_in_the_cost_scale():
    assert _big_m(7.0e-3, 26, 293) == 2 * 7.0e-3 * 293 * 1e6
    assert _big_m(3.0, 4, 5) == (3.0 + 1.0) * 5 * 1e6  # costs that reach 1: as before


def test_a_degenerate_small_cost_instance_does_not_cycle():
    # Integer costs in milliseconds: ties everywhere. With the floor at
    # the cost scale but a Big-M built for costs of 1, the coordinator's
    # one round pivoted to its 100 000-pivot cap on this instance.
    rng = np.random.default_rng(3200)
    m, n = int(rng.integers(6, 13)), int(rng.integers(20, 39))
    supply, demand = rng.uniform(0.5, 10.0, m), rng.uniform(0.5, 10.0, n)
    cost = rng.integers(1, 5, (m, n)) * 1e-3
    cost[rng.random((m, n)) < rng.uniform(0.0, 0.8)] = np.inf
    problem = TransportationProblem(supply, demand, cost)
    central = solve_transportation(problem)
    distributed = solve_distributed(problem, [list(range(m))], [list(range(n))])
    assert central.status is distributed.status is SolveStatus.OPTIMAL
    assert distributed.pivots < 100
    assert distributed.objective == pytest.approx(central.objective, rel=1e-12)


def test_an_instance_scaled_down_keeps_its_solution():
    # The same instance in seconds and in milliseconds: one optimum,
    # scaled, and the same flow.
    rng = np.random.default_rng(32)
    supply = rng.uniform(1.0, 5.0, 6)
    demand = rng.uniform(2.0, 8.0, 9)
    cost = rng.uniform(1.0, 7.0, (6, 9))
    cost[rng.random((6, 9)) < 0.2] = np.inf
    big = solve_transportation(TransportationProblem(supply, demand, cost))
    small = solve_transportation(TransportationProblem(supply, demand, cost * 1e-3))
    assert big.status is small.status is SolveStatus.OPTIMAL
    assert small.objective == pytest.approx(big.objective * 1e-3, rel=1e-12)
    np.testing.assert_allclose(small.flow, big.flow, atol=1e-12)
