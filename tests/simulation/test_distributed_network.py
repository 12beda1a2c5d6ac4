"""Networked distributed solve: loss and partitions cost time, not truth.

The coordinator/zone protocol runs over the simulated message fabric;
these tests drive it through drops, duplication, reordering and
partitions and check the one invariant that matters: the answer is
always the centralized optimum — faults only add retransmissions and
simulated seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.lp import (
    SolveStatus,
    TransportationProblem,
    solve_distributed,
    solve_transportation,
)
from repro.lp.distributed import extract_zone_subproblems
from repro.obs import get_registry
from repro.simulation import (
    FaultConfig,
    FaultyNetwork,
    MessageNetwork,
    NetworkedDistributedSolve,
    SimulationEngine,
    solve_over_network,
)
from repro.topology.fattree import build_fat_tree

ZONE_ROWS = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
ZONE_COLS = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]
ZONE_NODES = {0: 1, 1: 2, 2: 3}
COORDINATOR = 0


@pytest.fixture()
def problem():
    rng = np.random.default_rng(42)
    supply = rng.uniform(1.0, 10.0, 9)
    demand = rng.uniform(1.0, 10.0, 12)
    demand *= (supply.sum() / demand.sum()) * 1.35
    cost = rng.uniform(1.0, 50.0, (9, 12))
    cost[rng.random((9, 12)) < 0.15] = np.inf
    for i in range(9):  # keep every row feasible
        if not np.isfinite(cost[i]).any():
            cost[i, 0] = 1.0
    return TransportationProblem(supply, demand, cost)


@pytest.fixture()
def reference(problem):
    return solve_transportation(problem)


def _run(problem, network, engine, **knobs):
    return solve_over_network(
        problem,
        ZONE_ROWS,
        ZONE_COLS,
        network,
        engine,
        coordinator_node=COORDINATOR,
        zone_nodes=ZONE_NODES,
        **knobs,
    )


class TestCleanFabric:
    def test_matches_centralized(self, problem, reference):
        engine = SimulationEngine()
        network = MessageNetwork(build_fat_tree(4), engine)
        result, driver = _run(problem, network, engine)
        assert result.status is reference.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(reference.objective, rel=1e-9)
        assert driver.retransmissions == 0
        assert result.messages == driver.messages_sent > 0

    def test_matches_in_process_solve(self, problem):
        # Same protocol objects, same pivots: only the message count is
        # the transport's own.
        engine = SimulationEngine()
        network = MessageNetwork(build_fat_tree(4), engine)
        networked, _ = _run(problem, network, engine)
        direct = solve_distributed(problem, ZONE_ROWS, ZONE_COLS)
        assert networked.status is direct.status
        assert np.array_equal(networked.flow, direct.flow)
        assert networked.objective == direct.objective
        assert (networked.rounds, networked.pivots, networked.bids_received) == (
            direct.rounds, direct.pivots, direct.bids_received
        )

    def test_distinct_nodes_required(self, problem):
        engine = SimulationEngine()
        network = MessageNetwork(build_fat_tree(4), engine)
        workers = extract_zone_subproblems(problem, ZONE_ROWS, ZONE_COLS)
        with pytest.raises(SimulationError):
            NetworkedDistributedSolve(
                engine, network, COORDINATOR, {0: 1, 1: 2, 2: COORDINATOR}, workers
            )


class TestLossyFabric:
    def test_terminates_correctly_under_20pct_loss(self, problem, reference):
        engine = SimulationEngine()
        network = FaultyNetwork(
            build_fat_tree(4),
            engine,
            faults=FaultConfig(drop_probability=0.2),
            seed=9,
        )
        before = get_registry().value("dsolve.retransmissions")
        result, driver = _run(
            problem, network, engine, retry_timeout_s=0.25
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(reference.objective, rel=1e-9)
        assert driver.retransmissions > 0
        assert get_registry().value("dsolve.retransmissions") > before

    def test_duplication_and_reordering_are_noops(self, problem, reference):
        engine = SimulationEngine()
        network = FaultyNetwork(
            build_fat_tree(4),
            engine,
            faults=FaultConfig(
                drop_probability=0.1,
                duplicate_probability=0.2,
                reorder_probability=0.2,
                reorder_extra_s=0.05,
                jitter_s=0.02,
            ),
            seed=17,
        )
        result, _ = _run(problem, network, engine, retry_timeout_s=0.25)
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(reference.objective, rel=1e-9)


class TestPartitions:
    def test_partition_stalls_then_recovers(self, problem, reference):
        engine = SimulationEngine()
        network = FaultyNetwork(
            build_fat_tree(4), engine, faults=FaultConfig(), seed=5
        )
        workers = extract_zone_subproblems(problem, ZONE_ROWS, ZONE_COLS)
        driver = NetworkedDistributedSolve(
            engine, network, COORDINATOR, ZONE_NODES, workers,
            retry_timeout_s=0.25,
        )
        network.set_partition([[0, 1], [2, 3]])  # zones 1 and 2 unreachable
        driver.start()
        engine.schedule_at(5.0, lambda _e: network.heal_partition(), label="heal")
        engine.run_until(120.0)
        assert driver.finished and not driver.gave_up
        result = driver.result()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(reference.objective, rel=1e-9)
        assert driver.retransmissions > 0  # the stall was retransmitted through

    def test_mid_iteration_partition(self, problem, reference):
        # Jitter stretches delivery so the partition lands mid-epoch
        # rather than before the first profile arrives.
        engine = SimulationEngine()
        network = FaultyNetwork(
            build_fat_tree(4),
            engine,
            faults=FaultConfig(jitter_s=0.2),
            seed=11,
        )
        workers = extract_zone_subproblems(problem, ZONE_ROWS, ZONE_COLS)
        driver = NetworkedDistributedSolve(
            engine, network, COORDINATOR, ZONE_NODES, workers,
            retry_timeout_s=0.25,
        )
        driver.start()
        engine.schedule_at(
            0.3, lambda _e: network.set_partition([[0, 1], [2, 3]]), label="cut"
        )
        engine.schedule_at(6.0, lambda _e: network.heal_partition(), label="heal")
        engine.run_until(120.0)
        assert driver.finished and not driver.gave_up
        result = driver.result()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(reference.objective, rel=1e-9)

    def test_unhealed_partition_gives_up_at_deadline(self, problem):
        engine = SimulationEngine()
        network = FaultyNetwork(
            build_fat_tree(4), engine, faults=FaultConfig(), seed=5
        )
        workers = extract_zone_subproblems(problem, ZONE_ROWS, ZONE_COLS)
        driver = NetworkedDistributedSolve(
            engine, network, COORDINATOR, ZONE_NODES, workers,
            retry_timeout_s=0.25, deadline_s=3.0,
        )
        network.set_partition([[0, 1], [2, 3]])
        driver.start()
        engine.run_until(60.0)
        assert driver.finished and driver.gave_up
        assert driver.result().status is SolveStatus.ITERATION_LIMIT

    def test_unfinished_raises_until_engine_runs(self, problem):
        engine = SimulationEngine()
        network = MessageNetwork(build_fat_tree(4), engine)
        workers = extract_zone_subproblems(problem, ZONE_ROWS, ZONE_COLS)
        driver = NetworkedDistributedSolve(
            engine, network, COORDINATOR, ZONE_NODES, workers
        )
        driver.start()
        with pytest.raises(SimulationError):
            driver.result()
        engine.run_until(60.0)
        assert driver.finished
        assert driver.result().status is SolveStatus.OPTIMAL
