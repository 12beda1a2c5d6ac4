"""End-to-end scenario: a day in the life of a DUST deployment.

One long deterministic simulation exercising every workflow the paper
describes, in sequence, with the system auditor asserting global
consistency after each phase:

1. admission — all clients announce and begin STATing;
2. overload — three switches run hot, the manager places their excess;
3. churn — a destination crashes, keepalives expire, REP/reclaim
   re-homes the workload;
4. recovery — the crashed node reboots and rejoins;
5. relief — the hot nodes cool down and reclaim their workloads;
6. quiesce — the ledger drains to empty and the fabric is calm.
"""

import numpy as np
import pytest

from repro.core import DUSTClient, DUSTManager, ThresholdPolicy, audit_system
from repro.simulation import MessageNetwork, SimulationEngine
from repro.topology import LinkUtilizationModel, build_fat_tree

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
HOT = (5, 9, 14)


@pytest.fixture(scope="module")
def scenario():
    """Run the whole scenario once; phases assert on the shared state."""
    topology = build_fat_tree(4)
    LinkUtilizationModel(0.2, 0.7, seed=11).apply(topology)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    manager = DUSTManager(
        node_id=0,
        topology=topology,
        engine=engine,
        network=network,
        policy=POLICY,
        update_interval_s=30.0,
        optimization_period_s=60.0,
        keepalive_timeout_s=40.0,
    )
    manager.start()
    rng = np.random.default_rng(5)
    clients = {}
    for node in range(1, topology.num_nodes):
        client = DUSTClient(
            node_id=node,
            engine=engine,
            network=network,
            manager_node=0,
            policy=POLICY,
            base_capacity=92.0 if node in HOT else float(rng.uniform(15.0, 42.0)),
            data_mb=10.0,
            keepalive_period_s=10.0,
        )
        client.start()
        clients[node] = client

    checkpoints = {}

    # Phase 1+2: admission and placement.
    engine.run_until(400.0)
    checkpoints["placed"] = {
        "ledger": len(manager.ledger),
        "established": manager.counters.offloads_established,
        "hot_caps": {n: clients[n].current_capacity(engine.now) for n in HOT},
        "audit": audit_system(manager, clients),
    }

    # Phase 3: destination crash.
    victim = manager.ledger.active[0].destination
    clients[victim].fail()
    engine.run_until(1000.0)
    checkpoints["crashed"] = {
        "victim": victim,
        "failed": manager.counters.destinations_failed,
        "still_on_victim": [o for o in manager.ledger.active if o.destination == victim],
        "audit": audit_system(manager, clients),
    }

    # Phase 4: recovery.
    clients[victim].recover()
    engine.run_until(1400.0)
    checkpoints["recovered"] = {
        "victim_alive": clients[victim].alive,
        "victim_stats": clients[victim].stats_sent,
        "audit": audit_system(manager, clients),
    }

    # Phase 5: relief — hot nodes cool down.
    for node in HOT:
        clients[node].base_load = 35.0
    engine.run_until(2200.0)
    checkpoints["relieved"] = {
        "reclaims": manager.counters.reclaims_issued,
        "ledger": len(manager.ledger),
        "audit": audit_system(manager, clients),
    }

    return manager, clients, engine, checkpoints


def test_phase_placement_established(scenario):
    _, _, _, checkpoints = scenario
    placed = checkpoints["placed"]
    assert placed["established"] >= 3
    assert placed["ledger"] >= 3
    for node, capacity in placed["hot_caps"].items():
        assert capacity == pytest.approx(80.0), f"hot node {node} not relieved"


def test_phase_placement_consistent(scenario):
    _, _, _, checkpoints = scenario
    assert checkpoints["placed"]["audit"].clean, checkpoints["placed"]["audit"]


def test_phase_crash_detected_and_rehomed(scenario):
    _, _, _, checkpoints = scenario
    crashed = checkpoints["crashed"]
    assert crashed["failed"] >= 1
    assert crashed["still_on_victim"] == []
    assert crashed["audit"].clean, crashed["audit"]


def test_phase_recovery_rejoins(scenario):
    _, _, _, checkpoints = scenario
    recovered = checkpoints["recovered"]
    assert recovered["victim_alive"]
    assert recovered["audit"].clean, recovered["audit"]


def test_phase_relief_reclaims_everything(scenario):
    manager, clients, engine, checkpoints = scenario
    relieved = checkpoints["relieved"]
    assert relieved["reclaims"] >= 1
    assert relieved["ledger"] == 0, manager.ledger.active
    assert relieved["audit"].clean, relieved["audit"]
    for client in clients.values():
        if client.alive:
            assert client.hosted_amount == pytest.approx(0.0)
            assert client.offloaded_amount == pytest.approx(0.0)


def test_control_plane_overhead_is_bounded(scenario):
    manager, clients, engine, _ = scenario
    network = manager.network
    # Messages are periodic: sanity-bound the volume (no storms).
    sim_minutes = engine.now / 60.0
    assert network.messages_sent < len(clients) * sim_minutes * 10
