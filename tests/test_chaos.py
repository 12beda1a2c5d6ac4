"""Chaos test: random crash/recover churn against the control plane.

An exponential failure/repair process batters client nodes for two
simulated hours while hot nodes keep needing offload. At periodic
checkpoints and at the end, the system must satisfy the global
invariants: no workload parked on a dead node past a sweep, capacity
bounds respected, distributed state consistent for alive endpoints.
This is the failure-injection coverage the unit tests cannot provide.
"""

from typing import NamedTuple

import numpy as np
import pytest

from repro.core import DUSTClient, DUSTManager, ThresholdPolicy, audit_system
from repro.simulation import MessageNetwork, SimulationEngine
from repro.topology import LinkUtilizationModel, build_fat_tree

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
HOT = (5, 9, 14)
HORIZON = 7200.0


class ChurnEvent(NamedTuple):
    time: float
    node_id: int
    kind: str  # "crash" or "recover"


def schedule_churn(engine, clients, nodes, horizon_s, mtbf_s, mttr_s, seed):
    """Independent exponential crash/repair per node up to ``horizon_s``.

    Up-times are drawn with mean ``mtbf_s`` and down-times with mean
    ``mttr_s``; every transition is scheduled on ``engine`` and skipped
    when the client is already in the target state. Returns the
    generated events in time order.
    """
    rng = np.random.default_rng(seed)
    events = []
    for node in nodes:
        t, up = engine.now, True
        while True:
            t += float(rng.exponential(mtbf_s if up else mttr_s))
            if t >= horizon_s:
                break
            events.append(ChurnEvent(t, node, "crash" if up else "recover"))
            up = not up
    events.sort(key=lambda e: (e.time, e.node_id))

    def apply(event):
        client = clients[event.node_id]
        if event.kind == "crash" and client.alive:
            client.fail()
        elif event.kind == "recover" and not client.alive:
            client.recover()

    for event in events:
        engine.schedule_at(
            event.time,
            lambda _engine, ev=event: apply(ev),
            label=f"{event.kind}-{event.node_id}",
        )
    return events


@pytest.fixture(scope="module", params=[0, 1, 2])
def chaos_run(request):
    seed = request.param
    topology = build_fat_tree(4)
    LinkUtilizationModel(0.2, 0.7, seed=seed).apply(topology)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    manager = DUSTManager(
        node_id=0, topology=topology, engine=engine, network=network,
        policy=POLICY, update_interval_s=30.0, optimization_period_s=60.0,
        keepalive_timeout_s=45.0,
    )
    manager.start()
    rng = np.random.default_rng(seed)
    clients = {}
    for node in range(1, topology.num_nodes):
        client = DUSTClient(
            node_id=node, engine=engine, network=network, manager_node=0,
            policy=POLICY,
            base_capacity=92.0 if node in HOT else float(rng.uniform(15.0, 42.0)),
            keepalive_period_s=10.0,
        )
        client.start()
        clients[node] = client

    # Crash/repair churn on the cool nodes (hot sources stay up so the
    # need for offloading persists throughout).
    churn_nodes = [n for n in clients if n not in HOT]
    events = schedule_churn(
        engine,
        clients,
        churn_nodes,
        horizon_s=HORIZON - 600.0,  # leave a settle window at the end
        mtbf_s=1800.0,
        mttr_s=300.0,
        seed=seed + 100,
    )

    checkpoint_violations = []
    for checkpoint in np.arange(900.0, HORIZON + 1, 900.0):
        engine.run_until(float(checkpoint))
        report = audit_system(manager, clients)
        if not report.clean:
            checkpoint_violations.append((checkpoint, report))
    return manager, clients, engine, events, checkpoint_violations


def test_chaos_injected_real_failures(chaos_run):
    _, clients, _, events, _ = chaos_run
    assert events, "the failure process generated no events"
    crashes = [e for e in events if e.kind == "crash"]
    assert crashes, "expected at least one crash over four MTBFs"


def test_chaos_audits_clean_at_every_checkpoint(chaos_run):
    _, _, _, _, violations = chaos_run
    assert violations == [], violations


def test_chaos_no_workload_on_dead_nodes(chaos_run):
    manager, clients, engine, _, _ = chaos_run
    for offload in manager.ledger.active:
        destination = clients[offload.destination]
        assert destination.alive, (
            f"ledger still routes {offload.source}->{offload.destination} "
            "to a dead node after the settle window"
        )


def test_chaos_hot_nodes_still_served(chaos_run):
    manager, clients, engine, _, _ = chaos_run
    now = engine.now
    for node in HOT:
        capacity = clients[node].current_capacity(now)
        # Served (at C_max) or explainably stuck (capacity crunch during
        # churn); never silently above base.
        assert capacity <= 92.0 + 1e-6
        if capacity > POLICY.c_max + 1e-6:
            assert (
                manager.counters.infeasible_rounds > 0
                or manager.counters.offloads_rejected > 0
                or manager.round_view().in_flight
            )


def test_chaos_recovery_machinery_exercised(chaos_run):
    manager, _, _, _, _ = chaos_run
    counters = manager.counters
    if counters.destinations_failed:
        assert counters.replicas_installed + counters.workloads_returned > 0


def test_chaos_destination_bounds_hold(chaos_run):
    manager, clients, engine, _, _ = chaos_run
    now = engine.now
    for client in clients.values():
        if client.alive and client.hosted_amount > 0:
            assert client.current_capacity(now) <= POLICY.co_max + 1e-6
