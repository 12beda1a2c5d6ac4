"""Operation-count guard on the periodic STAT path.

A periodic STAT is an absolute, timestamped report: it should cost one
re-armed heap entry per client and one NMDB apply, not a protocol
exchange. This deterministic, timing-free check runs a few fault-free
churn periods on a k = 4 fat-tree, set up like the ``lp_churn``
benchmark (retry policy, snapshot store, a hot share that moves each
period), and asserts that

* the manager's dedup cache holds no periodic-STAT key, and
* each client's STAT chain keeps one ``ScheduledEvent`` across its ticks,
* one periodic STAT, from its chain firing to its NMDB apply, costs at
  most ``STAT_CALL_BUDGET`` Python-level calls and exactly two heap
  pushes (its delivery and its chain's re-arm).
"""

import sys

import numpy as np

from repro.core import DUSTClient, DUSTManager, RetryPolicy, Stat, ThresholdPolicy
from repro.core.failover import SnapshotStore
from repro.simulation import MessageNetwork, SimulationEngine
from repro.topology import LinkUtilizationModel, build_fat_tree

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
PERIOD_S = 30.0
#: Python-level calls per periodic STAT: the chain tick, ``_send_stat``,
#: ``current_capacity``, the base-load callable, ``Stat.__new__``,
#: ``MessageNetwork.send``, the delivery's handler, the manager's
#: ``_receive`` and ``_on_stat``, ``NMDB.apply_stat`` and the ledger's
#: ``has_active`` (11), plus the window's one ``run_until`` spread over
#: its STATs.
STAT_CALL_BUDGET = 12


def build_churn(seed=0):
    topology = build_fat_tree(4)
    LinkUtilizationModel(0.2, 0.7, seed=seed).apply(topology)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    retry = RetryPolicy(base_timeout_s=2.0, max_retries=5, jitter=0.5)
    manager = DUSTManager(
        node_id=0, topology=topology, engine=engine, network=network, policy=POLICY,
        update_interval_s=PERIOD_S / 2.0, optimization_period_s=PERIOD_S, max_hops=4,
        retry_policy=retry, snapshot_store=SnapshotStore(), transport_seed=seed,
    )
    manager.start()
    rng = np.random.default_rng(seed)
    loads = rng.uniform(10.0, 45.0, size=topology.num_nodes)
    clients = {}
    for node in range(1, topology.num_nodes):
        client = DUSTClient(
            node_id=node, engine=engine, network=network, manager_node=0, policy=POLICY,
            base_capacity=(lambda _t, i=node: loads[i]), retry_policy=retry,
            transport_seed=seed,
        )
        client.start()
        clients[node] = client
    return engine, network, manager, clients, loads, rng


def stat_chains(engine):
    """Heap entries of the clients' STAT chains, by label."""
    chains = {}
    for _, _, event in engine._heap:
        if event.label.startswith("stat-") and not event.cancelled:
            assert event.label not in chains, f"two live chains for {event.label}"
            chains[event.label] = event
    return chains


def test_periodic_stat_path_pays_for_a_report_only():
    engine, network, manager, clients, loads, rng = build_churn()
    periodic = []
    send = network.send

    def spy(source, destination, payload):
        if isinstance(payload, Stat) and not payload.reliable:
            periodic.append((source, payload.msg_id))
        send(source, destination, payload)

    network.send = spy
    engine.run_until(1.0)  # admitted: every chain is armed
    first = stat_chains(engine)
    assert len(first) == len(clients)
    for period in range(1, 5):
        hot = rng.choice(sorted(clients), size=2, replace=False)
        loads[hot] = rng.uniform(85.0, 95.0, size=2)  # churn the busy set
        engine.run_until(period * PERIOD_S)
        chains = stat_chains(engine)
        assert chains.keys() == first.keys()
        assert all(chains[label] is first[label] for label in chains)
    ticks = sum(client.stats_sent for client in clients.values())
    assert ticks >= 8 * len(clients)
    assert len(periodic) >= 6 * len(clients)
    # The run offloaded, so other messages did go through the cache.
    assert manager.counters.offloads_established > 0
    cache = manager._dedup
    assert len(cache) > 0
    assert not any(key in cache._seen for key in periodic)
    assert cache.lru_evictions == 0


def test_reclaim_check_runs_only_for_sources_with_an_active_row():
    """An applied STAT asks the ledger for the source's offloaded
    amount only when the source has an active row; the run still
    offloads and reclaims."""
    engine, network, manager, clients, loads, rng = build_churn()
    asked = []
    offloaded_amount = manager.ledger.offloaded_amount

    def spy(source):
        asked.append((source, manager.ledger.has_active(source)))
        return offloaded_amount(source)

    manager.ledger.offloaded_amount = spy
    engine.run_until(1.0)
    for period in range(1, 5):
        hot = rng.choice(sorted(clients), size=2, replace=False)
        loads[hot] = rng.uniform(85.0, 95.0, size=2)
        engine.run_until(period * PERIOD_S)
        loads[hot] = rng.uniform(10.0, 20.0, size=2)  # recovered: reclaim
    assert manager.counters.offloads_established > 0
    assert manager.counters.reclaims_issued > 0
    assert asked and all(active for _, active in asked)
    assert len(asked) < manager.counters.stats_received


def test_periodic_stat_costs_at_most_its_call_budget():
    """Between the manager's keepalive sweeps at 45 s and 60 s the
    engine runs only the clients' STAT chains and their deliveries, so
    every Python call and heap push in that window is STAT traffic."""
    engine, network, manager, clients, loads, rng = build_churn()
    engine.run_until(45.0)
    sent = sum(client.stats_sent for client in clients.values())
    received = manager.counters.stats_received
    events, sequence = engine.events_processed, engine._sequence
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        engine.run_until(59.0)
    finally:
        sys.setprofile(None)
    stats = sum(client.stats_sent for client in clients.values()) - sent
    assert stats == len(clients)
    assert manager.counters.stats_received - received == stats
    assert engine.events_processed - events == 2 * stats  # tick + delivery
    assert engine._sequence - sequence == 2 * stats  # re-arm + delivery
    assert calls[0] / stats <= STAT_CALL_BUDGET, calls[0] / stats
