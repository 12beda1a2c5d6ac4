"""Property-based tests over the full manager/client control loop.

Hypothesis draws random hot-node sets and load levels; after the system
settles, the paper's invariants must hold regardless of the draw:
hot nodes are relieved to C_max when capacity allows, destinations stay
at/below CO_max, and the distributed state audits clean.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DUSTClient, DUSTManager, ThresholdPolicy, audit_system
from repro.simulation import MessageNetwork, SimulationEngine
from repro.topology import LinkUtilizationModel, build_fat_tree

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)


def run_scenario(hot_nodes, hot_level, seed):
    topology = build_fat_tree(4)
    LinkUtilizationModel(0.2, 0.7, seed=seed).apply(topology)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    manager = DUSTManager(
        node_id=0, topology=topology, engine=engine, network=network,
        policy=POLICY, update_interval_s=30.0, optimization_period_s=60.0,
    )
    manager.start()
    rng = np.random.default_rng(seed)
    clients = {}
    for node in range(1, topology.num_nodes):
        clients[node] = DUSTClient(
            node_id=node, engine=engine, network=network, manager_node=0,
            policy=POLICY,
            base_capacity=hot_level if node in hot_nodes else float(rng.uniform(15, 40)),
            data_mb=10.0,
        )
        clients[node].start()
    engine.run_until(800.0)
    return manager, clients, engine


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    hot=st.sets(st.integers(min_value=1, max_value=19), min_size=0, max_size=4),
    hot_level=st.floats(min_value=81.0, max_value=99.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_property_control_loop_invariants(hot, hot_level, seed):
    manager, clients, engine = run_scenario(hot, hot_level, seed)
    now = engine.now

    # 1. Destinations never exceed CO_max.
    for client in clients.values():
        if client.hosted_amount > 0:
            assert client.current_capacity(now) <= POLICY.co_max + 1e-6

    # 2. Hot nodes end at C_max when the system placed their excess; a
    #    node still above C_max must be explained by infeasible rounds
    #    or rejected/pending requests, not silent loss.
    for node in hot:
        client = clients[node]
        relieved = client.current_capacity(now) <= POLICY.c_max + 1e-6
        if not relieved:
            assert (
                manager.counters.infeasible_rounds > 0
                or manager.counters.offloads_rejected > 0
                or manager.round_view().in_flight
            ), f"node {node} stuck busy with no recorded reason"

    # 3. Nobody offloads more than their actual excess.
    for node in hot:
        client = clients[node]
        assert client.offloaded_amount <= max(0.0, hot_level - POLICY.c_max) + 1e-6

    # 4. Cold nodes never offload.
    for node, client in clients.items():
        if node not in hot:
            assert client.offloaded_amount == 0.0

    # 5. Distributed state is consistent.
    report = audit_system(manager, clients)
    assert report.clean, report
