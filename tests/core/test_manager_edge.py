"""Manager edge cases: fallback, double start, unexpected messages."""

import pytest

from repro.core import (
    DUSTClient,
    DUSTManager,
    OffloadAck,
    ThresholdPolicy,
)
from repro.errors import ProtocolError
from repro.simulation import MessageNetwork, SimulationEngine
from repro.simulation.network_sim import Message
from repro.topology import LinkUtilizationModel, build_fat_tree
from tests.topologies import build_line


def make_manager(topology=None, **kwargs):
    topology = topology or build_fat_tree(4)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    manager = DUSTManager(
        node_id=0, topology=topology, engine=engine, network=network,
        policy=ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0), **kwargs,
    )
    return manager, engine, network


class TestLifecycle:
    def test_double_start_rejected(self):
        manager, _, _ = make_manager()
        manager.start()
        with pytest.raises(ProtocolError, match="already started"):
            manager.start()

    def test_unexpected_offload_ack_rejected(self):
        manager, _, _ = make_manager()
        manager.start()
        with pytest.raises(ProtocolError, match="unexpected Offload-ACK"):
            manager._receive(Message(
                source=5, destination=0,
                payload=OffloadAck(destination=5, source=3, accepted=True),
                sent_at=0.0, delivered_at=0.0,
            ))

    def test_non_dust_payload_rejected(self):
        manager, _, _ = make_manager()
        manager.start()
        with pytest.raises(ProtocolError, match="non-DUST"):
            manager._receive(Message(
                source=5, destination=0, payload=42, sent_at=0.0, delivered_at=0.0,
            ))


class TestHeuristicFallback:
    def build_starved_system(self):
        """A line where the ILP is infeasible (total spare < excess) but
        the one-hop heuristic can still place *something*."""
        topology = build_line(3)
        for link in topology.links:
            link.utilization = 0.5
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        manager = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0),
            update_interval_s=30.0, optimization_period_s=60.0,
        )
        manager.start()
        clients = {}
        # Node 1: very busy (excess 15). Node 2: candidate with spare 5.
        for node, base in ((1, 95.0), (2, 45.0)):
            clients[node] = DUSTClient(
                node_id=node, engine=engine, network=network, manager_node=0,
                policy=manager.policy, base_capacity=base,
            )
            clients[node].start()
        engine.run_until(400.0)
        return manager, clients

    def test_fallback_places_partial_load(self):
        manager, clients = self.build_starved_system()
        assert manager.counters.infeasible_rounds >= 1
        assert manager.counters.heuristic_fallbacks >= 1
        # Partial relief: the candidate filled to CO_max.
        assert clients[2].hosted_amount == pytest.approx(5.0)
        assert clients[1].offloaded_amount == pytest.approx(5.0)


class TestStaleExclusion:
    def test_never_admitted_nodes_are_not_candidates(self):
        """Nodes that never sent a STAT must not be selected."""
        topology = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.7, seed=1).apply(topology)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        manager = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0),
            update_interval_s=30.0, optimization_period_s=60.0,
        )
        manager.start()
        # Only nodes 5 (busy) and 7 (candidate) exist as clients.
        clients = {}
        for node, base in ((5, 92.0), (7, 30.0)):
            clients[node] = DUSTClient(
                node_id=node, engine=engine, network=network, manager_node=0,
                policy=manager.policy, base_capacity=base,
            )
            clients[node].start()
        engine.run_until(500.0)
        # All offloads must target node 7 — the only live candidate.
        assert manager.ledger.active
        assert {o.destination for o in manager.ledger.active} == {7}
        # And nothing was dropped on the floor toward silent nodes.
        assert network.messages_dropped == 0
