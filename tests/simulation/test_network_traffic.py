"""Tests for the message network and RNG helpers."""

import numpy as np
import pytest

from repro.errors import SimulationError, TopologyError
from repro.simulation import (
    MessageNetwork,
    SimulationEngine,
    rng_from,
    spawn_seeds,
)
from repro.simulation.network_sim import FaultConfig, FaultyNetwork
from repro.topology import Link, Topology


def line_network(n=3, latency_ms=1.0):
    topo = Topology()
    nodes = [topo.add_node() for _ in range(n)]
    for i in range(n - 1):
        topo.add_edge(nodes[i], nodes[i + 1], Link(latency_ms=latency_ms))
    engine = SimulationEngine()
    return topo, engine, MessageNetwork(topo, engine)


class TestMessageNetwork:
    def test_delivery_with_latency(self):
        topo, engine, net = line_network(3, latency_ms=1.0)
        received = []
        net.register(2, lambda m: received.append(m))
        net.register(0, lambda m: None)
        net.send(0, 2, payload="hello")
        engine.run()
        assert len(received) == 1
        msg = received[0]
        assert msg.payload == "hello"
        # Two hops x 1 ms = 2 ms.
        assert msg.latency == pytest.approx(0.002)
        assert msg.source == 0 and msg.destination == 2

    def test_send_to_unregistered_drops_silently(self):
        """Dead endpoints lose packets like a real network."""
        _, _, net = line_network()
        net.send(0, 2, payload="x")
        assert net.messages_dropped == 1
        assert net.messages_sent == 0

    def test_send_to_nonexistent_node_raises(self):
        _, _, net = line_network()
        with pytest.raises(Exception):
            net.send(0, 99, payload="x")

    def test_duplicate_registration_rejected(self):
        _, _, net = line_network()
        net.register(0, lambda m: None)
        with pytest.raises(SimulationError, match="already has"):
            net.register(0, lambda m: None)

    def test_unregister_mid_flight_drops_silently(self):
        topo, engine, net = line_network()
        received = []
        net.register(2, lambda m: received.append(m))
        net.send(0, 2, payload="x")
        net.unregister(2)
        engine.run()
        assert received == []
        assert net.messages_sent == 1
        assert net.messages_delivered == 0

    def test_latency_uses_min_latency_path(self):
        topo = Topology()
        a, b, c = topo.add_node(), topo.add_node(), topo.add_node()
        topo.add_edge(a, c, Link(latency_ms=10.0))  # slow direct
        topo.add_edge(a, b, Link(latency_ms=1.0))
        topo.add_edge(b, c, Link(latency_ms=1.0))
        engine = SimulationEngine()
        net = MessageNetwork(topo, engine)
        assert net.latency_between(a, c) == pytest.approx(0.002)

    def test_disconnected_raises(self):
        topo = Topology()
        a, b = topo.add_node(), topo.add_node()
        net = MessageNetwork(topo, SimulationEngine())
        with pytest.raises(SimulationError, match="disconnected"):
            net.latency_between(a, b)

    def test_broadcast_skips_sender(self):
        topo, engine, net = line_network(3)
        hits = []
        for node in range(3):
            net.register(node, lambda m, n=node: hits.append(n))
        count = net.broadcast(1, payload="b")
        engine.run()
        assert count == 2
        assert sorted(hits) == [0, 2]


#: Every ``send`` implementation: the plain fabric, a faulty one on its
#: null-config fast path, and a faulty one on its fault pipeline.
NETWORKS = {
    "message": MessageNetwork,
    "faulty-null": FaultyNetwork,
    "faulty-jitter": lambda topo, engine: FaultyNetwork(
        topo, engine, FaultConfig(jitter_s=1e-3), seed=0
    ),
}


@pytest.mark.parametrize("kind", sorted(NETWORKS))
class TestSendBoundaries:
    """``send`` validates its destination only on the drop path (every
    registered receiver is a node); a disconnected pair raises on every
    send, not just the first (only connected pairs are memoized)."""

    @staticmethod
    def split_fabric(kind):
        """Nodes 0 - 1 connected, node 2 isolated."""
        topo = Topology()
        a, b, c = topo.add_node(), topo.add_node(), topo.add_node()
        topo.add_edge(a, b, Link(latency_ms=1.0))
        engine = SimulationEngine()
        return engine, NETWORKS[kind](topo, engine)

    def test_nonexistent_node_raises(self, kind):
        _, net = self.split_fabric(kind)
        with pytest.raises(TopologyError):
            net.send(0, 99, payload="x")
        assert net.messages_dropped == 0 and net.messages_sent == 0

    def test_valid_node_without_receiver_drops_and_counts(self, kind):
        engine, net = self.split_fabric(kind)
        net.send(0, 1, payload="x")
        net.send(0, 2, payload="x")  # disconnected too, but dropped first
        engine.run()
        assert net.messages_dropped == 2
        assert net.messages_sent == 0 and net.messages_delivered == 0

    def test_disconnected_pair_raises(self, kind):
        engine, net = self.split_fabric(kind)
        received = []
        net.register(1, received.append)
        net.register(2, received.append)
        net.send(0, 1, payload="x")
        for _ in range(2):
            with pytest.raises(SimulationError, match="disconnected"):
                net.send(0, 2, payload="x")
        engine.run()
        assert [m.destination for m in received] == [1]
        assert 0.001 <= received[0].latency <= 0.002  # one hop, plus any jitter


class TestSeedHelpers:
    def test_spawn_seeds_deterministic(self):
        assert spawn_seeds(42, 5) == spawn_seeds(42, 5)

    def test_spawn_seeds_distinct(self):
        seeds = spawn_seeds(0, 50)
        assert len(set(seeds)) == 50

    def test_spawn_count_validation(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_rng_from_streams_differ(self):
        a = rng_from(7, 0).random(4)
        b = rng_from(7, 1).random(4)
        assert not np.allclose(a, b)
        c = rng_from(7, 0).random(4)
        np.testing.assert_array_equal(a, c)
