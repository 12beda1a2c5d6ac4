"""FaultyNetwork: fault model, counters, partitions, determinism."""

import pytest

from repro.errors import SimulationError
from repro.simulation import (
    FaultConfig,
    FaultyNetwork,
    MessageNetwork,
    SimulationEngine,
)
from repro.topology import build_fat_tree
from tests.topologies import build_line


def make_net(faults=None, seed=0, topology=None):
    topology = topology or build_line(3)
    engine = SimulationEngine()
    network = FaultyNetwork(topology, engine, faults=faults, seed=seed)
    received = {}
    for node in range(topology.num_nodes):
        received[node] = []
        network.register(node, lambda msg, n=node: received[n].append(msg))
    return network, engine, received


class TestFaultConfig:
    def test_probability_bounds(self):
        with pytest.raises(SimulationError, match="drop_probability"):
            FaultConfig(drop_probability=1.5)
        with pytest.raises(SimulationError, match="duplicate_probability"):
            FaultConfig(duplicate_probability=-0.1)
        with pytest.raises(SimulationError, match="reorder_probability"):
            FaultConfig(reorder_probability=2.0)
        with pytest.raises(SimulationError, match="non-negative"):
            FaultConfig(jitter_s=-1.0)
        with pytest.raises(SimulationError, match="per-link drop"):
            FaultConfig(per_link_drop={(0, 1): 1.2})

    def test_null_detection(self):
        assert FaultConfig().is_null
        assert not FaultConfig(drop_probability=0.1).is_null
        assert not FaultConfig(per_link_drop={(2, 1): 0.5}).is_null
        assert not FaultConfig(partitions=({0, 1},)).is_null

    def test_per_link_drop_is_unordered(self):
        config = FaultConfig(per_link_drop={(2, 1): 0.5})
        assert config.drop_for(1, 2) == 0.5
        assert config.drop_for(2, 1) == 0.5
        assert config.drop_for(0, 1) == 0.0


class TestNullFastPath:
    def test_byte_identical_to_message_network(self):
        """With a null config the faulty network must behave exactly
        like the plain one: same counters, same delivery times, zero
        fault activity, empty event log."""
        topology = build_line(3)
        runs = []
        for cls in (MessageNetwork, FaultyNetwork):
            engine = SimulationEngine()
            network = cls(topology, engine)
            delivered = []
            for node in range(3):
                network.register(node, lambda m: delivered.append(
                    (m.source, m.destination, m.payload, m.delivered_at)
                ))
            for i in range(20):
                network.send(i % 3, (i + 1) % 3, f"payload-{i}")
            engine.run_until(10.0)
            runs.append((
                delivered, network.messages_sent, network.messages_delivered,
                network.messages_dropped,
            ))
        assert runs[0] == runs[1]
        # And the faulty instance recorded no fault activity at all.
        network, engine, received = make_net(faults=FaultConfig())
        network.send(0, 1, "x")
        engine.run_until(1.0)
        assert received[1] and network.event_log == []
        assert network.faults_dropped == 0
        assert network.duplicates_injected == 0


class TestFaults:
    def test_certain_drop(self):
        network, engine, received = make_net(FaultConfig(drop_probability=1.0))
        for _ in range(5):
            network.send(0, 2, "x")
        engine.run_until(5.0)
        assert received[2] == []
        assert network.faults_dropped == 5
        assert network.messages_dropped == 5
        assert [e[1] for e in network.event_log] == ["drop"] * 5

    def test_certain_duplication(self):
        network, engine, received = make_net(FaultConfig(duplicate_probability=1.0))
        network.send(0, 1, "x")
        engine.run_until(5.0)
        assert len(received[1]) == 2
        assert network.duplicates_injected == 1
        # The duplicate is one extra delivery, not an extra send.
        assert network.messages_sent == 1
        assert network.messages_delivered == 2

    def test_certain_reorder_adds_delay(self):
        config = FaultConfig(reorder_probability=1.0, reorder_extra_s=0.5)
        network, engine, received = make_net(config)
        network.send(0, 1, "slow")
        engine.run_until(10.0)
        assert network.reordered == 1
        base = network.latency_between(0, 1)
        assert received[1][0].delivered_at == pytest.approx(base + 0.5)

    def test_reorder_can_invert_delivery_order(self):
        """A reordered first message arrives after a clean second one."""
        config = FaultConfig(reorder_probability=1.0, reorder_extra_s=0.5)
        network, engine, received = make_net(config)
        network.send(0, 1, "first")
        engine.run_until(5.0)
        network2, engine2, received2 = make_net(FaultConfig())
        network2.send(0, 1, "second")
        engine2.run_until(5.0)
        assert received[1][0].latency > received2[1][0].latency

    def test_per_link_override_only_hits_that_link(self):
        config = FaultConfig(per_link_drop={(0, 2): 1.0})
        network, engine, received = make_net(config)
        for _ in range(3):
            network.send(0, 2, "doomed")
            network.send(0, 1, "fine")
        engine.run_until(5.0)
        assert received[2] == []
        assert len(received[1]) == 3
        assert network.faults_dropped == 3

    def test_jitter_stays_within_bound(self):
        network, engine, received = make_net(FaultConfig(jitter_s=0.3), seed=42)
        for _ in range(30):
            network.send(0, 1, "j")
        engine.run_until(10.0)
        base = network.latency_between(0, 1)
        latencies = [m.latency for m in received[1]]
        assert all(base <= lat <= base + 0.3 for lat in latencies)
        assert len(set(latencies)) > 1  # jitter actually varies


class TestPartitions:
    def test_cross_island_traffic_blocked(self):
        config = FaultConfig(partitions=({0, 1}, {2}))
        network, engine, received = make_net(config)
        network.send(0, 1, "same-island")
        network.send(0, 2, "cross-island")
        engine.run_until(5.0)
        assert len(received[1]) == 1
        assert received[2] == []
        assert network.partition_dropped == 1
        assert ("partition-drop") in [e[1] for e in network.event_log]

    def test_ungrouped_nodes_share_the_rest_island(self):
        # Only node 0 is named: 1 and 2 fall into the implicit rest
        # island and can still talk to each other, but not to 0.
        config = FaultConfig(partitions=({0},))
        network, engine, received = make_net(config)
        network.send(1, 2, "rest-to-rest")
        network.send(1, 0, "rest-to-island")
        engine.run_until(5.0)
        assert len(received[2]) == 1
        assert received[0] == []

    def test_mid_run_partition_and_heal(self):
        network, engine, received = make_net(FaultConfig())
        network.set_partition([{0}, {1, 2}])
        network.send(0, 1, "blocked")
        engine.run_until(1.0)
        assert received[1] == []
        network.heal_partition()
        network.send(0, 1, "open")
        engine.run_until(2.0)
        assert len(received[1]) == 1


class TestDeterminism:
    def run_once(self, seed):
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = FaultyNetwork(
            topology, engine,
            faults=FaultConfig(
                drop_probability=0.2, duplicate_probability=0.2,
                jitter_s=0.5, reorder_probability=0.2,
            ),
            seed=seed,
        )
        delivered = []
        for node in range(topology.num_nodes):
            network.register(node, lambda m: delivered.append(
                (m.source, m.destination, m.payload, m.delivered_at)
            ))
        for i in range(200):
            network.send(i % 16, (i * 7 + 3) % 16, i)
        engine.run_until(60.0)
        return tuple(network.event_log), tuple(delivered)

    def test_same_seed_same_log(self):
        assert self.run_once(7) == self.run_once(7)

    def test_different_seed_different_log(self):
        assert self.run_once(7) != self.run_once(8)
