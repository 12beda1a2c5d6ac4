"""Reliability layer: retry policy, dedup, ACK-gated retransmission,
and the hardened manager/client behaviour they enable."""

import pytest

from repro.core import (
    DUSTClient,
    DUSTManager,
    DedupCache,
    OffloadAck,
    OffloadCapable,
    OffloadRequest,
    Reclaim,
    Rep,
    ReliableSender,
    RetryPolicy,
    Stat,
    ThresholdPolicy,
)
from repro.core import manager as manager_module
from repro.core.offload import ActiveOffload
from repro.errors import ProtocolError
from repro.simulation import FaultConfig, FaultyNetwork, MessageNetwork, SimulationEngine
from repro.simulation.network_sim import Message
from repro.topology import LinkUtilizationModel, build_fat_tree
from tests.topologies import build_line

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
FAST_RETRY = RetryPolicy(base_timeout_s=1.0, backoff=2.0, max_timeout_s=4.0, max_retries=2)


def make_manager(topology=None, **kwargs):
    topology = topology or build_fat_tree(4)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    manager = DUSTManager(
        node_id=0, topology=topology, engine=engine, network=network,
        policy=POLICY, **kwargs,
    )
    return manager, engine, network


def deliver(manager, source, payload):
    manager._receive(Message(
        source=source, destination=manager.node_id, payload=payload,
        sent_at=manager.engine.now, delivered_at=manager.engine.now,
    ))


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(base_timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(base_timeout_s=10.0, max_timeout_s=5.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)

    def test_backoff_caps_at_max(self):
        policy = RetryPolicy(base_timeout_s=1.0, backoff=2.0, max_timeout_s=4.0)
        assert [policy.timeout_for(a) for a in range(4)] == [1.0, 2.0, 4.0, 4.0]


class TestDecorrelatedJitter:
    """Retry storms must decorrelate: jittered timeouts differ across
    senders but are fully deterministic under (seed, node_id)."""

    JITTERED = RetryPolicy(
        base_timeout_s=1.0, backoff=2.0, max_timeout_s=8.0, max_retries=4,
        jitter=0.5,
    )

    def make_sender(self, node_id=0, seed=0, policy=None):
        topology = build_line(3)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        sender = ReliableSender(
            network, engine, node_id=node_id, policy=policy or self.JITTERED,
            seed=seed,
        )
        return sender, engine, network

    def send_and_collect_timeouts(self, sender, engine):
        """Fire a full retry budget into the void, spying on every
        timeout draw (the budget's worth plus the initial arm)."""
        payload = OffloadRequest(destination=1, source=sender.node_id,
                                 amount_pct=5.0, data_mb=1.0, route=(0, 1))
        drawn = []
        original = sender._timeout_for

        def spying(entry):
            timeout = original(entry)
            drawn.append(timeout)
            return timeout

        sender._timeout_for = spying
        sender.send(1, payload)
        engine.run_until(200.0)
        return drawn

    def test_jitter_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_jittered_timeouts_stay_inside_envelope(self):
        """Each drawn timeout lives in the decorrelated-jitter window
        [base, min(max, prev*backoff)] — and within the configured
        jitter fraction of its top."""
        sender, engine, _ = self.make_sender()
        gaps = self.send_and_collect_timeouts(sender, engine)
        assert len(gaps) == self.JITTERED.max_retries + 1
        prev = self.JITTERED.base_timeout_s
        for gap in gaps:
            cap = min(self.JITTERED.max_timeout_s,
                      max(self.JITTERED.base_timeout_s, prev * self.JITTERED.backoff))
            low = self.JITTERED.base_timeout_s + (1.0 - self.JITTERED.jitter) * (
                cap - self.JITTERED.base_timeout_s
            )
            assert low - 1e-9 <= gap <= cap + 1e-9
            prev = gap

    def test_deterministic_under_seed_and_node(self):
        first, e1, _ = self.make_sender(node_id=4, seed=7)
        second, e2, _ = self.make_sender(node_id=4, seed=7)
        assert self.send_and_collect_timeouts(first, e1) == (
            self.send_and_collect_timeouts(second, e2)
        )

    def test_distinct_nodes_decorrelate(self):
        a, ea, _ = self.make_sender(node_id=1, seed=7)
        b, eb, _ = self.make_sender(node_id=2, seed=7)
        assert self.send_and_collect_timeouts(a, ea) != (
            self.send_and_collect_timeouts(b, eb)
        )

    def test_zero_jitter_is_byte_identical_to_deterministic_backoff(self):
        """jitter=0 must not even draw from the RNG: the schedule is
        exactly the old deterministic exponential-backoff ladder."""
        sender, engine, _ = self.make_sender(policy=FAST_RETRY)
        gaps = self.send_and_collect_timeouts(sender, engine)
        assert gaps == [FAST_RETRY.timeout_for(a) for a in range(len(gaps))]
        assert sender._jitter_rng is None


class TestDedupCache:
    def test_duplicate_detection_and_reply_replay(self):
        cache = DedupCache()
        assert cache.check(1, 100) == (False, None)
        cache.remember(1, 100, "the-reply")
        assert cache.check(1, 100) == (True, "the-reply")
        # Same msg_id from a different sender is a different message.
        assert cache.check(2, 100) == (False, None)

    def test_lru_eviction(self):
        cache = DedupCache(capacity=2)
        cache.remember(1, 1, None)
        cache.remember(1, 2, None)
        cache.remember(1, 3, None)  # evicts (1, 1)
        assert cache.check(1, 1) == (False, None)
        assert cache.check(1, 3)[0] is True

    def test_clear(self):
        cache = DedupCache()
        cache.remember(1, 1, "r")
        cache.clear()
        assert cache.check(1, 1) == (False, None)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DedupCache(capacity=0)

    def test_ttl_validation(self):
        with pytest.raises(ValueError):
            DedupCache(ttl_s=0.0, clock=lambda: 0.0)
        with pytest.raises(ValueError, match="clock"):
            DedupCache(ttl_s=10.0)

    def test_ttl_expiration(self):
        from repro.obs.registry import get_registry

        clock = {"now": 0.0}
        cache = DedupCache(ttl_s=10.0, clock=lambda: clock["now"])
        before = get_registry().counter("transport.dedup_ttl_expirations").value
        cache.remember(1, 1, "r")
        clock["now"] = 9.0
        assert cache.check(1, 1) == (True, "r")  # still fresh (and touched)
        clock["now"] = 18.0
        assert cache.check(1, 1) == (True, "r")  # touch at t=9 reset the TTL
        clock["now"] = 29.0
        assert cache.check(1, 1) == (False, None)  # untouched for > ttl
        assert cache.ttl_expirations == 1
        after = get_registry().counter("transport.dedup_ttl_expirations").value
        assert after - before == 1

    def test_ttl_expires_oldest_batch(self):
        clock = {"now": 0.0}
        cache = DedupCache(ttl_s=5.0, clock=lambda: clock["now"])
        cache.remember(1, 1)
        cache.remember(1, 2)
        clock["now"] = 4.0
        cache.remember(1, 3)
        clock["now"] = 6.0
        cache.remember(1, 4)  # sweeps msg 1 and 2, keeps 3
        assert cache.ttl_expirations == 2
        assert len(cache) == 2
        assert cache.check(1, 3)[0] is True

    def test_lru_eviction_counter(self):
        from repro.obs.registry import get_registry

        before = get_registry().counter("transport.dedup_lru_evictions").value
        cache = DedupCache(capacity=2)
        for msg_id in range(4):
            cache.remember(1, msg_id)
        assert cache.lru_evictions == 2
        after = get_registry().counter("transport.dedup_lru_evictions").value
        assert after - before == 2


class TestReliableSender:
    def make_sender(self, policy=FAST_RETRY):
        topology = build_line(2)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        sender = ReliableSender(network, engine, node_id=0, policy=policy)
        return sender, engine, network

    def test_gives_up_after_retry_budget(self):
        """Timeouts 1s, 2s, 4s: two retransmissions, then the give-up
        hook fires at t=7 with the destination and payload."""
        sender, engine, network = self.make_sender()
        gave_up = []
        payload = OffloadRequest(destination=1, source=0, amount_pct=5.0,
                                 data_mb=1.0, route=(0, 1))
        # Node 1 has no receiver: every attempt is silently dropped.
        sender.send(1, payload, on_give_up=lambda d, p: gave_up.append((engine.now, d, p)))
        engine.run_until(60.0)
        assert sender.retransmissions == 2
        assert sender.gave_up == 1
        assert sender.pending == 0
        assert gave_up == [(7.0, 1, payload)]
        assert network.messages_dropped == 3  # original + 2 retransmissions

    def test_acknowledge_cancels_retransmission(self):
        sender, engine, network = self.make_sender()
        network.register(1, lambda m: None)
        payload = OffloadRequest(destination=1, source=0, amount_pct=5.0,
                                 data_mb=1.0, route=(0, 1))
        sender.send(1, payload)
        assert sender.acknowledge(payload.msg_id)
        engine.run_until(60.0)
        assert sender.retransmissions == 0
        assert sender.gave_up == 0
        assert network.messages_sent == 1

    def test_duplicate_send_keeps_existing_timer(self):
        sender, engine, network = self.make_sender()
        network.register(1, lambda m: None)
        payload = OffloadRequest(destination=1, source=0, amount_pct=5.0,
                                 data_mb=1.0, route=(0, 1))
        sender.send(1, payload)
        sender.send(1, payload)  # same msg_id: no second wire copy
        assert network.messages_sent == 1
        assert sender.pending == 1

    def test_unknown_and_none_acknowledge(self):
        sender, _, _ = self.make_sender()
        assert not sender.acknowledge(None)
        assert not sender.acknowledge(12345)

    def test_cancel_all(self):
        sender, engine, _ = self.make_sender()
        payload = OffloadRequest(destination=1, source=0, amount_pct=5.0,
                                 data_mb=1.0, route=(0, 1))
        sender.send(1, payload)
        sender.cancel_all()
        engine.run_until(60.0)
        assert sender.retransmissions == 0
        assert sender.pending == 0


class TestClientHardening:
    def test_announce_give_up_then_reannounce(self):
        """With no manager listening the client exhausts its announce
        retries, falls back to local monitoring, and re-announces after
        the quiet period — forever hopeful, never crashing."""
        topology = build_line(3)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        client = DUSTClient(
            node_id=1, engine=engine, network=network, manager_node=0,
            policy=POLICY, retry_policy=FAST_RETRY, reannounce_delay_s=5.0,
        )
        client.start()
        engine.run_until(30.0)
        # Give-ups at t=7 and t=19 (re-announce at 12, give up 7s later).
        assert client.announce_give_ups == 2
        assert client.retransmissions == 6  # two per announce attempt
        assert client.alive
        assert client.hosted == {} and client.offloaded_to == {}

    def test_duplicate_request_not_applied_twice(self):
        """A retransmitted Offload-Request must not double-book hosting;
        the cached Offload-ACK is replayed instead."""
        topology = build_line(3)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        client = DUSTClient(
            node_id=1, engine=engine, network=network, manager_node=0,
            policy=POLICY, base_capacity=30.0, retry_policy=FAST_RETRY,
        )
        acks = []
        network.register(0, lambda m: acks.append(m.payload))
        client.start()
        engine.run_until(1.0)
        req = OffloadRequest(destination=1, source=2, amount_pct=10.0,
                             data_mb=5.0, route=(2, 1))
        for _ in range(2):
            client._receive(Message(
                source=0, destination=1, payload=req,
                sent_at=engine.now, delivered_at=engine.now,
            ))
        engine.run_until(2.0)
        assert client.hosted_amount == pytest.approx(10.0)
        assert client.duplicates_ignored == 1
        replayed = [a for a in acks if isinstance(a, OffloadAck)]
        assert len(replayed) == 2
        assert replayed[0].msg_id == replayed[1].msg_id  # cached reply


class TestManagerHardening:
    def test_duplicate_announce_replays_cached_ack(self):
        manager, engine, network = make_manager()
        manager.start()
        acks = []
        network.register(5, lambda m: acks.append(m.payload))
        announce = OffloadCapable(node_id=5, capable=True, c_max=80.0, co_max=50.0)
        for _ in range(2):
            deliver(manager, 5, announce)
        engine.run_until(1.0)
        assert manager.counters.acks_sent == 1
        assert manager.counters.duplicates_ignored == 1
        assert len(acks) == 2
        assert acks[0].msg_id == acks[1].msg_id

    def test_stale_stat_dropped_when_hardened(self):
        manager, engine, _ = make_manager(retry_policy=FAST_RETRY)
        manager.start()
        deliver(manager, 5, Stat(node_id=5, capacity_pct=50.0, data_mb=1.0,
                                 num_agents=3, timestamp=10.0))
        deliver(manager, 5, Stat(node_id=5, capacity_pct=99.0, data_mb=1.0,
                                 num_agents=3, timestamp=5.0))
        assert manager.counters.stats_received == 2
        assert manager.counters.stale_stats_dropped == 1
        # The newer report's capacity survived.
        assert manager.nmdb.export_records()[5].capacity_pct == 50.0

    def test_copy_of_an_applied_stat_reacts_once(self):
        """A periodic STAT skips the dedup cache on a hardened manager, so
        a copy must be a no-op by content: between the two deliveries the
        ledger gained an offload that the report's headroom would reclaim."""
        manager, _, network = make_manager(retry_policy=FAST_RETRY)
        manager.start()
        sent = []
        send = network.send
        network.send = lambda src, dst, payload: (sent.append(payload), send(src, dst, payload))
        stat = Stat(node_id=5, capacity_pct=20.0, data_mb=1.0, num_agents=3, timestamp=10.0)
        deliver(manager, 5, stat)
        manager.ledger.add(ActiveOffload(source=5, destination=7, amount_pct=30.0,
                                         route=(5, 7), established_at=10.0))
        assert manager.nmdb.apply_stat(stat, strict=False) is False
        manager._on_stat(stat)
        deliver(manager, 5, stat)
        assert manager.counters.stats_received == 3
        assert manager.counters.stale_stats_dropped == 2
        assert manager.counters.reclaims_issued == 0
        assert not any(isinstance(p, Reclaim) for p in sent)
        assert len(manager._dedup) == 0  # a periodic STAT leaves no entry

    def test_stale_stat_raises_on_reliable_fabric(self):
        manager, _, _ = make_manager()
        manager.start()
        deliver(manager, 5, Stat(node_id=5, capacity_pct=50.0, data_mb=1.0,
                                 num_agents=3, timestamp=10.0))
        with pytest.raises(ProtocolError, match="out-of-order STAT"):
            deliver(manager, 5, Stat(node_id=5, capacity_pct=99.0, data_mb=1.0,
                                     num_agents=3, timestamp=5.0))

    def test_strict_manager_ignores_a_duplicated_stat_landing_late(self):
        """Without a retry policy the NMDB raises on an out-of-order STAT,
        so only the dedup cache keeps a duplicate that lands after a
        newer report from being one. Every message is duplicated and
        some copies are delayed past the next period; at this seed no
        STAT has *both* copies delayed, which would be a real reorder."""
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = FaultyNetwork(
            topology, engine,
            FaultConfig(duplicate_probability=1.0, reorder_probability=0.1,
                        reorder_extra_s=1.5),
            seed=0,
        )
        manager = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=POLICY, update_interval_s=1.0, optimization_period_s=1000.0,
        )
        late, newest = [], {}
        receive = manager._receive

        def spy(message):
            stat = message.payload
            if isinstance(stat, Stat):
                if stat.timestamp < newest.get(stat.node_id, float("-inf")):
                    late.append(stat.msg_id)
                newest[stat.node_id] = max(newest.get(stat.node_id, stat.timestamp),
                                           stat.timestamp)
            receive(message)

        manager._receive = spy
        manager.start()
        DUSTClient(node_id=5, engine=engine, network=network, manager_node=0,
                   policy=POLICY).start()
        engine.run_until(20.0)  # must not raise ProtocolError
        assert late  # the case under test happened
        assert manager.counters.stale_stats_dropped == 0
        assert manager.counters.duplicates_ignored >= len(late)

    def test_give_up_quarantines_destination(self, monkeypatch):
        monkeypatch.setattr(manager_module, "QUARANTINE_S", 100.0)
        manager, engine, _ = make_manager(retry_policy=FAST_RETRY)
        manager.start()
        req = OffloadRequest(destination=7, source=5, amount_pct=10.0,
                             data_mb=5.0, route=(5, 7))
        manager._on_request_give_up(7, req)
        assert manager.counters.destinations_quarantined == 1
        assert manager.quarantined_nodes() == {7}
        engine.run_until(150.0)
        assert manager.quarantined_nodes() == set()  # expired

    def test_rep_give_up_quarantines_replica(self):
        manager, _, _ = make_manager(retry_policy=FAST_RETRY)
        manager.start()
        rep = Rep(replica=11, failed_destination=7, source=5,
                  amount_pct=10.0, route=(5, 11))
        manager._on_request_give_up(11, rep)
        assert manager.quarantined_nodes() == {11}


class TestAckRaceRegression:
    """Keepalive eviction + REP substitution racing a late Offload-ACK
    from the evicted destination (the classic lost-ack orphan)."""

    def build_evicted_system(self):
        topology = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.7, seed=3).apply(topology)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        manager = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=POLICY, update_interval_s=30.0, optimization_period_s=60.0,
            keepalive_timeout_s=30.0, retry_policy=FAST_RETRY,
        )
        manager.start()
        clients = {}
        for node, base in ((5, 92.0), (7, 30.0), (11, 30.0)):
            clients[node] = DUSTClient(
                node_id=node, engine=engine, network=network, manager_node=0,
                policy=POLICY, base_capacity=base, retry_policy=FAST_RETRY,
            )
            clients[node].start()
        engine.run_until(200.0)
        assert {o.destination for o in manager.ledger.active} == {7}
        clients[7].fail()
        engine.run_until(400.0)
        # Keepalive eviction re-homed the workload onto replica 11.
        assert manager.counters.destinations_failed >= 1
        assert manager.counters.replicas_installed >= 1
        assert {o.destination for o in manager.ledger.active} == {11}
        return manager, engine, clients

    def test_late_accepted_ack_triggers_orphan_reclaim(self):
        manager, engine, clients = self.build_evicted_system()
        before = tuple(manager.ledger.active)
        late_ack = OffloadAck(destination=7, source=5, accepted=True,
                              amount_pct=12.0)
        deliver(manager, 7, late_ack)
        # The orphaned hosting gets a Reclaim, the ledger is untouched.
        assert manager.counters.orphans_reclaimed == 1
        assert manager.ledger.active == before
        # A retransmitted copy of the same ack is dedup-suppressed.
        dup_before = manager.counters.duplicates_ignored
        deliver(manager, 7, late_ack)
        assert manager.counters.duplicates_ignored == dup_before + 1
        assert manager.counters.orphans_reclaimed == 1

    def test_late_rejected_ack_is_ignored(self):
        manager, engine, clients = self.build_evicted_system()
        deliver(manager, 7, OffloadAck(destination=7, source=5, accepted=False))
        assert manager.counters.stale_acks_ignored == 1
        assert manager.counters.orphans_reclaimed == 0
