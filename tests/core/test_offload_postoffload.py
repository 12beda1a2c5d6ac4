"""Tests for the offload ledger and the post-offload machinery."""

import numpy as np
import pytest

from repro.core import (
    ActiveOffload,
    KeepaliveTracker,
    OffloadAck,
    OffloadLedger,
    QoSClass,
    ReplicaSelector,
    StrictPriorityQueue,
    ThresholdPolicy,
)
from repro.errors import PlacementError, ProtocolError
from repro.routing import PathEngine, ResponseTimeModel
from repro.topology import LinkUtilizationModel, build_fat_tree


class TestLedger:
    def make(self):
        ledger = OffloadLedger()
        ledger.add(ActiveOffload(source=0, destination=1, amount_pct=5.0,
                                 route=(0, 1), established_at=0.0))
        ledger.add(ActiveOffload(source=0, destination=2, amount_pct=3.0,
                                 route=(0, 2), established_at=1.0))
        ledger.add(ActiveOffload(source=4, destination=1, amount_pct=2.0,
                                 route=(4, 1), established_at=2.0))
        return ledger

    def test_queries(self):
        ledger = self.make()
        assert ledger.hosted_amount(1) == pytest.approx(7.0)
        assert ledger.offloaded_amount(0) == pytest.approx(8.0)
        assert ledger.destinations == [1, 2]
        assert ledger.sources == [0, 4]
        assert len(ledger) == 3

    def test_has_active_follows_the_active_rows(self):
        ledger = self.make()
        assert ledger.has_active(0) and ledger.has_active(4)
        assert not ledger.has_active(1)  # a destination, not a source
        ledger.reclaim(0)
        assert not ledger.has_active(0) and ledger.has_active(4)

    def test_reclaim_removes_by_source(self):
        ledger = self.make()
        reclaimed = ledger.reclaim(0)
        assert len(reclaimed) == 2
        assert ledger.offloaded_amount(0) == 0.0
        assert len(ledger) == 1

    def test_evict_destination(self):
        ledger = self.make()
        evicted = ledger.evict_destination(1)
        assert {o.source for o in evicted} == {0, 4}
        assert ledger.destinations == [2]

    def test_zero_amount_rejected(self):
        with pytest.raises(PlacementError):
            OffloadLedger().add(ActiveOffload(0, 1, 0.0, (0, 1), 0.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_destination_index_matches_a_scan(self, seed):
        """``hosted_by`` / ``hosted_amount`` read a per-destination index;
        after random add / activate / confirm / abandon / reclaim / evict
        sequences it holds the scan's rows, in row order, and its sums."""
        rng = np.random.default_rng(seed)
        ledger = OffloadLedger(reliable=True)
        owed = []  # (redirect_id, source) of activated rows
        for step in range(300):
            now = float(step)
            source, destination = (int(x) for x in rng.choice(6, 2, replace=False))
            amount = float(rng.uniform(0.5, 9.0))
            op = int(rng.integers(0, 7))
            if op == 0:
                ledger.add(ActiveOffload(source, destination, amount,
                                         (source, destination), now))
            elif op == 1:
                ledger.request(source, destination, amount, (source, destination), now)
                _, sends = ledger.on_ack(
                    OffloadAck(destination=destination, source=source, accepted=True),
                    now, in_resync=False,
                )
                owed += [(redirect.msg_id, source) for _, redirect in sends]
            elif op == 2 and owed:
                ledger.confirm(owed.pop(int(rng.integers(len(owed))))[0], now)
            elif op == 3 and owed:
                ledger.abandon(*owed.pop(int(rng.integers(len(owed)))), now)
            elif op == 4:
                ledger.reclaim(source, now=now)
            elif op == 5:
                ledger.evict_destination(destination)
            elif op == 6:
                ledger.evict(destination)
            for node in range(6):
                scan = [row for row in ledger.active if row.destination == node]
                hosted = ledger.hosted_by(node)
                assert len(hosted) == len(scan)
                assert all(a is b for a, b in zip(hosted, scan))
                assert ledger.hosted_amount(node) == float(sum(r.amount_pct for r in scan))


class TestStrictPriorityQueue:
    def test_monitoring_dropped_first(self):
        queue = StrictPriorityQueue(capacity_mb=100.0)
        outcome = queue.transmit({
            QoSClass.PRODUCTION: 80.0,
            QoSClass.MONITORING_OFFLOAD: 50.0,
        })
        assert outcome.delivered(QoSClass.PRODUCTION) == pytest.approx(80.0)
        assert outcome.delivered(QoSClass.MONITORING_OFFLOAD) == pytest.approx(20.0)
        assert outcome.dropped(QoSClass.MONITORING_OFFLOAD) == pytest.approx(30.0)
        assert outcome.production_loss_mb == 0.0

    def test_no_loss_when_capacity_sufficient(self):
        queue = StrictPriorityQueue(capacity_mb=1000.0)
        outcome = queue.transmit({
            QoSClass.NETWORK_CONTROL: 10.0,
            QoSClass.PRODUCTION: 100.0,
            QoSClass.MONITORING_OFFLOAD: 200.0,
        })
        assert outcome.production_loss_mb == 0.0
        assert outcome.dropped(QoSClass.MONITORING_OFFLOAD) == 0.0

    def test_priority_ordering_respected(self):
        queue = StrictPriorityQueue(capacity_mb=15.0)
        outcome = queue.transmit({
            QoSClass.MONITORING_OFFLOAD: 10.0,
            QoSClass.NETWORK_CONTROL: 10.0,
        })
        assert outcome.delivered(QoSClass.NETWORK_CONTROL) == pytest.approx(10.0)
        assert outcome.delivered(QoSClass.MONITORING_OFFLOAD) == pytest.approx(5.0)

    def test_paper_qos_guarantee(self):
        """Remote nodes 'are not expected to experience any traffic
        loss': production never loses data while monitoring still has
        anything to drop."""
        queue = StrictPriorityQueue(capacity_mb=50.0)
        outcome = queue.transmit({
            QoSClass.PRODUCTION: 50.0,
            QoSClass.MONITORING_OFFLOAD: 100.0,
        })
        assert outcome.production_loss_mb == 0.0
        assert outcome.dropped(QoSClass.MONITORING_OFFLOAD) == pytest.approx(100.0)

    def test_negative_volume_rejected(self):
        queue = StrictPriorityQueue(capacity_mb=10.0)
        with pytest.raises(PlacementError):
            queue.transmit({QoSClass.PRODUCTION: -1.0})

    def test_negative_capacity_rejected(self):
        with pytest.raises(PlacementError):
            StrictPriorityQueue(capacity_mb=-1.0)


class TestKeepaliveTracker:
    def test_expiry_detection(self):
        tracker = KeepaliveTracker(timeout_s=30.0)
        tracker.record(1, timestamp=100.0)
        tracker.record(2, timestamp=120.0)
        assert tracker.expired(now=125.0) == []
        assert tracker.expired(now=131.0) == [1]
        assert tracker.expired(now=151.0) == [1, 2]

    def test_watch_starts_grace_period(self):
        tracker = KeepaliveTracker(timeout_s=10.0)
        tracker.watch(5, timestamp=0.0)
        assert tracker.expired(now=5.0) == []
        assert tracker.expired(now=11.0) == [5]

    def test_watch_does_not_reset_existing(self):
        tracker = KeepaliveTracker(timeout_s=10.0)
        tracker.record(5, timestamp=100.0)
        tracker.watch(5, timestamp=0.0)
        assert tracker.last_seen(5) == 100.0

    def test_record_keeps_max(self):
        tracker = KeepaliveTracker(timeout_s=10.0)
        tracker.record(1, timestamp=50.0)
        tracker.record(1, timestamp=40.0)  # late-arriving old beat
        assert tracker.last_seen(1) == 50.0

    def test_forget(self):
        tracker = KeepaliveTracker(timeout_s=10.0)
        tracker.record(1, timestamp=0.0)
        tracker.forget(1)
        assert tracker.expired(now=100.0) == []
        assert tracker.tracked == ()

    def test_invalid_timeout(self):
        with pytest.raises(ProtocolError):
            KeepaliveTracker(timeout_s=0.0)


class TestReplicaSelector:
    def selector(self):
        return ReplicaSelector(ResponseTimeModel(engine=PathEngine.DP))

    def test_picks_feasible_minimum_cost(self):
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.3, 0.7, seed=1).apply(topo)
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        caps = np.full(topo.num_nodes, 30.0)
        caps[5] = 90.0  # source is busy
        replica = self.selector().select(
            topo, source=5, amount_pct=10.0, data_mb=5.0,
            capacities=caps, policy=policy, exclude=[7],
        )
        assert replica is not None
        assert replica not in (5, 7)
        assert policy.spare_capacity(caps[replica]) >= 10.0

    def test_none_when_no_capacity(self):
        topo = build_fat_tree(4)
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        caps = np.full(topo.num_nodes, 45.0)  # spare = 5 < needed 10
        replica = self.selector().select(
            topo, source=0, amount_pct=10.0, data_mb=5.0,
            capacities=caps, policy=policy,
        )
        assert replica is None

    def test_excluded_nodes_skipped(self):
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.3, 0.7, seed=2).apply(topo)
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        caps = np.full(topo.num_nodes, 60.0)
        caps[3] = 20.0
        caps[9] = 20.0
        chosen = self.selector().select(
            topo, source=0, amount_pct=10.0, data_mb=5.0,
            capacities=caps, policy=policy, exclude=[3],
        )
        assert chosen == 9
