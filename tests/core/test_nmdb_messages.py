"""Tests for the NMDB and the protocol message types."""

import numpy as np
import pytest

from repro.core import (
    Ack,
    Keepalive,
    MessageType,
    NMDB,
    OffloadAck,
    OffloadCapable,
    OffloadRequest,
    Reclaim,
    Redirect,
    Rep,
    Stat,
    ThresholdPolicy,
)
from repro.errors import ProtocolError
from tests.topologies import build_line


@pytest.fixture
def nmdb():
    topo = build_line(4)
    return NMDB(topo, ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0))


class TestMessages:
    def test_types_tagged(self):
        assert OffloadCapable(node_id=1, capable=True, c_max=80, co_max=50).type is (
            MessageType.OFFLOAD_CAPABLE
        )
        assert Ack(node_id=1, update_interval_s=60.0).type is MessageType.ACK
        assert Stat(node_id=1, capacity_pct=50, data_mb=1, num_agents=3,
                    timestamp=0.0).type is MessageType.STAT
        assert OffloadRequest(destination=2, source=1, amount_pct=5, data_mb=1,
                              route=(1, 2)).type is MessageType.OFFLOAD_REQUEST
        assert OffloadAck(destination=2, source=1, accepted=True).type is (
            MessageType.OFFLOAD_ACK
        )
        assert Redirect(source=1, destination=2, amount_pct=5,
                        route=(1, 2)).type is MessageType.REDIRECT
        assert Keepalive(node_id=2, hosted_sources=(1,), timestamp=0.0).type is (
            MessageType.KEEPALIVE
        )
        assert Rep(replica=3, failed_destination=2, source=1, amount_pct=5,
                   route=(1, 3)).type is MessageType.REP
        assert Reclaim(source=1, destination=2, amount_pct=5).type is (
            MessageType.RECLAIM
        )

    def test_message_ids_unique(self):
        a = Ack(node_id=1, update_interval_s=60.0)
        b = Ack(node_id=1, update_interval_s=60.0)
        assert a.msg_id != b.msg_id


class TestNMDBIngestion:
    def test_capability_registration(self, nmdb):
        nmdb.register_capability(
            OffloadCapable(node_id=2, capable=False, c_max=70.0, co_max=40.0)
        )
        rec = nmdb.record(2)
        assert not rec.capable
        assert rec.c_max == 70.0

    def test_stat_updates_record(self, nmdb):
        nmdb.apply_stat(Stat(node_id=1, capacity_pct=66.0, data_mb=12.0,
                             num_agents=9, timestamp=5.0))
        rec = nmdb.record(1)
        assert rec.capacity_pct == 66.0
        assert rec.data_mb == 12.0
        assert rec.num_agents == 9

    def test_out_of_order_stat_rejected(self, nmdb):
        nmdb.apply_stat(Stat(node_id=1, capacity_pct=66.0, data_mb=1.0,
                             num_agents=1, timestamp=10.0))
        with pytest.raises(ProtocolError, match="out-of-order"):
            nmdb.apply_stat(Stat(node_id=1, capacity_pct=60.0, data_mb=1.0,
                                 num_agents=1, timestamp=5.0))

    def test_unknown_node_rejected(self, nmdb):
        with pytest.raises(ProtocolError, match="unknown node"):
            nmdb.apply_stat(Stat(node_id=99, capacity_pct=1.0, data_mb=1.0,
                                 num_agents=1, timestamp=0.0))

    def test_bulk_set_capacities(self, nmdb):
        nmdb.bulk_set_capacities(np.array([90.0, 30.0, 60.0, 20.0]),
                                 np.array([1.0, 2.0, 3.0, 4.0]))
        assert nmdb.record(0).capacity_pct == 90.0
        assert nmdb.record(3).data_mb == 4.0

    def test_bulk_shape_validated(self, nmdb):
        with pytest.raises(ProtocolError):
            nmdb.bulk_set_capacities(np.array([1.0]))


class TestSnapshot:
    def test_snapshot_roles_and_arrays(self, nmdb):
        nmdb.bulk_set_capacities(np.array([90.0, 30.0, 60.0, 95.0]),
                                 np.full(4, 10.0))
        snapshot = nmdb.snapshot(now=7.0)
        assert snapshot.busy == [0, 3]
        assert snapshot.candidates == [1]
        assert snapshot.timestamp == 7.0

    def test_snapshot_respects_participation(self, nmdb):
        nmdb.register_capability(
            OffloadCapable(node_id=0, capable=False, c_max=80.0, co_max=50.0)
        )
        nmdb.bulk_set_capacities(np.array([90.0, 30.0, 60.0, 95.0]))
        snapshot = nmdb.snapshot()
        assert snapshot.busy == [3]
        assert 0 in snapshot.roles.opted_out

    def test_snapshot_is_consistent_copy(self, nmdb):
        nmdb.bulk_set_capacities(np.array([90.0, 30.0, 60.0, 95.0]))
        snapshot = nmdb.snapshot()
        nmdb.set_capacity(0, 10.0)
        assert snapshot.capacities[0] == 90.0  # snapshot unaffected
