"""Tests for the NMDB and the protocol message types."""

import copy
import pickle

import pytest

from repro.core import (
    Ack,
    ControlMessage,
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
from repro.core.messages import ManagerHeartbeat, Receipt, Resync
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


#: One message of every type, by keyword: (class, fields, type tag).
FAMILY = [
    (OffloadCapable, dict(node_id=1, capable=True, c_max=80.0, co_max=50.0),
     MessageType.OFFLOAD_CAPABLE),
    (Ack, dict(node_id=1, update_interval_s=60.0), MessageType.ACK),
    (Stat, dict(node_id=1, capacity_pct=50.0, data_mb=1.0, num_agents=3, timestamp=0.0,
                reliable=True), MessageType.STAT),
    (OffloadRequest, dict(destination=2, source=1, amount_pct=5.0, data_mb=1.0, route=(1, 2)),
     MessageType.OFFLOAD_REQUEST),
    (OffloadAck, dict(destination=2, source=1, accepted=True, reason="", request_id=7,
                      amount_pct=0.0), MessageType.OFFLOAD_ACK),
    (Redirect, dict(source=1, destination=2, amount_pct=5.0, route=(1, 2)),
     MessageType.REDIRECT),
    (Keepalive, dict(node_id=2, hosted_sources=(1,), timestamp=0.0), MessageType.KEEPALIVE),
    (Rep, dict(replica=3, failed_destination=2, source=1, amount_pct=5.0, route=(1, 3)),
     MessageType.REP),
    (Reclaim, dict(source=1, destination=2, amount_pct=5.0), MessageType.RECLAIM),
    (Receipt, dict(node_id=1, acked_msg_id=7), MessageType.RECEIPT),
    (ManagerHeartbeat, dict(manager_node=0, snapshot_version=3, timestamp=1.0),
     MessageType.MANAGER_HEARTBEAT),
    (Resync, dict(manager_node=0, timestamp=1.0), MessageType.RESYNC),
]


class TestMessageFamily:
    """Every message type is an immutable record whose ``msg_id`` is
    drawn once, when it is built — never by a copy."""

    def test_family_is_complete(self):
        assert {tag for _, _, tag in FAMILY} == set(MessageType)

    @pytest.mark.parametrize("cls, fields, tag", FAMILY, ids=[cls.__name__ for cls, _, _ in FAMILY])
    def test_record_contract(self, cls, fields, tag):
        positional = cls(*fields.values())
        msg = cls(**fields)
        assert isinstance(msg, ControlMessage) and msg.type is tag
        assert {name: getattr(msg, name) for name in fields} == fields
        assert tuple(msg) == (positional.msg_id + 1, *tuple(positional)[1:])
        for name in ("msg_id", *fields):
            with pytest.raises(AttributeError):
                setattr(msg, name, None)
        with pytest.raises(AttributeError):
            msg.undeclared = 1
        copies = [pickle.loads(pickle.dumps(msg, protocol)) for protocol in (2, 5)]
        copies += [copy.deepcopy(msg), copy.copy(msg)]
        for twin in copies:
            assert type(twin) is cls and twin == msg and twin.msg_id == msg.msg_id
        # No copy drew an id: the next message built takes the next one.
        assert cls(**fields).msg_id == msg.msg_id + 1

    def test_ids_strictly_increase(self):
        ids = [cls(**fields).msg_id for cls, fields, _ in FAMILY * 2]
        assert all(a < b for a, b in zip(ids, ids[1:]))


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

    @pytest.mark.parametrize("strict", [True, False])
    def test_copy_of_the_applied_stat_is_not_applied_again(self, nmdb, strict):
        stat = Stat(node_id=1, capacity_pct=66.0, data_mb=1.0, num_agents=1, timestamp=10.0)
        assert nmdb.apply_stat(stat, strict=strict) is True
        assert nmdb.apply_stat(stat, strict=strict) is False
        # Same instant, new content: a report, not a copy.
        assert nmdb.apply_stat(Stat(node_id=1, capacity_pct=60.0, data_mb=1.0,
                                    num_agents=1, timestamp=10.0), strict=strict) is True
        assert nmdb.record(1).capacity_pct == 60.0

    def test_unknown_node_rejected(self, nmdb):
        with pytest.raises(ProtocolError, match="unknown node"):
            nmdb.apply_stat(Stat(node_id=99, capacity_pct=1.0, data_mb=1.0,
                                 num_agents=1, timestamp=0.0))


def report(nmdb, capacities, timestamp=0.0):
    """One STAT per node with these capacities."""
    for node, capacity in enumerate(capacities):
        nmdb.apply_stat(Stat(node_id=node, capacity_pct=capacity, data_mb=10.0,
                             num_agents=1, timestamp=timestamp))


class TestSnapshot:
    def test_snapshot_roles_and_arrays(self, nmdb):
        report(nmdb, [90.0, 30.0, 60.0, 95.0])
        snapshot = nmdb.snapshot(now=7.0)
        assert snapshot.busy == [0, 3]
        assert snapshot.candidates == [1]
        assert snapshot.timestamp == 7.0

    def test_snapshot_respects_participation(self, nmdb):
        nmdb.register_capability(
            OffloadCapable(node_id=0, capable=False, c_max=80.0, co_max=50.0)
        )
        report(nmdb, [90.0, 30.0, 60.0, 95.0])
        snapshot = nmdb.snapshot()
        assert snapshot.busy == [3]
        assert 0 in snapshot.roles.opted_out

    def test_snapshot_is_consistent_copy(self, nmdb):
        report(nmdb, [90.0, 30.0, 60.0, 95.0])
        snapshot = nmdb.snapshot()
        report(nmdb, [10.0], timestamp=1.0)
        assert nmdb.record(0).capacity_pct == 10.0
        assert snapshot.capacities[0] == 90.0  # snapshot unaffected
