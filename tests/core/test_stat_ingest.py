"""STAT and Offload-capable ingest reject garbage field values.

A non-finite or out-of-range report must never reach the NMDB: ``inf``
capacity crashed the next optimization round, ``nan`` silently dropped
the node out of both roles, and out-of-range values were placed as
phantom excess or spare. The NMDB raises a typed
:class:`~repro.errors.MalformedReportError`; the manager drops the
message, counts it in ``manager.stats_rejected`` and still confirms a
reliable STAT so the client stops retransmitting.
"""

import math

import pytest

from repro.core import (
    DUSTManager,
    NMDB,
    OffloadCapable,
    RetryPolicy,
    Stat,
    ThresholdPolicy,
)
from repro.core.messages import Receipt
from repro.errors import MalformedReportError, ProtocolError
from repro.obs import get_registry
from repro.simulation import MessageNetwork, SimulationEngine
from repro.simulation.network_sim import Message
from repro.topology import build_fat_tree
from tests.topologies import build_line

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
NAN, INF = math.nan, math.inf

GOOD_STAT = dict(node_id=1, capacity_pct=40.0, data_mb=5.0, num_agents=3, timestamp=10.0)

#: field × {nan, inf, negative, > 100}, keeping only the combinations
#: that are garbage for that field (a large data_mb or a negative
#: timestamp is a legitimate report).
BAD_STAT_FIELDS = [
    ("capacity_pct", NAN),
    ("capacity_pct", INF),
    ("capacity_pct", -INF),
    ("capacity_pct", -40.0),
    ("capacity_pct", 250.0),
    ("data_mb", NAN),
    ("data_mb", INF),
    ("data_mb", -1.0),
    ("num_agents", NAN),
    ("num_agents", INF),
    ("num_agents", -1),
    ("timestamp", NAN),
    ("timestamp", INF),
    ("timestamp", -INF),
]

GOOD_EDGE_STATS = [
    ("capacity_pct", 0.0),
    ("capacity_pct", 100.0),
    ("data_mb", 0.0),
    ("data_mb", 250.0),
    ("num_agents", 0),
    ("timestamp", -5.0),
]

BAD_CAPABILITY_FIELDS = [
    (field, value) for field in ("c_max", "co_max") for value in (NAN, INF, -INF)
]


def _ids(case):
    field, value = case
    return f"{field}={value}"


@pytest.fixture
def nmdb():
    return NMDB(build_line(4), POLICY)


class TestNMDBRejectsGarbage:
    @pytest.mark.parametrize("case", BAD_STAT_FIELDS, ids=_ids)
    def test_bad_stat_raises_and_leaves_record(self, nmdb, case):
        field, value = case
        before = nmdb.record(1)
        with pytest.raises(MalformedReportError, match=f"malformed STAT from node 1: .*{field}="):
            nmdb.apply_stat(Stat(**{**GOOD_STAT, field: value}), strict=False)
        assert nmdb.record(1) == before

    @pytest.mark.parametrize("case", GOOD_EDGE_STATS, ids=_ids)
    def test_edge_values_are_applied(self, nmdb, case):
        field, value = case
        assert nmdb.apply_stat(Stat(**{**GOOD_STAT, field: value}))
        rec = nmdb.record(1)
        assert getattr(rec, "last_stat_time" if field == "timestamp" else field) == value

    @pytest.mark.parametrize("case", BAD_CAPABILITY_FIELDS, ids=_ids)
    def test_bad_capability_override_raises(self, nmdb, case):
        field, value = case
        good = dict(node_id=2, capable=True, c_max=70.0, co_max=40.0)
        before = nmdb.record(2)
        with pytest.raises(MalformedReportError, match=field):
            nmdb.register_capability(OffloadCapable(**{**good, field: value}))
        assert nmdb.record(2) == before

    def test_malformed_report_is_a_protocol_error(self):
        assert issubclass(MalformedReportError, ProtocolError)

    def test_applied_stat_record_matches_the_report(self, nmdb):
        nmdb.register_capability(
            OffloadCapable(node_id=1, capable=False, c_max=70.0, co_max=40.0)
        )
        assert nmdb.apply_stat(Stat(**GOOD_STAT))
        rec = nmdb.record(1)
        assert (rec.node_id, rec.capable, rec.c_max, rec.co_max) == (1, False, 70.0, 40.0)
        assert (rec.capacity_pct, rec.data_mb, rec.num_agents, rec.last_stat_time) == (
            40.0, 5.0, 3, 10.0
        )


def _manager(retry_policy=None):
    topology = build_fat_tree(4)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    manager = DUSTManager(
        node_id=0, topology=topology, engine=engine, network=network,
        policy=POLICY, retry_policy=retry_policy,
    )
    manager.start()
    return manager


def _deliver(manager, source, payload):
    now = manager.engine.now
    manager._receive(
        Message(source=source, destination=0, payload=payload, sent_at=now, delivered_at=now)
    )


class TestManagerDropsGarbage:
    @pytest.mark.parametrize("value", [INF, NAN, 250.0, -40.0], ids=str)
    def test_bad_stat_is_dropped_and_the_round_runs(self, value):
        manager = _manager()
        for node, cap in ((5, 92.0), (7, 30.0)):
            _deliver(manager, node, Stat(node_id=node, capacity_pct=cap, data_mb=10.0,
                                         num_agents=1, timestamp=0.0))
        before_registry = get_registry().counter("manager.stats_rejected").value
        before = manager.nmdb.record(5)
        _deliver(manager, 5, Stat(node_id=5, capacity_pct=value, data_mb=10.0,
                                  num_agents=1, timestamp=1.0))
        assert manager.nmdb.record(5) == before
        assert manager.counters.stats_rejected == 1
        assert manager.counters.stats_received == 3
        report = manager.run_optimization_round()  # must not raise
        assert report is not None and report.feasible
        assert get_registry().counter("manager.stats_rejected").value - before_registry == 1

    def test_bad_reliable_stat_still_gets_its_receipt(self):
        manager = _manager(RetryPolicy(base_timeout_s=2.0, max_retries=4))
        sent = []
        send = manager.network.send
        manager.network.send = lambda src, dst, payload: (
            sent.append((dst, payload)), send(src, dst, payload)
        )
        stat = Stat(node_id=5, capacity_pct=INF, data_mb=10.0, num_agents=1,
                    timestamp=0.0, reliable=True)
        _deliver(manager, 5, stat)
        receipts = [p for dst, p in sent if dst == 5 and isinstance(p, Receipt)]
        assert [r.acked_msg_id for r in receipts] == [stat.msg_id]
        assert manager.counters.stats_rejected == 1

    def test_bad_capability_is_dropped_without_an_ack(self):
        manager = _manager()
        before = manager.nmdb.record(5)
        _deliver(manager, 5, OffloadCapable(node_id=5, capable=True, c_max=NAN, co_max=50.0))
        assert manager.nmdb.record(5) == before
        assert manager.counters.stats_rejected == 1
        assert manager.counters.acks_sent == 0
