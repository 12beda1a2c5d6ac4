"""Manager failover: snapshot store, standby takeover, resync."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ActiveOffload,
    DUSTClient,
    DUSTManager,
    ManagerSnapshot,
    NodeRecord,
    OffloadAck,
    Redirect,
    RetryPolicy,
    RowState,
    SnapshotStore,
    StandbyManager,
    Stat,
    ThresholdPolicy,
    assignment_signature,
    audit_system,
)
from repro.core import manager as manager_module
from repro.errors import SimulationError
from repro.simulation import MessageNetwork, SimulationEngine
from repro.simulation.network_sim import FaultConfig, FaultyNetwork, Message
from repro.topology import LinkUtilizationModel, build_fat_tree

POLICY = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
RETRY = RetryPolicy(base_timeout_s=2.0, max_retries=4)


class TestSnapshotStore:
    def test_latest_wins_and_regressions_ignored(self):
        store = SnapshotStore()
        assert store.version == -1 and store.load() is None
        snap = lambda v: ManagerSnapshot(
            version=v, timestamp=float(v), records={}, ledger_rows=(),
            keepalive_watch={},
        )
        store.save(snap(1))
        store.save(snap(3))
        store.save(snap(2))  # out-of-date writer: must not regress
        assert store.version == 3
        assert store.load().version == 3
        assert store.saves == 2

    @staticmethod
    def snap(version):
        return ManagerSnapshot(
            version=version, timestamp=float(version), records={},
            ledger_rows=(), keepalive_watch={},
        )

    def test_persist_survives_process_restart(self, tmp_path):
        path = tmp_path / "manager.snap"
        store = SnapshotStore(path=path)
        store.save(self.snap(7))
        # A brand-new store (fresh process) reloads it from disk.
        reborn = SnapshotStore(path=path)
        assert reborn.version == 7
        assert reborn.load().timestamp == 7.0
        assert reborn.load_failures == 0

    def test_torn_write_leaves_previous_snapshot_loadable(self, tmp_path):
        """A crash mid-persist (temp file written partially, never
        renamed) must not poison standby takeover: the previous good
        snapshot is still what loads."""
        path = tmp_path / "manager.snap"
        store = SnapshotStore(path=path)
        store.save(self.snap(4))
        # Simulate the torn write: a partial record in the temp file.
        good = path.read_bytes()
        (tmp_path / "manager.snap.tmp").write_bytes(good[: len(good) // 2])
        reborn = SnapshotStore(path=path)
        assert reborn.version == 4
        assert reborn.load_failures == 0

    def test_corrupted_file_detected_and_treated_as_absent(self, tmp_path):
        from repro.obs.registry import get_registry

        path = tmp_path / "manager.snap"
        store = SnapshotStore(path=path)
        store.save(self.snap(4))
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload byte: CRC must catch it
        path.write_bytes(bytes(raw))
        before = get_registry().counter("failover.snapshot_load_failures").value
        reborn = SnapshotStore(path=path)
        assert reborn.load() is None
        assert reborn.version == -1
        assert reborn.load_failures == 1
        assert get_registry().counter("failover.snapshot_load_failures").value - before == 1

    def test_truncated_file_detected(self, tmp_path):
        path = tmp_path / "manager.snap"
        store = SnapshotStore(path=path)
        store.save(self.snap(2))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 3])  # short payload
        reborn = SnapshotStore(path=path)
        assert reborn.load() is None
        assert reborn.load_failures == 1

    def test_newer_save_overwrites_on_disk(self, tmp_path):
        path = tmp_path / "manager.snap"
        store = SnapshotStore(path=path)
        store.save(self.snap(1))
        store.save(self.snap(5))
        store.save(self.snap(3))  # regression: not persisted either
        assert SnapshotStore(path=path).version == 5


def build_system(crash_at=None, run_to=900.0, before_run=None):
    """Fat-tree with a primary (node 0), a standby (node 1), and three
    clients; returns everything after running to ``run_to``.
    ``before_run(manager, store)`` may instrument the primary first."""
    topology = build_fat_tree(4)
    LinkUtilizationModel(0.2, 0.7, seed=5).apply(topology)
    engine = SimulationEngine()
    network = MessageNetwork(topology, engine)
    store = SnapshotStore()
    manager_kwargs = dict(
        update_interval_s=30.0, optimization_period_s=60.0,
        keepalive_timeout_s=45.0, retry_policy=RETRY,
    )
    manager = DUSTManager(
        node_id=0, topology=topology, engine=engine, network=network,
        policy=POLICY, snapshot_store=store, standby_node=1,
        heartbeat_period_s=10.0, **manager_kwargs,
    )
    manager.start()
    standby = StandbyManager(
        node_id=1, topology=topology, engine=engine, network=network,
        policy=POLICY, snapshot_store=store, primary_node=0,
        takeover_silence_s=30.0, check_period_s=10.0,
        manager_kwargs=manager_kwargs,
    )
    standby.start()
    clients = {}
    for node, base in ((5, 92.0), (7, 30.0), (11, 30.0)):
        clients[node] = DUSTClient(
            node_id=node, engine=engine, network=network, manager_node=0,
            policy=POLICY, base_capacity=base, retry_policy=RETRY,
        )
        clients[node].start()
    if crash_at is not None:
        engine.schedule_at(crash_at, lambda engine: manager.crash())
    if before_run is not None:
        before_run(manager, store)
    engine.run_until(run_to)
    return manager, standby, clients, engine, store


class TestPersistence:
    def test_primary_persists_on_update(self):
        manager, standby, clients, engine, store = build_system(run_to=300.0)
        assert store.saves > 0
        assert store.version == manager._snapshot_version
        snapshot = store.load()
        # The snapshot carries the live ledger and the admitted nodes.
        assert assignment_signature(snapshot.ledger_rows) == assignment_signature(
            manager.ledger.active
        )
        assert manager.ledger.active  # the scenario actually offloaded
        assert set(snapshot.keepalive_watch) == {
            o.destination for o in manager.ledger.active
        }
        assert snapshot.records[5].capacity_pct > 0

    def test_heartbeats_reach_standby(self):
        manager, standby, clients, engine, store = build_system(run_to=100.0)
        assert standby.heartbeats_seen >= 9
        assert not standby.promoted


class TestDurabilityContract:
    """Ledger rows and unconfirmed-Redirect marks are durable before
    every Redirect; NMDB and keepalive state are durable as of the last
    optimization tick, not after every message."""

    def test_redirect_leaves_only_after_its_row_is_durable(self):
        checked = []

        def spy(manager, store):
            send = manager._send_ctrl

            def send_ctrl(destination, payload):
                if isinstance(payload, Redirect):
                    # The durable row is REDIRECTING and owes this very
                    # Redirect's Receipt: a successor would unwind it.
                    snapshot = store.load()
                    pair = (payload.source, payload.destination)
                    assert any(
                        r.pair == pair and r.state is RowState.REDIRECTING
                        and r.redirect_id == payload.msg_id
                        for r in snapshot.ledger_rows
                    )
                    checked.append(pair)
                send(destination, payload)

            manager._send_ctrl = send_ctrl

        build_system(run_to=300.0, before_run=spy)
        assert checked  # the scenario actually redirected

    def test_applied_stat_persists_at_the_next_tick(self):
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        store = SnapshotStore()
        manager = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=POLICY, snapshot_store=store, optimization_period_s=60.0,
        )
        manager.start()
        stat = Stat(node_id=9, capacity_pct=42.0, data_mb=3.0, num_agents=2,
                    timestamp=5.0)
        engine.run_until(5.0)
        version = store.version
        manager._receive(Message(source=9, destination=0, payload=stat,
                                 sent_at=5.0, delivered_at=5.0))
        assert manager.nmdb.record(9).capacity_pct == 42.0
        assert store.version == version
        engine.run_until(60.0)
        assert store.version > version
        assert store.load().records[9] == NodeRecord(
            node_id=9, capacity_pct=42.0, data_mb=3.0, num_agents=2,
            last_stat_time=5.0,
        )

    def test_saves_follow_rounds_and_ledger_changes_not_stats(self):
        manager, standby, clients, engine, store = build_system(run_to=900.0)
        c = manager.counters
        ledger_changes = (
            c.offloads_established + c.reclaims_issued
            + c.destinations_failed + c.placements_reset
        )
        assert c.offloads_established > 0
        assert store.saves <= c.optimization_rounds + 2 * ledger_changes + 1
        assert store.saves < c.stats_received


class TestSharedLedgerRows:
    """Ledger rows are immutable, so a snapshot holds the ledger's own
    rows instead of copies — and still restores an equal ledger."""

    def test_ledger_rows_are_frozen(self):
        row = ActiveOffload(
            source=5, destination=7, amount_pct=2.0, route=(5, 7), established_at=0.0
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            row.amount_pct = 3.0

    def test_snapshot_shares_the_ledger_rows(self):
        manager, standby, clients, engine, store = build_system(run_to=290.0)
        snapshot = manager.export_snapshot()
        assert manager.ledger.active
        assert len(snapshot.ledger_rows) == len(manager.ledger.active)
        for k, row in enumerate(manager.ledger.active):
            assert snapshot.ledger_rows[k] is row

    def test_disk_round_trip_restores_an_equal_ledger(self, tmp_path):
        manager, standby, clients, engine, store = build_system(run_to=290.0)
        disk = SnapshotStore(path=tmp_path / "manager.snap")
        disk.save(manager.export_snapshot())
        loaded = SnapshotStore(path=tmp_path / "manager.snap").load()
        assert all(r.state is RowState.CONFIRMED for r in loaded.ledger_rows)
        assert loaded.ledger_rows == manager.ledger.active
        fresh_engine = SimulationEngine()
        successor = DUSTManager(
            node_id=0, topology=manager.topology, engine=fresh_engine,
            network=MessageNetwork(manager.topology, fresh_engine), policy=POLICY,
        )
        successor.restore_snapshot(loaded)
        # Same offloads; the predecessor's Receipt times stay behind.
        assert successor.ledger.active == tuple(
            dataclasses.replace(r, confirmed_at=None) for r in manager.ledger.active
        )


class TestTakeover:
    def test_standby_recovers_ledger_after_crash(self):
        manager, standby, clients, engine, store = build_system(
            crash_at=400.0, run_to=1200.0
        )
        assert not manager.alive
        assert standby.promoted
        # Silence threshold 30s + 10s check period: takeover within 40s.
        assert 400.0 < standby.took_over_at <= 445.0
        promoted = standby.manager
        assert promoted.node_id == 0  # VIP takeover: same address
        assert promoted.counters.resync_rounds == 1
        # The ledger converged back to the pre-crash assignment.
        pre_crash = assignment_signature(store.load().ledger_rows)
        assert assignment_signature(promoted.ledger.active) == pre_crash
        assert pre_crash  # non-trivial assignment
        # Clients kept talking to node 0 and were not evicted.
        for client in clients.values():
            assert client.alive

    def test_no_spurious_takeover_while_primary_lives(self):
        manager, standby, clients, engine, store = build_system(run_to=1200.0)
        assert manager.alive
        assert not standby.promoted
        assert standby.takeover_aborts == 0

    def test_split_brain_abort_when_primary_still_registered(self):
        """Heartbeat silence without a crash (here: heartbeats simply
        never sent) must not yield two live managers."""
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        store = SnapshotStore()
        # Primary never heartbeats (no standby_node configured).
        manager = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=POLICY, snapshot_store=store,
        )
        manager.start()
        standby = StandbyManager(
            node_id=1, topology=topology, engine=engine, network=network,
            policy=POLICY, snapshot_store=store, primary_node=0,
            takeover_silence_s=20.0, check_period_s=10.0,
        )
        standby.start()
        engine.run_until(200.0)
        assert manager.alive
        assert not standby.promoted
        assert standby.takeover_aborts >= 1

    def test_standby_on_primary_node_rejected(self):
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        with pytest.raises(SimulationError, match="different node"):
            StandbyManager(
                node_id=0, topology=topology, engine=engine, network=network,
                policy=POLICY, snapshot_store=SnapshotStore(), primary_node=0,
            )

    def test_double_start_rejected(self):
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        standby = StandbyManager(
            node_id=1, topology=topology, engine=engine, network=network,
            policy=POLICY, snapshot_store=SnapshotStore(), primary_node=0,
        )
        standby.start()
        with pytest.raises(SimulationError, match="already started"):
            standby.start()


class TestResync:
    def test_resync_rebuilds_rows_missing_from_snapshot(self, monkeypatch):
        """A client's resync re-confirmation restores a ledger row the
        snapshot never saw (persisted state lagged the crash)."""
        monkeypatch.setattr(manager_module, "RESYNC_WINDOW_S", 60.0)
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        manager = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=POLICY, retry_policy=RETRY,
        )
        manager.start()
        manager.begin_resync()
        from repro.simulation.network_sim import Message

        ack = OffloadAck(destination=7, source=5, accepted=True,
                         reason="resync", amount_pct=12.0)
        manager._receive(Message(source=7, destination=0, payload=ack,
                                 sent_at=0.0, delivered_at=0.0))
        assert manager.counters.resync_recovered == 1
        assert assignment_signature(manager.ledger.active) == (
            (5, 7, 12.0),
        )
        # A duplicate re-confirmation does not double the row.
        ack2 = OffloadAck(destination=7, source=5, accepted=True,
                          reason="resync", amount_pct=12.0)
        manager._receive(Message(source=7, destination=0, payload=ack2,
                                 sent_at=0.0, delivered_at=0.0))
        assert manager.counters.resync_recovered == 1
        assert len(manager.ledger.active) == 1

    def test_resync_window_closes(self, monkeypatch):
        monkeypatch.setattr(manager_module, "RESYNC_WINDOW_S", 60.0)
        topology = build_fat_tree(4)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        manager = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=POLICY, retry_policy=RETRY,
        )
        manager.start()
        manager.begin_resync()
        engine.run_until(120.0)  # past the window
        from repro.simulation.network_sim import Message

        ack = OffloadAck(destination=7, source=5, accepted=True,
                         reason="resync", amount_pct=12.0)
        manager._receive(Message(source=7, destination=0, payload=ack,
                                 sent_at=engine.now, delivered_at=engine.now))
        # Outside the window this is the orphan path, not a rebuild.
        assert manager.counters.resync_recovered == 0
        assert manager.counters.orphans_reclaimed == 1
        assert not manager.ledger.active


class TestTakeoverConsistencyProperty:
    """Satellite invariant: no offload is double-applied or lost across
    a StandbyManager takeover on a 20%-lossy fabric with retransmissions
    still in flight at the moment of the crash."""

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        hot=st.sets(st.integers(min_value=4, max_value=19), min_size=1, max_size=4),
        crash_at=st.floats(min_value=120.0, max_value=400.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_no_offload_double_applied_or_lost(self, hot, crash_at, seed):
        topology = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.7, seed=seed).apply(topology)
        engine = SimulationEngine()
        network = FaultyNetwork(
            topology, engine,
            faults=FaultConfig(drop_probability=0.20), seed=seed,
        )
        store = SnapshotStore()
        manager_kwargs = dict(
            update_interval_s=15.0, optimization_period_s=30.0,
            keepalive_timeout_s=45.0, retry_policy=RETRY,
        )
        primary = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=POLICY, snapshot_store=store, standby_node=1,
            heartbeat_period_s=10.0, **manager_kwargs,
        )
        primary.start()
        standby = StandbyManager(
            node_id=1, topology=topology, engine=engine, network=network,
            policy=POLICY, snapshot_store=store, primary_node=0,
            takeover_silence_s=30.0, check_period_s=10.0,
            manager_kwargs=manager_kwargs,
        )
        standby.start()
        rng = np.random.default_rng(seed)
        clients = {}
        for node in range(2, topology.num_nodes):
            clients[node] = DUSTClient(
                node_id=node, engine=engine, network=network, manager_node=0,
                policy=POLICY,
                base_capacity=92.0 if node in hot else float(rng.uniform(15, 40)),
                data_mb=10.0, retry_policy=RETRY,
            )
            clients[node].start()
        # Crash mid-traffic: the lossy fabric guarantees retransmission
        # timers are pending at essentially any crash instant.
        engine.schedule_at(crash_at, lambda engine: primary.crash())
        engine.run_until(crash_at + 600.0)

        assert standby.promoted
        active = standby.manager
        # The promoted ledger and the live client state must agree
        # exactly: nothing applied twice, nothing silently dropped.
        report = audit_system(active, clients)
        assert report.clean, report.violations
        # And the promoted manager's books balance against both sides.
        ledger_total = sum(o.amount_pct for o in active.ledger.active)
        hosted_total = sum(c.hosted_amount for c in clients.values() if c.alive)
        offloaded_total = sum(
            c.offloaded_amount for c in clients.values() if c.alive
        )
        assert hosted_total == pytest.approx(ledger_total, abs=1e-6)
        assert offloaded_total == pytest.approx(ledger_total, abs=1e-6)
        # The restored NMDB may lag the crash by one optimization tick;
        # the resync round (and the STATs after it) must refresh it.
        for node, client in clients.items():
            if client.alive:
                assert active.nmdb.record(node).last_stat_time >= standby.took_over_at
