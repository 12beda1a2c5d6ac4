"""Tests for monitor agents and the device resource model."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    PAPER_AGENT_MEMORY_MB,
    DeviceProfile,
    MonitorAgent,
    MonitorAgentSpec,
    NetworkDevice,
    StateDatabase,
    TimeSeriesDatabase,
    paper_agent_specs,
)


def small_spec(name="agent", tables=("t1",)):
    return MonitorAgentSpec(
        name=name,
        tables=tuple(tables),
        cpu_ms_per_update=1.0,
        cpu_ms_per_interval=100.0,
        memory_mb=50.0,
        emits=("metric_a",),
    )


def small_profile(name="dev", cores=4, memory_gb=8.0):
    return DeviceProfile(
        name=name, cores=cores, memory_gb=memory_gb,
        base_cpu_pct=10.0, base_memory_mb=1024.0,
    )


class TestPaperAgentSet:
    def test_ten_agents(self):
        assert len(paper_agent_specs()) == 10

    def test_memory_totals_about_1_2_gib(self):
        """Paper: 'retaining around 1.2 GiB memory usage'."""
        assert PAPER_AGENT_MEMORY_MB == pytest.approx(1228.0)

    def test_names_match_footnote(self):
        names = {s.name for s in paper_agent_specs()}
        assert "routing-protocol-health" in names
        assert "rx-tx-packet-rates" in names
        assert "fault-finder" in names

    def test_unique_names(self):
        names = [s.name for s in paper_agent_specs()]
        assert len(names) == len(set(names))


class TestMonitorAgent:
    def test_counts_updates_and_charges_cpu(self):
        db = StateDatabase()
        tsdb = TimeSeriesDatabase()
        agent = MonitorAgent(small_spec(), db, tsdb)
        agent.attach()
        db.record_synthetic_updates("t1", 1)
        db.record_synthetic_updates("t1", 99)
        assert agent.pending_updates == 100
        cpu_s = agent.run_interval(now=60.0)
        # 100 ms fixed + 100 updates x 1 ms = 200 ms.
        assert cpu_s == pytest.approx(0.2)
        assert agent.pending_updates == 0
        assert agent.total_updates_processed == 100

    def test_emits_metrics(self):
        db = StateDatabase()
        tsdb = TimeSeriesDatabase()
        agent = MonitorAgent(small_spec(), db, tsdb, tags={"device": "d1"})
        agent.attach()
        agent.run_interval(now=1.0)
        written = tsdb.memory_bytes()
        assert written > 0
        tsdb.create_series("metric_a", {"device": "d1"})  # already exists
        assert tsdb.memory_bytes() == written

    def test_detach_stops_counting(self):
        db = StateDatabase()
        agent = MonitorAgent(small_spec(), db, TimeSeriesDatabase())
        agent.attach()
        agent.detach()
        db.record_synthetic_updates("t1", 10)
        assert agent.pending_updates == 0

    def test_double_attach_rejected(self):
        agent = MonitorAgent(small_spec(), StateDatabase(), TimeSeriesDatabase())
        agent.attach()
        with pytest.raises(TelemetryError, match="already attached"):
            agent.attach()

    def test_spec_validation(self):
        with pytest.raises(TelemetryError):
            MonitorAgentSpec("a", (), 1.0, 1.0, 10.0, ())
        with pytest.raises(TelemetryError):
            MonitorAgentSpec("a", ("t",), -1.0, 1.0, 10.0, ())
        with pytest.raises(TelemetryError):
            MonitorAgentSpec("a", ("t",), 1.0, 1.0, 0.0, ())


class TestDeviceLifecycle:
    def test_install_and_duplicate(self):
        dev = NetworkDevice(small_profile())
        dev.install_agent(small_spec())
        assert dev.local_agents == ("agent",)
        with pytest.raises(TelemetryError, match="already present"):
            dev.install_agent(small_spec())

    def test_offload_leaves_stub(self):
        dev = NetworkDevice(small_profile())
        dev.install_agent(small_spec())
        spec = dev.offload_agent("agent")
        assert spec.name == "agent"
        assert dev.local_agents == ()
        assert dev.offloaded_agents == ("agent",)

    def test_offload_unknown_rejected(self):
        dev = NetworkDevice(small_profile())
        with pytest.raises(TelemetryError, match="not running locally"):
            dev.offload_agent("ghost")

    def test_host_remote_once_per_source(self):
        dev = NetworkDevice(small_profile())
        dev.host_remote_agent(small_spec(), "src")
        assert dev.remote_agents == (("src", "agent"),)
        with pytest.raises(TelemetryError, match="already hosting"):
            dev.host_remote_agent(small_spec(), "src")


class TestShipmentFlow:
    def test_stub_ships_and_remote_charges(self):
        src = NetworkDevice(small_profile("src"))
        dst = NetworkDevice(small_profile("dst"))
        src.install_agent(small_spec())
        spec = src.offload_agent("agent")
        dst.host_remote_agent(spec, "src")

        src.database.record_synthetic_updates("t1", 1000)
        src.step(now=60.0, interval_s=60.0)
        shipments = src.drain_outbox()
        assert len(shipments) == 1
        assert shipments[0].updates == 1000
        assert shipments[0].data_mb > 0

        dst.deliver(shipments[0])
        sample = dst.step(now=60.0, interval_s=60.0)
        # Remote pays fixed + per-update analytics cost.
        expected_cpu_s = (100.0 + 1000 * 1.0) / 1000.0
        assert sample.monitoring_cpu_pct == pytest.approx(
            100.0 * expected_cpu_s / 60.0
        )

    def test_outbox_drains_once(self):
        src = NetworkDevice(small_profile())
        src.install_agent(small_spec())
        src.offload_agent("agent")
        src.step(now=60.0, interval_s=60.0)
        assert src.drain_outbox()
        assert src.drain_outbox() == []

    def test_misdelivered_shipment_rejected(self):
        src = NetworkDevice(small_profile("src"))
        dst = NetworkDevice(small_profile("dst"))
        src.install_agent(small_spec())
        src.offload_agent("agent")
        src.step(now=60.0, interval_s=60.0)
        shipment = src.drain_outbox()[0]
        with pytest.raises(TelemetryError, match="does not host"):
            dst.deliver(shipment)


class TestResourceAccounting:
    def test_memory_includes_agents_and_tsdb(self):
        dev = NetworkDevice(small_profile(), tsdb_capacity=1000)
        base_pct = dev.memory_pct()
        dev.install_agent(small_spec())
        assert dev.monitoring_memory_mb() >= 50.0
        assert dev.memory_pct() > base_pct

    def test_offload_drops_memory_to_stub(self):
        dev = NetworkDevice(small_profile())
        dev.install_agent(small_spec())
        before = dev.monitoring_memory_mb()
        dev.offload_agent("agent")
        after = dev.monitoring_memory_mb()
        assert after < before

    def test_module_cpu_saturates_at_core_count(self):
        spec = MonitorAgentSpec(
            name="hog", tables=("t",), cpu_ms_per_update=1e6,
            cpu_ms_per_interval=0.0, memory_mb=1.0, emits=(),
        )
        dev = NetworkDevice(small_profile(cores=4))
        dev.install_agent(spec)
        dev.database.record_synthetic_updates("t", 10_000)
        sample = dev.step(now=1.0, interval_s=1.0)
        assert sample.monitoring_cpu_pct == 400.0
        assert sample.device_cpu_pct == 100.0

    def test_invalid_interval(self):
        dev = NetworkDevice(small_profile())
        with pytest.raises(TelemetryError, match="positive"):
            dev.step(now=0.0, interval_s=0.0)

    def test_history_accumulates(self):
        dev = NetworkDevice(small_profile())
        for i in range(3):
            dev.step(now=float(i), interval_s=1.0)
        assert len(dev.history) == 3

    def test_profile_validation(self):
        with pytest.raises(TelemetryError):
            DeviceProfile("x", cores=0, memory_gb=1.0, base_cpu_pct=1.0, base_memory_mb=0.0)
        with pytest.raises(TelemetryError):
            DeviceProfile("x", cores=1, memory_gb=0.0, base_cpu_pct=1.0, base_memory_mb=0.0)
        with pytest.raises(TelemetryError):
            DeviceProfile("x", cores=1, memory_gb=1.0, base_cpu_pct=101.0, base_memory_mb=0.0)
