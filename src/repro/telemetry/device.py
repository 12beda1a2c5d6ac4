"""Network device resource model: CPU/memory accounting for monitoring.

A :class:`NetworkDevice` bundles the per-node substrate — a
:class:`~repro.telemetry.database.StateDatabase` (the NOS state DB), a
:class:`~repro.telemetry.tsdb.TimeSeriesDatabase`, and a set of
:class:`~repro.telemetry.agents.MonitorAgent` — and converts monitoring
work into the two signals the paper measures:

* **module-level CPU%** — CPU seconds spent by the monitoring module
  per wall second × 100 (one core ≡ 100%, so an 8-core device can show
  up to 800%; Fig. 1's 600% spikes use this convention);
* **device-level CPU%** — total busy cores / total cores × 100
  (Fig. 6's 31% → 15% numbers use this convention).

Offloading support mirrors DUST's mechanism: a local agent can be
*offloaded*, which detaches it and installs a lightweight
:class:`ExportStub` that forwards DB update counts to the destination
device, where a :class:`RemoteAgentRuntime` performs the analytics at
the same per-update cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import TelemetryError
from repro.telemetry.agents import MonitorAgent, MonitorAgentSpec
from repro.telemetry.database import StateDatabase
from repro.telemetry.tsdb import TimeSeriesDatabase

#: CPU cost of forwarding one DB update through an export stub (ms).
STUB_CPU_MS_PER_UPDATE = 0.01
#: Resident footprint of one export stub process (MB).
STUB_MEMORY_MB = 5.0
#: Approximate wire size of one exported update (bytes) — drives the
#: offloaded monitoring data volume D_i.
EXPORT_BYTES_PER_UPDATE = 256


@dataclass(frozen=True)
class DeviceProfile:
    """Static hardware description of a device."""

    name: str
    cores: int
    memory_gb: float
    base_cpu_pct: float  # device-level CPU% used by switching/NOS duties
    base_memory_mb: float  # resident memory of the NOS itself

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise TelemetryError(f"device {self.name!r}: cores must be >= 1")
        if self.memory_gb <= 0:
            raise TelemetryError(f"device {self.name!r}: memory must be positive")
        if not 0.0 <= self.base_cpu_pct <= 100.0:
            raise TelemetryError(f"device {self.name!r}: base CPU% must be in [0, 100]")
        if self.base_memory_mb < 0:
            raise TelemetryError(f"device {self.name!r}: base memory must be >= 0")

    @property
    def memory_mb(self) -> float:
        return self.memory_gb * 1024.0


@dataclass
class TelemetryShipment:
    """One interval's exported update counts for an offloaded agent."""

    source_device: str
    agent_name: str
    updates: int
    data_mb: float
    timestamp: float


@dataclass
class IntervalSample:
    """Resource measurements for one collection interval."""

    timestamp: float
    monitoring_cpu_pct: float  # module-level (100% == one core)
    device_cpu_pct: float  # device-level (100% == all cores)
    memory_pct: float
    monitoring_memory_mb: float
    updates_processed: int


class ExportStub:
    """Light forwarder left behind when an agent is offloaded."""

    def __init__(self, spec: MonitorAgentSpec, database: StateDatabase) -> None:
        self.spec = spec
        self.database = database
        self._pending = 0
        for table in spec.tables:
            database.ensure_table(table)
            database.subscribe_bulk(table, self._on_bulk)

    def _on_bulk(self, table: str, count: int) -> None:
        self._pending += count

    def drain(self, source: str, now: float) -> Tuple[float, TelemetryShipment]:
        """Collect the window's updates: returns (cpu_seconds, shipment)."""
        updates = self._pending
        self._pending = 0
        cpu_s = updates * STUB_CPU_MS_PER_UPDATE / 1000.0
        data_mb = updates * EXPORT_BYTES_PER_UPDATE * 8 / 1e6  # megabits
        return cpu_s, TelemetryShipment(
            source_device=source,
            agent_name=self.spec.name,
            updates=updates,
            data_mb=data_mb,
            timestamp=now,
        )


class RemoteAgentRuntime:
    """Destination-side execution of an offloaded agent.

    Charges the same analytic cost per shipped update as the local
    agent would have (the paper's homogeneity assumption) and stores
    the resulting series in the *destination* TSDB tagged with the
    source device.
    """

    def __init__(self, spec: MonitorAgentSpec, source_device: str, tsdb: TimeSeriesDatabase) -> None:
        self.spec = spec
        self.source_device = source_device
        self.tsdb = tsdb
        self._pending_updates = 0
        self.total_updates_processed = 0

    def deliver(self, shipment: TelemetryShipment) -> None:
        if shipment.agent_name != self.spec.name or shipment.source_device != self.source_device:
            raise TelemetryError(
                f"shipment for {shipment.source_device}/{shipment.agent_name} "
                f"delivered to runtime for {self.source_device}/{self.spec.name}"
            )
        self._pending_updates += shipment.updates

    def run_interval(self, now: float) -> float:
        """Process shipped updates; returns CPU seconds consumed."""
        updates = self._pending_updates
        self._pending_updates = 0
        self.total_updates_processed += updates
        cpu_ms = self.spec.cpu_ms_per_interval + self.spec.cpu_ms_per_update * updates
        tags = {"source": self.source_device}
        for metric in self.spec.emits:
            self.tsdb.append(metric, now, float(updates), tags=tags)
        return cpu_ms / 1000.0


class NetworkDevice:
    """A monitored device: substrate + agents + resource accounting."""

    def __init__(self, profile: DeviceProfile, tsdb_capacity: int = 4096) -> None:
        self.profile = profile
        self.database = StateDatabase(name=f"{profile.name}-db")
        self.tsdb = TimeSeriesDatabase(name=f"{profile.name}-tsdb", default_capacity=tsdb_capacity)
        self._agents: Dict[str, MonitorAgent] = {}
        self._stubs: Dict[str, ExportStub] = {}
        self._remote: Dict[Tuple[str, str], RemoteAgentRuntime] = {}
        self._outbox: List[TelemetryShipment] = []
        self.history: List[IntervalSample] = []

    # -- agent lifecycle ----------------------------------------------------------
    def install_agent(self, spec: MonitorAgentSpec) -> MonitorAgent:
        """Install and attach a local monitoring agent."""
        if spec.name in self._agents or spec.name in self._stubs:
            raise TelemetryError(
                f"agent {spec.name!r} already present on device {self.profile.name!r}"
            )
        agent = MonitorAgent(spec, self.database, self.tsdb, tags={"device": self.profile.name})
        agent.attach()
        self._agents[spec.name] = agent
        return agent

    def offload_agent(self, name: str) -> MonitorAgentSpec:
        """Replace a local agent with an export stub; returns the spec so
        the caller can install a :class:`RemoteAgentRuntime` elsewhere."""
        try:
            agent = self._agents.pop(name)
        except KeyError:
            raise TelemetryError(
                f"agent {name!r} is not running locally on {self.profile.name!r}"
            ) from None
        agent.detach()
        self._stubs[name] = ExportStub(agent.spec, self.database)
        return agent.spec

    def host_remote_agent(self, spec: MonitorAgentSpec, source_device: str) -> RemoteAgentRuntime:
        """Become the offload destination for ``source_device``'s agent."""
        key = (source_device, spec.name)
        if key in self._remote:
            raise TelemetryError(
                f"already hosting {spec.name!r} for {source_device!r} on {self.profile.name!r}"
            )
        runtime = RemoteAgentRuntime(spec, source_device, self.tsdb)
        self._remote[key] = runtime
        return runtime

    # -- introspection ---------------------------------------------------------------
    @property
    def local_agents(self) -> Tuple[str, ...]:
        return tuple(self._agents)

    @property
    def offloaded_agents(self) -> Tuple[str, ...]:
        return tuple(self._stubs)

    @property
    def remote_agents(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(self._remote)

    def deliver(self, shipment: TelemetryShipment) -> None:
        """Accept an exported-telemetry shipment for a hosted agent."""
        key = (shipment.source_device, shipment.agent_name)
        try:
            self._remote[key].deliver(shipment)
        except KeyError:
            raise TelemetryError(
                f"device {self.profile.name!r} does not host "
                f"{shipment.agent_name!r} for {shipment.source_device!r}"
            ) from None

    def drain_outbox(self) -> List[TelemetryShipment]:
        """Shipments produced by stubs during the last interval."""
        out, self._outbox = self._outbox, []
        return out

    # -- resource accounting ------------------------------------------------------------
    def monitoring_memory_mb(self) -> float:
        """Resident memory of the monitoring workload on this device."""
        agents_mb = sum(a.spec.memory_mb for a in self._agents.values())
        stubs_mb = STUB_MEMORY_MB * len(self._stubs)
        remote_mb = sum(r.spec.memory_mb for r in self._remote.values())
        tsdb_mb = self.tsdb.memory_bytes() / 1e6
        return agents_mb + stubs_mb + remote_mb + tsdb_mb

    def memory_pct(self) -> float:
        """Device memory utilization in percent."""
        used = self.profile.base_memory_mb + self.monitoring_memory_mb()
        return min(100.0, 100.0 * used / self.profile.memory_mb)

    def step(self, now: float, interval_s: float) -> IntervalSample:
        """Close one collection interval: run agents/stubs/remotes,
        account CPU, and append an :class:`IntervalSample`."""
        if interval_s <= 0:
            raise TelemetryError(f"interval must be positive, got {interval_s}")
        cpu_s = 0.0
        updates = 0
        for agent in self._agents.values():
            before = agent.total_updates_processed
            cpu_s += agent.run_interval(now)
            updates += agent.total_updates_processed - before
        for name, stub in self._stubs.items():
            stub_cpu, shipment = stub.drain(self.profile.name, now)
            cpu_s += stub_cpu
            updates += shipment.updates
            self._outbox.append(shipment)
        for runtime in self._remote.values():
            before = runtime.total_updates_processed
            cpu_s += runtime.run_interval(now)
            updates += runtime.total_updates_processed - before

        # Module CPU% uses the `top`-style convention (one core == 100%)
        # and saturates at the physical core count.
        monitoring_cpu_pct = min(100.0 * cpu_s / interval_s, 100.0 * self.profile.cores)
        base_cores = self.profile.base_cpu_pct / 100.0 * self.profile.cores
        busy_cores = min(base_cores + cpu_s / interval_s, float(self.profile.cores))
        device_cpu_pct = 100.0 * busy_cores / self.profile.cores
        sample = IntervalSample(
            timestamp=now,
            monitoring_cpu_pct=monitoring_cpu_pct,
            device_cpu_pct=device_cpu_pct,
            memory_pct=self.memory_pct(),
            monitoring_memory_mb=self.monitoring_memory_mb(),
            updates_processed=updates,
        )
        self.history.append(sample)
        return sample
