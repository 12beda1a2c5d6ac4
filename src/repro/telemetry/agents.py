"""Monitor agents — the user-defined in-device analytics of UDAAN/DUST.

The paper's testbed installs "10 user-defined monitoring agents …
routing protocols, software and network health, software functions and
system resource utilization e.g. CPU/Memory, Rx/Tx packet rates on
interfaces, link states, system temperature and hardware health, fault
finder". Each :class:`MonitorAgentSpec` names the DB tables the agent
watches and its cost coefficients; :class:`MonitorAgent` is the runtime
that subscribes to a :class:`~repro.telemetry.database.StateDatabase`,
charges CPU per processed update, and emits points into a
:class:`~repro.telemetry.tsdb.TimeSeriesDatabase`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import TelemetryError
from repro.telemetry.database import StateDatabase
from repro.telemetry.tsdb import TimeSeriesDatabase


@dataclass(frozen=True)
class MonitorAgentSpec:
    """Static description of one monitoring agent.

    Attributes
    ----------
    name:
        Agent identity (unique per device).
    tables:
        StateDatabase tables the agent subscribes to.
    cpu_ms_per_update:
        CPU milliseconds charged per processed table update — analytics
        work (parsing, feature extraction, fault scoring).
    cpu_ms_per_interval:
        Fixed CPU milliseconds per collection interval (bookkeeping,
        rule evaluation) even with zero updates.
    memory_mb:
        Resident footprint of the agent process (code + state + its
        TSDB buffers).
    emits:
        Metric names the agent writes to the TSDB.
    """

    name: str
    tables: Tuple[str, ...]
    cpu_ms_per_update: float
    cpu_ms_per_interval: float
    memory_mb: float
    emits: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.cpu_ms_per_update < 0 or self.cpu_ms_per_interval < 0:
            raise TelemetryError(f"agent {self.name!r}: CPU costs must be non-negative")
        if self.memory_mb <= 0:
            raise TelemetryError(f"agent {self.name!r}: memory footprint must be positive")
        if not self.tables:
            raise TelemetryError(f"agent {self.name!r}: must watch at least one table")


def paper_agent_specs() -> List[MonitorAgentSpec]:
    """The 10 agents of the paper's testbed (footnote 1), with cost
    coefficients calibrated so the Fig. 1 / Fig. 6 experiments land in
    the published bands (see ``repro.testbed.monitoring_run``).

    Memory totals ≈ 1.2 GiB (the paper: "retaining around 1.2 GiB
    memory usage indicates that monitoring workloads are perfect
    offloading candidates").
    """
    mk = MonitorAgentSpec
    return [
        mk("routing-protocol-health", ("routes", "bgp_neighbors", "ospf_interfaces"),
           cpu_ms_per_update=0.22, cpu_ms_per_interval=120.0, memory_mb=160.0,
           emits=("route_churn", "bgp_flaps", "ospf_adjacency_changes")),
        mk("software-health", ("daemons", "process_stats"),
           cpu_ms_per_update=0.14, cpu_ms_per_interval=80.0, memory_mb=110.0,
           emits=("daemon_restarts", "crash_count")),
        mk("network-health", ("interfaces", "lldp_neighbors"),
           cpu_ms_per_update=0.18, cpu_ms_per_interval=100.0, memory_mb=130.0,
           emits=("if_error_rate", "neighbor_changes")),
        mk("software-functions", ("acl_stats", "vxlan_tunnels"),
           cpu_ms_per_update=0.24, cpu_ms_per_interval=90.0, memory_mb=140.0,
           emits=("acl_hits", "tunnel_count", "tunnel_churn")),
        mk("system-resource-utilization", ("system_stats",),
           cpu_ms_per_update=0.12, cpu_ms_per_interval=110.0, memory_mb=120.0,
           emits=("cpu_pct", "memory_pct", "disk_pct")),
        mk("rx-tx-packet-rates", ("interface_counters",),
           cpu_ms_per_update=0.08, cpu_ms_per_interval=100.0, memory_mb=150.0,
           emits=("rx_pps", "tx_pps", "rx_bps", "tx_bps")),
        mk("link-states", ("interfaces", "transceivers"),
           cpu_ms_per_update=0.10, cpu_ms_per_interval=60.0, memory_mb=90.0,
           emits=("link_transitions", "optical_power")),
        mk("system-temperature", ("sensors",),
           cpu_ms_per_update=0.08, cpu_ms_per_interval=50.0, memory_mb=70.0,
           emits=("temperature_c", "fan_rpm")),
        mk("hardware-health", ("power_supplies", "fans", "asic_stats"),
           cpu_ms_per_update=0.12, cpu_ms_per_interval=70.0, memory_mb=100.0,
           emits=("psu_status", "asic_drops")),
        mk("fault-finder", ("system_logs", "interface_counters", "asic_stats"),
           cpu_ms_per_update=0.28, cpu_ms_per_interval=150.0, memory_mb=158.0,
           emits=("fault_score", "fault_count")),
    ]


#: Total memory footprint of the paper's agent set, in MiB (≈ 1.2 GiB).
PAPER_AGENT_MEMORY_MB = sum(spec.memory_mb for spec in paper_agent_specs())


class MonitorAgent:
    """Runtime instance of an agent, attached to a DB and a TSDB.

    The agent counts updates on its subscribed tables; the owning
    device converts counted work into CPU time via the spec's
    coefficients at each collection interval (this keeps the hot path —
    update notification — allocation-free).
    """

    def __init__(
        self,
        spec: MonitorAgentSpec,
        database: StateDatabase,
        tsdb: TimeSeriesDatabase,
        tags: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.spec = spec
        self.database = database
        self.tsdb = tsdb
        self.tags = dict(tags or {})
        self._pending_updates = 0
        self._attached = False
        self.total_updates_processed = 0
        self.intervals_run = 0

    # -- lifecycle -------------------------------------------------------------
    def attach(self) -> None:
        """Subscribe to all watched tables (creating them if needed)."""
        if self._attached:
            raise TelemetryError(f"agent {self.spec.name!r} is already attached")
        for table in self.spec.tables:
            self.database.ensure_table(table)
            self.database.subscribe_bulk(table, self._on_bulk)
        self._attached = True

    def detach(self) -> None:
        """Unsubscribe from all tables (used when the agent offloads)."""
        if not self._attached:
            return
        for table in self.spec.tables:
            self.database.unsubscribe_bulk(table, self._on_bulk)
        self._attached = False

    @property
    def attached(self) -> bool:
        return self._attached

    # -- data path ----------------------------------------------------------------
    def _on_bulk(self, table: str, count: int) -> None:
        self._pending_updates += count

    def run_interval(self, now: float) -> float:
        """Process the window's pending updates; returns CPU *seconds*
        consumed. Emits one point per declared metric."""
        updates = self._pending_updates
        self._pending_updates = 0
        self.total_updates_processed += updates
        self.intervals_run += 1
        cpu_ms = self.spec.cpu_ms_per_interval + self.spec.cpu_ms_per_update * updates
        for metric in self.spec.emits:
            # The emitted value is a cheap stand-in for real analytics:
            # the experiments only consume the resource accounting.
            self.tsdb.append(metric, now, float(updates), tags=self.tags)
        return cpu_ms / 1000.0

    @property
    def pending_updates(self) -> int:
        return self._pending_updates
