"""Telemetry substrate: state DB, TSDB, monitor agents, device model."""

from __future__ import annotations

from repro.telemetry.agents import (
    PAPER_AGENT_MEMORY_MB,
    MonitorAgent,
    MonitorAgentSpec,
    paper_agent_specs,
)
from repro.telemetry.database import StateDatabase
from repro.telemetry.device import (
    EXPORT_BYTES_PER_UPDATE,
    STUB_CPU_MS_PER_UPDATE,
    STUB_MEMORY_MB,
    DeviceProfile,
    ExportStub,
    IntervalSample,
    NetworkDevice,
    RemoteAgentRuntime,
    TelemetryShipment,
)
from repro.telemetry.tsdb import (
    BYTES_PER_SAMPLE,
    Series,
    TimeSeriesDatabase,
    series_key,
)
from repro.telemetry.workload import (
    DEFAULT_TABLE_RATES,
    BurstModel,
    DeviceWorkloadDriver,
    UpdateRateProfile,
)

__all__ = [
    "BYTES_PER_SAMPLE",
    "BurstModel",
    "DEFAULT_TABLE_RATES",
    "DeviceProfile",
    "DeviceWorkloadDriver",
    "EXPORT_BYTES_PER_UPDATE",
    "ExportStub",
    "IntervalSample",
    "MonitorAgent",
    "MonitorAgentSpec",
    "NetworkDevice",
    "PAPER_AGENT_MEMORY_MB",
    "RemoteAgentRuntime",
    "STUB_CPU_MS_PER_UPDATE",
    "STUB_MEMORY_MB",
    "Series",
    "StateDatabase",
    "TelemetryShipment",
    "TimeSeriesDatabase",
    "UpdateRateProfile",
    "paper_agent_specs",
    "series_key",
]
