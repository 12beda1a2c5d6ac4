"""Hardware-testbed emulation (Aruba 8325 DUT + VxLAN workload)."""

from __future__ import annotations

from repro.testbed.aruba8325 import (
    ARUBA_8325_BASE_CPU_PCT,
    ARUBA_8325_BASE_MEMORY_MB,
    aruba_8325_profile,
    build_dut,
    offload_server_profile,
)
from repro.testbed.qos_run import (
    CongestionResult,
    CongestionSample,
    run_congestion_experiment,
)
from repro.testbed.monitoring_run import (
    MonitoringRunResult,
    OffloadComparison,
    compare_local_vs_offloaded,
    run_monitoring,
)
from repro.testbed.vxlan import (
    REFERENCE_INTENSITY,
    REFERENCE_LINE_RATE_FRACTION,
    VxlanWorkload,
)

__all__ = [
    "ARUBA_8325_BASE_CPU_PCT",
    "ARUBA_8325_BASE_MEMORY_MB",
    "CongestionResult",
    "CongestionSample",
    "MonitoringRunResult",
    "run_congestion_experiment",
    "OffloadComparison",
    "REFERENCE_INTENSITY",
    "REFERENCE_LINE_RATE_FRACTION",
    "VxlanWorkload",
    "aruba_8325_profile",
    "build_dut",
    "compare_local_vs_offloaded",
    "offload_server_profile",
    "run_monitoring",
]
