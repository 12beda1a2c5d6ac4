"""Device profiles for the paper's hardware testbed.

The DUT is an HPE Aruba 8325 switch — "8 CPU cores, 16 GB RAM, and
64 GB SSD disk" — running a database-driven NOS with the 10 monitor
agents. Offload destinations in the testbed topology (Fig. 5) are
servers/DPUs with more headroom. The base CPU/memory constants are
calibrated against Fig. 6's *local monitoring* operating point: ≈31%
device CPU and ≈70% memory with the full agent set under reference
VxLAN load.
"""

from __future__ import annotations

from repro.telemetry.agents import paper_agent_specs
from repro.telemetry.device import DeviceProfile, NetworkDevice

#: Device-level CPU% consumed by switching/bridging/NOS duties alone.
ARUBA_8325_BASE_CPU_PCT = 15.0
#: Resident NOS memory (MB): 70% of 16 GiB minus the ≈1.2 GiB agents.
ARUBA_8325_BASE_MEMORY_MB = 10240.0


def aruba_8325_profile(name: str = "aruba-8325") -> DeviceProfile:
    """The paper's DUT hardware profile."""
    return DeviceProfile(
        name=name,
        cores=8,
        memory_gb=16.0,
        base_cpu_pct=ARUBA_8325_BASE_CPU_PCT,
        base_memory_mb=ARUBA_8325_BASE_MEMORY_MB,
    )


def offload_server_profile(name: str = "offload-server") -> DeviceProfile:
    """A representative offload destination (DPU-equipped server)."""
    return DeviceProfile(
        name=name,
        cores=32,
        memory_gb=64.0,
        base_cpu_pct=5.0,
        base_memory_mb=4096.0,
    )


def build_dut(name: str = "aruba-8325") -> NetworkDevice:
    """An 8325 with the paper's full agent set installed locally."""
    device = NetworkDevice(aruba_8325_profile(name))
    for spec in paper_agent_specs():
        device.install_agent(spec)
    return device
