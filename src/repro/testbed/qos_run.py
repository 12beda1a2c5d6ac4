"""QoS guarantee harness — Section III-C's congestion claim, measured.

The paper: *"Monitoring data offloaded to a remote node is assigned the
lowest priority value … the monitoring data [can] be safely discarded
in the event of network congestion or overload. Consequently, remote
nodes participating in the offloading process are not expected to
experience any traffic loss."*

:func:`run_congestion_experiment` drives the emulated DUT in offloaded
mode, carries its telemetry shipments across an egress link shared with
production traffic under a strict-priority scheduler, and records, per
interval, exactly which class lost data. The invariant to check:
production loss stays zero whenever the link can carry the production
offer alone, no matter how much monitoring data is offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.postoffload import QoSClass, StrictPriorityQueue
from repro.errors import TelemetryError
from repro.telemetry.device import NetworkDevice
from repro.testbed.aruba8325 import build_dut, offload_server_profile
from repro.testbed.vxlan import VxlanWorkload


@dataclass(frozen=True)
class CongestionSample:
    """One egress interval under strict priority."""

    timestamp: float
    offered_production_mb: float
    offered_monitoring_mb: float
    delivered_monitoring_mb: float
    dropped_monitoring_mb: float
    dropped_production_mb: float


@dataclass(frozen=True)
class CongestionResult:
    """Aggregate outcome of one congestion run."""

    samples: Tuple[CongestionSample, ...]

    @property
    def total_production_loss_mb(self) -> float:
        return float(sum(s.dropped_production_mb for s in self.samples))

    @property
    def total_monitoring_dropped_mb(self) -> float:
        return float(sum(s.dropped_monitoring_mb for s in self.samples))

    @property
    def monitoring_delivery_ratio(self) -> float:
        """Fraction of offered monitoring data that survived."""
        offered = sum(s.offered_monitoring_mb for s in self.samples)
        if offered <= 0:
            return 1.0
        delivered = sum(s.delivered_monitoring_mb for s in self.samples)
        return float(delivered / offered)

    @property
    def congested_intervals(self) -> int:
        return sum(1 for s in self.samples if s.dropped_monitoring_mb > 0)


def run_congestion_experiment(
    intervals: int = 60,
    interval_s: float = 60.0,
    egress_capacity_mbps: float = 100.0,
    production_load_fraction: float = 0.85,
    production_burst_fraction: float = 0.10,
    seed: int = 0,
) -> CongestionResult:
    """Offloaded DUT whose shipments share a congested egress.

    ``production_load_fraction`` of the egress is consumed by
    production traffic on average, with occasional bursts to
    ``(fraction + burst)``; monitoring shipments get whatever is left,
    strictly last.
    """
    if intervals < 1:
        raise TelemetryError("intervals must be >= 1")
    if egress_capacity_mbps <= 0:
        raise TelemetryError("egress capacity must be positive")
    if not 0.0 <= production_load_fraction <= 1.0:
        raise TelemetryError("production load fraction must be in [0, 1]")

    rng = np.random.default_rng(seed)
    dut = build_dut()
    remote = NetworkDevice(offload_server_profile())
    for name in list(dut.local_agents):
        remote.host_remote_agent(dut.offload_agent(name), dut.profile.name)
    driver = VxlanWorkload(seed=seed).driver_for(dut)

    capacity_mb_per_interval = egress_capacity_mbps * interval_s
    samples: List[CongestionSample] = []
    now = 0.0
    for _ in range(intervals):
        driver.advance(interval_s)
        now += interval_s
        dut.step(now, interval_s)
        shipments = dut.drain_outbox()
        monitoring_mb = float(sum(s.data_mb for s in shipments))
        burst = production_burst_fraction if rng.random() < 0.2 else 0.0
        production_mb = capacity_mb_per_interval * min(
            1.0, production_load_fraction + burst
        )
        outcome = StrictPriorityQueue(capacity_mb_per_interval).transmit(
            {
                QoSClass.PRODUCTION: production_mb,
                QoSClass.MONITORING_OFFLOAD: monitoring_mb,
            }
        )
        # Only delivered telemetry reaches the remote analytics.
        delivered_fraction = (
            outcome.delivered(QoSClass.MONITORING_OFFLOAD) / monitoring_mb
            if monitoring_mb > 0
            else 1.0
        )
        for shipment in shipments:
            shipment.updates = int(shipment.updates * delivered_fraction)
            shipment.data_mb *= delivered_fraction
            remote.deliver(shipment)
        remote.step(now, interval_s)
        samples.append(
            CongestionSample(
                timestamp=now,
                offered_production_mb=production_mb,
                offered_monitoring_mb=monitoring_mb,
                delivered_monitoring_mb=outcome.delivered(QoSClass.MONITORING_OFFLOAD),
                dropped_monitoring_mb=outcome.dropped(QoSClass.MONITORING_OFFLOAD),
                dropped_production_mb=outcome.dropped(QoSClass.PRODUCTION),
            )
        )
    return CongestionResult(samples=tuple(samples))
