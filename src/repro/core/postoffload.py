"""Post-offloading processes (paper Section III-C).

Three mechanisms keep an established offload healthy:

* **QoS guarantees** — exported monitoring traffic is tagged with the
  *lowest* priority class so a congested destination path drops
  monitoring data before production traffic ("safely discarded in the
  event of network congestion"); :class:`StrictPriorityQueue` models a
  strict-priority egress and reports exactly which class lost data.
* **Keepalive tracking** — offload destinations heartbeat the manager;
  :class:`KeepaliveTracker` flags destinations whose keepalive is
  older than the timeout.
* **Replica substitution** — :class:`ReplicaSelector` picks the
  next-best candidate for a failed destination's workload (the node
  the manager notifies with a REP message).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.thresholds import ThresholdPolicy
from repro.errors import PlacementError, ProtocolError
from repro.routing.response_time import ResponseTimeModel
from repro.topology.graph import Topology


class QoSClass(enum.IntEnum):
    """Strict-priority traffic classes; lower value = higher priority.

    Monitoring offload data is pinned to :attr:`MONITORING_OFFLOAD`,
    the lowest class, per the paper's QoS guarantee.
    """

    NETWORK_CONTROL = 0
    PRODUCTION = 1
    BULK = 2
    MONITORING_OFFLOAD = 3


@dataclass(frozen=True)
class TransmissionOutcome:
    """Delivered/dropped megabits per class for one egress interval."""

    delivered_mb: Mapping[QoSClass, float]
    dropped_mb: Mapping[QoSClass, float]

    def delivered(self, cls: QoSClass) -> float:
        return self.delivered_mb.get(cls, 0.0)

    def dropped(self, cls: QoSClass) -> float:
        return self.dropped_mb.get(cls, 0.0)

    @property
    def production_loss_mb(self) -> float:
        """Loss in any class *above* monitoring — must be zero whenever
        the link could have carried the non-monitoring load alone."""
        return float(
            sum(v for c, v in self.dropped_mb.items() if c is not QoSClass.MONITORING_OFFLOAD)
        )


class StrictPriorityQueue:
    """Models one egress link interval under strict-priority scheduling."""

    def __init__(self, capacity_mb: float) -> None:
        if capacity_mb < 0:
            raise PlacementError(f"link capacity must be non-negative, got {capacity_mb}")
        self.capacity_mb = capacity_mb

    def transmit(self, offered_mb: Mapping[QoSClass, float]) -> TransmissionOutcome:
        """Serve classes highest-priority-first until capacity runs out."""
        remaining = self.capacity_mb
        delivered: Dict[QoSClass, float] = {}
        dropped: Dict[QoSClass, float] = {}
        for cls in sorted(offered_mb, key=lambda c: int(c)):
            volume = float(offered_mb[cls])
            if volume < 0:
                raise PlacementError(f"offered volume for {cls} is negative")
            sent = min(volume, remaining)
            delivered[cls] = sent
            dropped[cls] = volume - sent
            remaining -= sent
        return TransmissionOutcome(delivered_mb=delivered, dropped_mb=dropped)


class KeepaliveTracker:
    """Tracks destination heartbeats and flags expirations."""

    def __init__(self, timeout_s: float) -> None:
        if timeout_s <= 0:
            raise ProtocolError(f"keepalive timeout must be positive, got {timeout_s}")
        self.timeout_s = timeout_s
        self._last_seen: Dict[int, float] = {}

    def record(self, node_id: int, timestamp: float) -> None:
        """Register a keepalive from ``node_id``."""
        previous = self._last_seen.get(node_id, float("-inf"))
        self._last_seen[node_id] = max(previous, timestamp)

    def watch(self, node_id: int, timestamp: float) -> None:
        """Start expecting keepalives from a new destination (its grace
        period starts now)."""
        self._last_seen.setdefault(node_id, timestamp)

    def forget(self, node_id: int) -> None:
        """Stop tracking a node (offload reclaimed or reassigned)."""
        self._last_seen.pop(node_id, None)

    def last_seen(self, node_id: int) -> Optional[float]:
        return self._last_seen.get(node_id)

    def expired(self, now: float) -> List[int]:
        """Tracked nodes whose last keepalive is older than the timeout."""
        return sorted(
            node
            for node, seen in self._last_seen.items()
            if now - seen > self.timeout_s
        )

    def export(self) -> Dict[int, float]:
        """Copy of the watch table — the keepalive part of a manager
        snapshot."""
        return dict(self._last_seen)

    @property
    def tracked(self) -> Tuple[int, ...]:
        return tuple(sorted(self._last_seen))


class ReplicaSelector:
    """Chooses the replacement destination after a failure.

    The replica is the feasible candidate (spare capacity ≥ the failed
    amount, not the failed node, not the source) with the smallest
    ``Trmin`` from the workload's source — the same objective the
    original placement optimized.
    """

    def __init__(self, response_model: ResponseTimeModel) -> None:
        self.response_model = response_model

    def select(
        self,
        topology: Topology,
        source: int,
        amount_pct: float,
        data_mb: float,
        capacities: Sequence[float],
        policy: ThresholdPolicy,
        exclude: Sequence[int] = (),
    ) -> Optional[int]:
        """Best replica node id, or ``None`` when no candidate fits."""
        caps = np.asarray(capacities, dtype=float)
        excluded = set(exclude) | {source}
        feasible = [
            j
            for j in range(caps.size)
            if j not in excluded
            and policy.is_candidate(caps[j])
            and policy.spare_capacity(caps[j]) + 1e-9 >= amount_pct
        ]
        if not feasible:
            return None
        R, hops, _ = self.response_model.resistance_matrix(topology, [source], feasible)
        costs = data_mb * R[0]
        order = np.lexsort((hops[0], costs))
        for idx in order:
            if np.isfinite(costs[idx]):
                return int(feasible[idx])
        return None
