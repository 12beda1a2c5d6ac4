"""Network Monitoring DataBase (NMDB) — the DUST-Manager's state store.

Per the paper, NMDB keeps "the current network status and utilization
(e.g., network topologies, link utilization) and nodes' monitoring and
offloading capabilities (e.g., resource utilization, number of
user-defined monitoring requests, offloading capabilities and
variables)". The optimization engine reads a consistent
:class:`NetworkSnapshot` out of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from repro.core.messages import OffloadCapable, Stat
from repro.core.roles import RoleAssignment, classify_network
from repro.core.thresholds import ThresholdPolicy
from repro.errors import MalformedReportError, ProtocolError
from repro.topology.graph import Topology

_INF = float("inf")


@dataclass(frozen=True)
class NodeRecord:
    """Latest known state of one client node."""

    node_id: int
    capable: bool = True
    capacity_pct: float = 0.0
    data_mb: float = 0.0
    num_agents: int = 0
    c_max: Optional[float] = None  # client-announced override
    co_max: Optional[float] = None
    last_stat_time: float = float("-inf")


@dataclass(frozen=True)
class NetworkSnapshot:
    """Consistent placement input assembled from NMDB state."""

    capacities: np.ndarray  # percent, indexed by node id
    data_mb: np.ndarray  # D_i per node
    participating: np.ndarray  # bool mask
    roles: RoleAssignment
    policy: ThresholdPolicy
    timestamp: float

    @property
    def busy(self) -> List[int]:
        return self.roles.busy

    @property
    def candidates(self) -> List[int]:
        return self.roles.candidates


class NMDB:
    """Mutable manager-side store fed by Offload-capable and STAT
    messages; also owns the topology reference."""

    def __init__(self, topology: Topology, policy: ThresholdPolicy) -> None:
        self.topology = topology
        self.policy = policy
        self._records: Dict[int, NodeRecord] = {
            node.node_id: NodeRecord(node_id=node.node_id) for node in topology.nodes
        }

    # -- ingestion -----------------------------------------------------------------
    def register_capability(self, msg: OffloadCapable) -> None:
        """Apply an Offload-capable declaration; a non-finite threshold
        override raises :class:`~repro.errors.MalformedReportError`."""
        for name, value in (("c_max", msg.c_max), ("co_max", msg.co_max)):
            if value is not None and not -_INF < value < _INF:
                raise MalformedReportError(
                    f"Offload-capable from node {msg.node_id}: {name}={value!r}"
                )
        rec = self._record(msg.node_id)
        self._records[msg.node_id] = replace(
            rec, capable=msg.capable, c_max=msg.c_max, co_max=msg.co_max
        )

    def apply_stat(self, msg: Stat, strict: bool = True) -> bool:
        """Apply a STAT report; returns ``True`` if it was applied.

        A report with a non-finite or out-of-range field (``capacity_pct``
        outside [0, 100], ``data_mb`` or ``num_agents`` negative or
        non-finite, a non-finite ``timestamp``) raises
        :class:`~repro.errors.MalformedReportError` whatever ``strict``
        says. Out-of-order reports raise in ``strict`` mode (a reliable
        fabric should never reorder) and are silently dropped otherwise
        — under loss/reordering the newest report simply wins. A copy of
        the applied report (same timestamp, every field equal) says
        nothing new and is dropped in either mode, so a duplicated STAT
        is a no-op without a dedup cache.
        """
        capacity_pct = msg.capacity_pct
        data_mb = msg.data_mb
        num_agents = msg.num_agents
        timestamp = msg.timestamp
        # Chained comparisons are False for NaN, so each test also
        # rejects a NaN field.
        if not (
            0.0 <= capacity_pct <= 100.0
            and 0.0 <= data_mb < _INF
            and 0 <= num_agents < _INF
            and -_INF < timestamp < _INF
        ):
            raise MalformedReportError(
                f"malformed STAT from node {msg.node_id}: "
                f"capacity_pct={capacity_pct!r}, data_mb={data_mb!r}, "
                f"num_agents={num_agents!r}, timestamp={timestamp!r}"
            )
        rec = self._record(msg.node_id)
        if timestamp < rec.last_stat_time:
            if strict:
                raise ProtocolError(
                    f"out-of-order STAT from node {msg.node_id}: "
                    f"{timestamp} < {rec.last_stat_time}"
                )
            return False
        if (
            timestamp == rec.last_stat_time
            and capacity_pct == rec.capacity_pct
            and data_mb == rec.data_mb
            and num_agents == rec.num_agents
        ):
            return False  # a copy of the applied report
        self._records[msg.node_id] = NodeRecord(
            msg.node_id,
            rec.capable,
            capacity_pct,
            data_mb,
            num_agents,
            rec.c_max,
            rec.co_max,
            timestamp,
        )
        return True

    # -- reads -----------------------------------------------------------------------
    def _record(self, node_id: int) -> NodeRecord:
        try:
            return self._records[node_id]
        except KeyError:
            raise ProtocolError(f"unknown node {node_id} in NMDB") from None

    def record(self, node_id: int) -> NodeRecord:
        """Public read of one node's record."""
        return self._record(node_id)

    @property
    def num_nodes(self) -> int:
        return self.topology.num_nodes

    def last_stat_times(self) -> np.ndarray:
        """Time of each node's newest STAT, by node id (``-inf`` for a
        node that never reported)."""
        return np.array([self._records[n].last_stat_time for n in range(self.num_nodes)])

    def export_records(self) -> Dict[int, NodeRecord]:
        """Copy of the record table (records are frozen, safe to share)
        — the NMDB part of a manager snapshot."""
        return dict(self._records)

    def load_records(self, records: Dict[int, NodeRecord]) -> None:
        """Adopt persisted records (failover restore); nodes absent from
        the snapshot keep their blank defaults."""
        for node_id, rec in records.items():
            self._record(node_id)  # validate the id exists
            self._records[node_id] = rec

    def snapshot(self, now: float = 0.0) -> NetworkSnapshot:
        """Assemble the placement input from current records."""
        n = self.topology.num_nodes
        caps = np.zeros(n)
        data = np.zeros(n)
        part = np.zeros(n, dtype=bool)
        for node_id in range(n):
            rec = self._records[node_id]
            caps[node_id] = rec.capacity_pct
            data[node_id] = rec.data_mb
            part[node_id] = rec.capable
        roles = classify_network(caps, self.policy, part)
        return NetworkSnapshot(
            capacities=caps,
            data_mb=data,
            participating=part,
            roles=roles,
            policy=self.policy,
            timestamp=now,
        )
