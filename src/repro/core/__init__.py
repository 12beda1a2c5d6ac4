"""DUST core — the paper's primary contribution.

Role assignment, threshold policy (Δ_io), the control-plane protocol,
the NMDB, the Eq.-3 placement engine, Algorithm 1, the manager/client
runtimes and the post-offload machinery.
"""

from __future__ import annotations

from repro.core.audit import AuditReport, audit_system
from repro.core.client import DUSTClient, HostedWorkload
from repro.core.degradation import DegradationLadder, DegradationLevel, LadderConfig
from repro.core.failover import ManagerSnapshot, SnapshotStore, StandbyManager
from repro.core.heuristic import (
    HeuristicReport,
    solve_heuristic,
)
from repro.core.manager import DUSTManager, ManagerCounters
from repro.core.messages import (
    Ack,
    ControlMessage,
    DedupCache,
    Keepalive,
    ManagerHeartbeat,
    MessageType,
    OffloadAck,
    OffloadCapable,
    OffloadRequest,
    Receipt,
    Reclaim,
    Redirect,
    ReliableSender,
    Rep,
    Resync,
    RetryPolicy,
    Stat,
)
from repro.core.metrics import (
    SuccessCategory,
    SuccessRateSummary,
    assignment_signature,
    categorize_iteration,
    fit_power_law,
    hfr_pct,
    infeasible_rate_pct,
    mean_hops,
    message_overhead_pct,
    placement_divergence,
    recovery_time_s,
    relief_by_source,
    relief_divergence,
    summarize_categories,
)
from repro.core.multiresource import (
    DEFAULT_RESOURCES,
    MultiResourceProblem,
    MultiResourceReport,
    solve_multiresource,
)
from repro.core.nmdb import NMDB, NetworkSnapshot, NodeRecord
from repro.core.offload import ActiveOffload, OffloadLedger, RowState
from repro.core.placement import (
    PlacementAssignment,
    PlacementEngine,
    PlacementProblem,
    PlacementReport,
)
from repro.core.postoffload import (
    KeepaliveTracker,
    QoSClass,
    ReplicaSelector,
    StrictPriorityQueue,
    TransmissionOutcome,
)
from repro.core.zoning import (
    DistributedPlacementEngine,
    DistributedPlacementReport,
    Zone,
    ZonedPlacementEngine,
    ZonedPlacementReport,
    partition_by_pod,
    validate_partition,
    zone_boundaries,
)
from repro.core.roles import NodeRole, RoleAssignment, classify_network, classify_node
from repro.core.thresholds import RECOMMENDED_K_IO, ThresholdPolicy

__all__ = [
    "ActiveOffload",
    "AuditReport",
    "audit_system",
    "Ack",
    "ControlMessage",
    "DUSTClient",
    "DUSTManager",
    "DedupCache",
    "DegradationLadder",
    "DegradationLevel",
    "LadderConfig",
    "HeuristicReport",
    "HostedWorkload",
    "Keepalive",
    "KeepaliveTracker",
    "ManagerCounters",
    "ManagerHeartbeat",
    "ManagerSnapshot",
    "MessageType",
    "MultiResourceProblem",
    "MultiResourceReport",
    "DEFAULT_RESOURCES",
    "solve_multiresource",
    "NMDB",
    "NetworkSnapshot",
    "NodeRecord",
    "NodeRole",
    "OffloadAck",
    "OffloadCapable",
    "OffloadLedger",
    "OffloadRequest",
    "PlacementAssignment",
    "PlacementEngine",
    "PlacementProblem",
    "PlacementReport",
    "QoSClass",
    "RECOMMENDED_K_IO",
    "Receipt",
    "Reclaim",
    "Redirect",
    "ReliableSender",
    "Rep",
    "ReplicaSelector",
    "Resync",
    "RetryPolicy",
    "RoleAssignment",
    "RowState",
    "SnapshotStore",
    "StandbyManager",
    "Stat",
    "DistributedPlacementEngine",
    "DistributedPlacementReport",
    "Zone",
    "ZonedPlacementEngine",
    "ZonedPlacementReport",
    "zone_boundaries",
    "partition_by_pod",
    "validate_partition",
    "StrictPriorityQueue",
    "SuccessCategory",
    "SuccessRateSummary",
    "ThresholdPolicy",
    "TransmissionOutcome",
    "assignment_signature",
    "categorize_iteration",
    "classify_network",
    "classify_node",
    "fit_power_law",
    "hfr_pct",
    "infeasible_rate_pct",
    "mean_hops",
    "message_overhead_pct",
    "placement_divergence",
    "recovery_time_s",
    "relief_by_source",
    "relief_divergence",
    "solve_heuristic",
    "summarize_categories",
]
