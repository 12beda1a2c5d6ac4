"""Deterministic chaos harness: message faults × manager failover.

Composes the pieces this package already has — a :class:`FaultyNetwork`
fault model, the hardened manager/client protocol, and manager
failover — into seeded, replayable scenarios. A :class:`ChaosScenario`
fully determines a run: same scenario + same seed ⇒ identical fault
event log, identical checkpoint signatures, identical final ledger (the
determinism test relies on this, so no wall-clock or global randomness
may enter here).

The harness answers three questions the unit layers cannot:

* **convergence** — does a lossy run end at the same placement as the
  fault-free run of the same scenario (``evaluate_scenario``)?
* **recovery** — after a disruption (a manager crash), how
  long until the ledger matches the reference again, for good?
* **cost** — how many extra control messages did the faults and the
  retransmission machinery cost, and did monitoring traffic ever
  displace production traffic (strict-priority QoS audit)?
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.client import DUSTClient
from repro.core.failover import SnapshotStore, StandbyManager
from repro.core.manager import DUSTManager, ManagerCounters
from repro.core.messages import RetryPolicy
from repro.core.metrics import (
    AssignmentSignature,
    assignment_signature,
    message_overhead_pct,
    placement_divergence,
    recovery_time_s,
)
from repro.core.postoffload import QoSClass, StrictPriorityQueue
from repro.core.thresholds import ThresholdPolicy
from repro.errors import SimulationError
from repro.obs import CLIENT_MIRROR, get_registry, mirror_counters, trace_span
from repro.simulation.engine import SimulationEngine
from repro.simulation.network_sim import FaultConfig, FaultLogEntry, FaultyNetwork
from repro.topology.fattree import build_fat_tree
from repro.topology.graph import Topology
from repro.topology.links import BandwidthConvention, LinkUtilizationModel


@dataclass(frozen=True)
class ChaosScenario:
    """One fully-specified chaos run (a pure function of its fields)."""

    seed: int = 0
    pods: int = 4  # fat-tree k
    horizon_s: float = 3600.0
    manager_node: int = 0
    standby_node: Optional[int] = 1  # None disables failover machinery
    hot_nodes: Tuple[int, ...] = (5, 9, 14)
    hot_capacity_pct: float = 92.0
    cool_capacity_range: Tuple[float, float] = (15.0, 42.0)
    faults: FaultConfig = field(default_factory=FaultConfig)
    manager_crash_at: Optional[float] = None
    checkpoint_period_s: float = 120.0
    retry_policy: Optional[RetryPolicy] = field(
        default_factory=lambda: RetryPolicy(base_timeout_s=2.0, max_retries=5)
    )
    policy: ThresholdPolicy = field(
        default_factory=lambda: ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    )
    update_interval_s: float = 30.0
    optimization_period_s: float = 60.0
    keepalive_timeout_s: float = 45.0
    keepalive_period_s: float = 10.0

    def __post_init__(self) -> None:
        if self.horizon_s <= 0:
            raise SimulationError("scenario horizon must be positive")
        if self.checkpoint_period_s <= 0:
            raise SimulationError("checkpoint period must be positive")
        if self.standby_node == self.manager_node:
            raise SimulationError("standby and manager must be different nodes")
        if self.manager_crash_at is not None:
            if not 0.0 < self.manager_crash_at < self.horizon_s:
                raise SimulationError("manager crash must fall inside the horizon")
            if self.standby_node is None:
                raise SimulationError("a manager crash needs a standby to recover")
        reserved = {self.manager_node, self.standby_node}
        if reserved & set(self.hot_nodes):
            raise SimulationError("hot nodes cannot include manager/standby nodes")

    def reference(self) -> "ChaosScenario":
        """The fault-free twin: same wiring and seeds, zero faults."""
        return replace(
            self,
            faults=FaultConfig(),
            manager_crash_at=None,
        )

    @property
    def disruption_time(self) -> float:
        """Disruptive instant for recovery-time accounting: the manager
        crash when there is one, else t=0 (faults act from the start)."""
        return self.manager_crash_at if self.manager_crash_at is not None else 0.0


def default_scenario(seed: int = 0) -> ChaosScenario:
    """The acceptance scenario: 10% drop, duplication + reordering, one
    mid-run manager crash recovered by the standby."""
    return ChaosScenario(
        seed=seed,
        faults=FaultConfig(
            drop_probability=0.10,
            duplicate_probability=0.05,
            jitter_s=0.25,
            reorder_probability=0.10,
        ),
        manager_crash_at=1800.0,
    )


@dataclass(frozen=True)
class QoSAuditResult:
    """Strict-priority transmission audit over the active offloads."""

    offloads_audited: int
    production_loss_mb: float
    monitoring_delivered_mb: float
    monitoring_dropped_mb: float


@dataclass
class ChaosRunResult:
    """Everything a chaos run produced, metrics first."""

    scenario: ChaosScenario
    signature: AssignmentSignature
    checkpoints: Tuple[Tuple[float, AssignmentSignature], ...]
    counters: ManagerCounters
    messages_sent: int
    messages_delivered: int
    messages_dropped: int
    faults_dropped: int
    duplicates_injected: int
    client_retransmissions: int
    client_duplicates_ignored: int
    took_over_at: Optional[float]
    qos: QoSAuditResult
    event_log: Tuple[FaultLogEntry, ...]
    # Live objects, for tests that want to poke the post-run state.
    manager: DUSTManager = field(repr=False)
    standby: Optional[StandbyManager] = field(repr=False)
    clients: Dict[int, DUSTClient] = field(repr=False)
    engine: SimulationEngine = field(repr=False)
    network: FaultyNetwork = field(repr=False)

    def active_manager(self) -> DUSTManager:
        """The manager currently driving the control plane (the standby's
        promoted instance after a failover)."""
        if self.standby is not None and self.standby.manager is not None:
            return self.standby.manager
        return self.manager


def production_loss_audit(
    manager: DUSTManager,
    topology: Topology,
    clients: Dict[int, DUSTClient],
    interval_s: float = 1.0,
) -> QoSAuditResult:
    """Replay each active offload's data over its route's bottleneck
    link under strict-priority scheduling.

    Production traffic is the link's measured data-plane load
    (``utilization × capacity``); monitoring offload data rides in the
    lowest class, so any production-class loss would mean the QoS
    pinning is broken — the acceptance criterion requires exactly zero.
    """
    production_loss = 0.0
    monitoring_delivered = 0.0
    monitoring_dropped = 0.0
    audited = 0
    for offload in manager.ledger.active:
        route = offload.route or (offload.source, offload.destination)
        links = []
        for u, v in zip(route[:-1], route[1:]):
            try:
                links.append(topology.link_between(u, v))
            except Exception:
                continue  # resync-reconstructed routes may elide hops
        if not links:
            continue
        bottleneck = min(links, key=lambda l: l.effective_mbps(BandwidthConvention.AVAILABLE))
        capacity_mb = bottleneck.capacity_mbps * interval_s / 8.0
        production_mb = bottleneck.utilized_mbps * interval_s / 8.0
        client = clients.get(offload.source)
        data_mb = (client.data_mb if client is not None else 10.0) * (
            offload.amount_pct / 100.0
        )
        outcome = StrictPriorityQueue(capacity_mb).transmit(
            {
                QoSClass.PRODUCTION: production_mb,
                QoSClass.MONITORING_OFFLOAD: data_mb,
            }
        )
        production_loss += outcome.production_loss_mb
        monitoring_delivered += outcome.delivered(QoSClass.MONITORING_OFFLOAD)
        monitoring_dropped += outcome.dropped(QoSClass.MONITORING_OFFLOAD)
        audited += 1
    return QoSAuditResult(
        offloads_audited=audited,
        production_loss_mb=production_loss,
        monitoring_delivered_mb=monitoring_delivered,
        monitoring_dropped_mb=monitoring_dropped,
    )


def run_scenario(scenario: ChaosScenario) -> ChaosRunResult:
    """Execute one scenario on a fresh engine; fully deterministic.

    Each run increments ``chaos.runs``, times itself into
    ``chaos.run_seconds`` and, at the end, publishes the network's and
    clients' cumulative counters into the ``network.*`` / ``client.*``
    metrics. With tracing on, the whole run nests under one
    ``chaos.run`` span.
    """
    start = time.perf_counter()
    with trace_span(
        "chaos.run", seed=scenario.seed, faulty=not scenario.faults.is_null
    ):
        result = _run_scenario_impl(scenario)
    registry = get_registry()
    registry.counter("chaos.runs").inc()
    registry.histogram("chaos.run_seconds").observe(time.perf_counter() - start)
    result.network.publish_metrics()
    for client in result.clients.values():
        mirror_counters(client, CLIENT_MIRROR)
    return result


def _run_scenario_impl(scenario: ChaosScenario) -> ChaosRunResult:
    topology = build_fat_tree(scenario.pods)
    LinkUtilizationModel(0.2, 0.7, seed=scenario.seed).apply(topology)
    engine = SimulationEngine()
    network = FaultyNetwork(
        topology, engine, faults=scenario.faults, seed=scenario.seed
    )
    store = SnapshotStore() if scenario.standby_node is not None else None
    manager = DUSTManager(
        node_id=scenario.manager_node,
        topology=topology,
        engine=engine,
        network=network,
        policy=scenario.policy,
        update_interval_s=scenario.update_interval_s,
        optimization_period_s=scenario.optimization_period_s,
        keepalive_timeout_s=scenario.keepalive_timeout_s,
        retry_policy=scenario.retry_policy,
        snapshot_store=store,
        standby_node=scenario.standby_node,
        heartbeat_period_s=scenario.keepalive_period_s,
    )
    manager.start()
    standby: Optional[StandbyManager] = None
    if scenario.standby_node is not None:
        standby = StandbyManager(
            node_id=scenario.standby_node,
            topology=topology,
            engine=engine,
            network=network,
            policy=scenario.policy,
            snapshot_store=store,
            primary_node=scenario.manager_node,
            takeover_silence_s=3.0 * scenario.keepalive_period_s,
            check_period_s=scenario.keepalive_period_s,
            manager_kwargs=dict(
                update_interval_s=scenario.update_interval_s,
                optimization_period_s=scenario.optimization_period_s,
                keepalive_timeout_s=scenario.keepalive_timeout_s,
                retry_policy=scenario.retry_policy,
            ),
        )
        standby.start()
    reserved = {scenario.manager_node, scenario.standby_node}
    rng = np.random.default_rng(scenario.seed)
    clients: Dict[int, DUSTClient] = {}
    for node in range(topology.num_nodes):
        if node in reserved:
            continue
        low, high = scenario.cool_capacity_range
        base = (
            scenario.hot_capacity_pct
            if node in scenario.hot_nodes
            else float(rng.uniform(low, high))
        )
        client = DUSTClient(
            node_id=node,
            engine=engine,
            network=network,
            manager_node=scenario.manager_node,
            policy=scenario.policy,
            base_capacity=base,
            keepalive_period_s=scenario.keepalive_period_s,
            retry_policy=scenario.retry_policy,
        )
        client.start()
        clients[node] = client
    if scenario.manager_crash_at is not None:
        engine.schedule_at(
            scenario.manager_crash_at,
            lambda _engine: manager.crash() if manager.alive else None,
            label="chaos-manager-crash",
        )

    def active() -> DUSTManager:
        if standby is not None and standby.manager is not None:
            return standby.manager
        return manager

    checkpoints: List[Tuple[float, AssignmentSignature]] = []
    t = scenario.checkpoint_period_s
    while t < scenario.horizon_s:
        engine.run_until(t)
        checkpoints.append((t, assignment_signature(active().ledger.active)))
        t += scenario.checkpoint_period_s
    engine.run_until(scenario.horizon_s)
    current = active()
    signature = assignment_signature(current.ledger.active)
    checkpoints.append((scenario.horizon_s, signature))
    counters = current.refresh_transport_counters()
    qos = production_loss_audit(current, topology, clients)
    return ChaosRunResult(
        scenario=scenario,
        signature=signature,
        checkpoints=tuple(checkpoints),
        counters=counters,
        messages_sent=network.messages_sent,
        messages_delivered=network.messages_delivered,
        messages_dropped=network.messages_dropped,
        faults_dropped=network.faults_dropped,
        duplicates_injected=network.duplicates_injected,
        client_retransmissions=sum(c.retransmissions for c in clients.values()),
        client_duplicates_ignored=sum(
            c.duplicates_ignored for c in clients.values()
        ),
        took_over_at=standby.took_over_at if standby is not None else None,
        qos=qos,
        event_log=tuple(network.event_log),
        manager=manager,
        standby=standby,
        clients=clients,
        engine=engine,
        network=network,
    )


@dataclass(frozen=True)
class ScenarioComparison:
    """Lossy run measured against its fault-free twin."""

    converged: bool
    divergence: float
    recovery_s: Optional[float]
    overhead_pct: float
    faulty: ChaosRunResult = field(repr=False, compare=False)
    reference: ChaosRunResult = field(repr=False, compare=False)


def evaluate_scenario(scenario: ChaosScenario) -> ScenarioComparison:
    """Run the scenario and its fault-free reference twin; compare.

    Parameters
    ----------
    scenario : ChaosScenario
        The lossy scenario to evaluate. Its fault-free twin
        (``scenario.reference()``) is run on the same seed so the two
        runs differ only by injected faults.

    Returns
    -------
    ScenarioComparison
        ``converged`` (identical final assignment signatures),
        placement ``divergence``, ``recovery_s`` after the disruption
        and message ``overhead_pct``; the full faulty and reference
        :class:`ChaosRunResult` objects ride along. Each evaluation
        also increments the ``chaos.scenarios_evaluated`` metric.
    """
    with trace_span("chaos.evaluate", seed=scenario.seed):
        faulty = run_scenario(scenario)
        reference = run_scenario(scenario.reference())
    get_registry().counter("chaos.scenarios_evaluated").inc()
    divergence = placement_divergence(reference.signature, faulty.signature)
    recovery = recovery_time_s(
        faulty.checkpoints, reference.signature, scenario.disruption_time
    )
    overhead = message_overhead_pct(faulty.messages_sent, reference.messages_sent)
    return ScenarioComparison(
        converged=faulty.signature == reference.signature,
        divergence=divergence,
        recovery_s=recovery,
        overhead_pct=overhead,
        faulty=faulty,
        reference=reference,
    )
