"""Deployment builder and deterministic chaos harness.

:func:`build_deployment` wires the paper's system in one place — a
(possibly faulty) network, the DUST-Manager, an optional standby
sharing its snapshot store, and one client per node — from a
:class:`Wiring` and each node's base capacity. The resilience run
below, the soak (:mod:`repro.simulation.soak`) and the overhead study
all build through it, and a :class:`FaultSchedule` (message faults, a
timed partition, a manager crash) is their one way to write down what
goes wrong.

A :class:`ChaosScenario` fully determines a run: same scenario + same
seed ⇒ identical fault event log, identical checkpoint signatures,
identical final ledger (the determinism test relies on this, so no
wall-clock or global randomness may enter here).

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
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.client import CapacityFn, DUSTClient
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
from repro.errors import SimulationError, TopologyError
from repro.obs import CLIENT_MIRROR, get_registry, mirror_counters, trace_span
from repro.simulation.engine import SimulationEngine
from repro.simulation.network_sim import FaultConfig, FaultLogEntry, FaultyNetwork
from repro.simulation.profiles import _require_positive
from repro.topology.fattree import build_fat_tree
from repro.topology.graph import Topology
from repro.topology.links import BandwidthConvention, LinkUtilizationModel


@dataclass(frozen=True)
class FaultSchedule:
    """What goes wrong in one run: message faults from the start, a timed
    partition (healed or not) and a manager crash."""

    faults: FaultConfig = field(default_factory=FaultConfig)
    partition_at: Optional[float] = None
    partition_heal_at: Optional[float] = None
    partition_groups: Tuple[Tuple[int, ...], ...] = ()
    manager_crash_at: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.partition_at is None) != (not self.partition_groups):
            raise SimulationError("partition_at and partition_groups go together")
        if self.partition_at is not None:
            heal = self.partition_heal_at
            if heal is not None and heal <= self.partition_at:
                raise SimulationError("partition must heal after it starts")

    @property
    def is_null(self) -> bool:
        return (
            self.faults.is_null
            and self.partition_at is None
            and self.manager_crash_at is None
        )


@dataclass(frozen=True)
class Wiring:
    """One deployment's control plane: who manages, how often everyone
    talks, how long it runs and what goes wrong."""

    seed: int = 0
    pods: int = 4  # fat-tree k
    horizon_s: float = 3600.0
    manager_node: int = 0
    standby_node: Optional[int] = 1  # None disables failover machinery
    policy: ThresholdPolicy = field(
        default_factory=lambda: ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    )
    retry_policy: Optional[RetryPolicy] = field(
        default_factory=lambda: RetryPolicy(base_timeout_s=2.0, max_retries=5)
    )
    update_interval_s: float = 30.0
    optimization_period_s: float = 60.0
    keepalive_timeout_s: float = 45.0
    keepalive_period_s: float = 10.0
    chaos: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        _require_positive("horizon", self.horizon_s)
        if self.standby_node == self.manager_node:
            raise SimulationError("standby and manager must be different nodes")
        crash_at = self.chaos.manager_crash_at if self.chaos is not None else None
        if crash_at is not None:
            if not 0.0 < crash_at < self.horizon_s:
                raise SimulationError("manager crash must fall inside the horizon")
            if self.standby_node is None:
                raise SimulationError("a manager crash needs a standby to recover")

    @property
    def chaotic(self) -> bool:
        return self.chaos is not None and not self.chaos.is_null


@dataclass
class Deployment:
    """A started deployment: its engine, fabric, managers and clients."""

    topology: Topology
    engine: SimulationEngine
    network: FaultyNetwork
    manager: DUSTManager
    standby: Optional[StandbyManager]
    clients: Dict[int, DUSTClient]

    def active(self) -> DUSTManager:
        """The manager currently driving the control plane (the standby's
        promoted instance after a failover)."""
        if self.standby is not None and self.standby.manager is not None:
            return self.standby.manager
        return self.manager

    @property
    def took_over_at(self) -> Optional[float]:
        return self.standby.took_over_at if self.standby is not None else None

    def schedule(self, chaos: Optional[FaultSchedule]) -> None:
        """Put the schedule's partition, heal and manager crash on the
        engine (its message faults already ride in the network)."""
        if chaos is None:
            return
        engine, network, manager = self.engine, self.network, self.manager
        if chaos.partition_at is not None:
            groups = chaos.partition_groups
            engine.schedule_at(
                chaos.partition_at, lambda _e: network.set_partition(groups), label="partition"
            )
            if chaos.partition_heal_at is not None:
                engine.schedule_at(
                    chaos.partition_heal_at,
                    lambda _e: network.heal_partition(),
                    label="partition-heal",
                )
        if chaos.manager_crash_at is not None:
            engine.schedule_at(
                chaos.manager_crash_at,
                lambda _e: manager.crash() if manager.alive else None,
                label="manager-crash",
            )

    def audit(self) -> Tuple[ManagerCounters, QoSAuditResult]:
        """The active manager's transport counters and the QoS audit of
        its ledger, as the run ends."""
        current = self.active()
        counters = current.refresh_transport_counters()
        return counters, production_loss_audit(current, self.topology, self.clients)

    def publish_metrics(self) -> None:
        """Fold the fabric's and the clients' counters into the registry."""
        self.network.publish_metrics()
        for client in self.clients.values():
            mirror_counters(client, CLIENT_MIRROR)


def build_deployment(
    wiring: Wiring,
    topology: Topology,
    capacities: Mapping[int, CapacityFn],
    on_admission: Optional[Callable[[int], None]] = None,
    on_eviction: Optional[Callable[[int], None]] = None,
    dedup_ttl_s: Optional[float] = None,
) -> Deployment:
    """Wire and start one deployment on ``topology``.

    Builds the network (a :class:`FaultyNetwork` carrying
    ``wiring.chaos``'s message faults; with none it takes the plain
    :class:`MessageNetwork` send path), then the manager, then the
    standby with a shared :class:`SnapshotStore` when the wiring names
    one, then one client per ``capacities`` entry (node → base
    capacity, a number or a function of time), starting each in that
    order. The manager's transport jitter is seeded with
    ``wiring.seed``; ``dedup_ttl_s`` bounds its duplicate filter's
    memory (unbounded by default). Timed faults are put on the engine separately
    (:meth:`Deployment.schedule`), where each run wants them.
    """
    w = wiring
    engine = SimulationEngine()
    faults = w.chaos.faults if w.chaos is not None else None
    network = FaultyNetwork(topology, engine, faults=faults, seed=w.seed)
    store = SnapshotStore() if w.standby_node is not None else None
    manager_kwargs = dict(
        update_interval_s=w.update_interval_s,
        optimization_period_s=w.optimization_period_s,
        keepalive_timeout_s=w.keepalive_timeout_s,
        retry_policy=w.retry_policy,
        dedup_ttl_s=dedup_ttl_s,
        transport_seed=w.seed,
        on_admission=on_admission,
        on_eviction=on_eviction,
    )
    manager = DUSTManager(
        node_id=w.manager_node,
        topology=topology,
        engine=engine,
        network=network,
        policy=w.policy,
        snapshot_store=store,
        standby_node=w.standby_node,
        heartbeat_period_s=w.keepalive_period_s,
        **manager_kwargs,
    )
    manager.start()
    standby: Optional[StandbyManager] = None
    if w.standby_node is not None:
        standby = StandbyManager(
            node_id=w.standby_node,
            topology=topology,
            engine=engine,
            network=network,
            policy=w.policy,
            snapshot_store=store,
            primary_node=w.manager_node,
            takeover_silence_s=3.0 * w.keepalive_period_s,
            check_period_s=w.keepalive_period_s,
            manager_kwargs=manager_kwargs,
        )
        standby.start()
    clients: Dict[int, DUSTClient] = {}
    for node, base in capacities.items():
        client = DUSTClient(
            node_id=node,
            engine=engine,
            network=network,
            manager_node=w.manager_node,
            policy=w.policy,
            base_capacity=base,
            keepalive_period_s=w.keepalive_period_s,
            retry_policy=w.retry_policy,
        )
        client.start()
        clients[node] = client
    return Deployment(topology, engine, network, manager, standby, clients)


@dataclass(frozen=True)
class ChaosScenario(Wiring):
    """One fully-specified chaos run (a pure function of its fields)."""

    hot_nodes: Tuple[int, ...] = (5, 9, 14)
    hot_capacity_pct: float = 92.0
    cool_capacity_range: Tuple[float, float] = (15.0, 42.0)
    checkpoint_period_s: float = 120.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive("checkpoint period", self.checkpoint_period_s)
        reserved = {self.manager_node, self.standby_node}
        if reserved & set(self.hot_nodes):
            raise SimulationError("hot nodes cannot include manager/standby nodes")

    def reference(self) -> "ChaosScenario":
        """The fault-free twin: same wiring and seeds, no faults."""
        return replace(self, chaos=None)

    @property
    def disruption_time(self) -> float:
        """Disruptive instant for recovery-time accounting: the manager
        crash when there is one, else t=0 (faults act from the start)."""
        crash_at = self.chaos.manager_crash_at if self.chaos is not None else None
        return crash_at if crash_at is not None else 0.0


def default_scenario(seed: int = 0) -> ChaosScenario:
    """The acceptance scenario: 10% drop, duplication + reordering, one
    mid-run manager crash recovered by the standby."""
    return ChaosScenario(
        seed=seed,
        chaos=FaultSchedule(
            faults=FaultConfig(
                drop_probability=0.10,
                duplicate_probability=0.05,
                jitter_s=0.25,
                reorder_probability=0.10,
            ),
            manager_crash_at=1800.0,
        ),
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
            except TopologyError:
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
    with trace_span("chaos.run", seed=scenario.seed, faulty=scenario.chaotic):
        topology = build_fat_tree(scenario.pods)
        LinkUtilizationModel(0.2, 0.7, seed=scenario.seed).apply(topology)
        reserved = {scenario.manager_node, scenario.standby_node}
        rng = np.random.default_rng(scenario.seed)
        low, high = scenario.cool_capacity_range
        capacities = {
            node: scenario.hot_capacity_pct
            if node in scenario.hot_nodes
            else float(rng.uniform(low, high))
            for node in range(topology.num_nodes)
            if node not in reserved
        }
        deployment = build_deployment(scenario, topology, capacities)
        deployment.schedule(scenario.chaos)
        engine, network = deployment.engine, deployment.network
        checkpoints: List[Tuple[float, AssignmentSignature]] = []
        t = scenario.checkpoint_period_s
        while t < scenario.horizon_s:
            engine.run_until(t)
            checkpoints.append((t, assignment_signature(deployment.active().ledger.active)))
            t += scenario.checkpoint_period_s
        engine.run_until(scenario.horizon_s)
        signature = assignment_signature(deployment.active().ledger.active)
        checkpoints.append((scenario.horizon_s, signature))
        counters, qos = deployment.audit()
    registry = get_registry()
    registry.counter("chaos.runs").inc()
    registry.histogram("chaos.run_seconds").observe(time.perf_counter() - start)
    deployment.publish_metrics()
    clients = deployment.clients
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
        took_over_at=deployment.took_over_at,
        qos=qos,
        event_log=tuple(network.event_log),
        manager=deployment.manager,
        standby=deployment.standby,
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
