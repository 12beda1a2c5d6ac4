"""Soak harness: sustained churn + composed chaos against the control plane.

Where :mod:`repro.simulation.chaos` answers "does one disrupted run
converge back to the fault-free placement?", the soak harness answers
the operational question behind ROADMAP item "streaming online control
plane": *does the manager survive hours of open-loop traffic without
falling over, and degrade gracefully when it cannot keep up?*

The driver feeds three **open-loop** event streams (arrival processes
from :mod:`repro.simulation.profiles` — the environment emits at its
own pace whether or not the control plane keeps up) into the manager:

* **load changes** — a device's intrinsic utilisation moves;
* **offload demands** — a device overloads past ``c_max`` and needs
  relief placed;
* **admission/eviction churn** — devices crash out of and re-announce
  into the deployment.

Events pass through a bounded **ingress gate** with strict QoS tiers
(PRODUCTION > STANDARD > BACKGROUND). Overload engages a
:class:`~repro.core.degradation.DegradationLadder`: first BACKGROUND
re-placements are shed, then the re-solve interval widens, finally
placement freezes and the stale assignment keeps serving. PRODUCTION
events are *never* shed or rejected — when the gate is full they evict
the lowest-tier queued event instead (and overflow the bound rather
than drop, which drives the ladder to FREEZE).

Re-placement itself stays **incremental**: each round places only the
excess that is busy *now*, on top of the offloads already in the
ledger; it never re-places from scratch. A periodic **drift watchdog**
keeps that honest: it plans a from-scratch round from the active
manager's view with the ledger undone
(:func:`~repro.core.placement.plan_round`, ``"from-scratch"`` mode),
solves it on the manager's own stateless
:meth:`~repro.core.placement.PlacementEngine.solve`, compares
per-source relief
(:func:`~repro.core.metrics.relief_divergence`), and past
``drift_bound`` forces reconvergence via
:meth:`~repro.core.manager.DUSTManager.reset_placement`.

Chaos composes on top: a :class:`FaultConfig` (loss, duplication,
reordering), a timed network partition, and a mid-soak manager crash
recovered by the standby — all while the event streams keep flowing.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.core.client import DUSTClient
from repro.core.degradation import DegradationLadder, DegradationLevel, LadderConfig
from repro.core.failover import SnapshotStore, StandbyManager
from repro.core.heuristic import solve_heuristic
from repro.core.manager import DUSTManager, ManagerCounters
from repro.core.messages import RetryPolicy
from repro.core.metrics import relief_by_source, relief_divergence
from repro.core.placement import plan_round
from repro.core.thresholds import ThresholdPolicy
from repro.errors import SimulationError
from repro.obs import CLIENT_MIRROR, get_registry, mirror_counters, trace_span
from repro.simulation.chaos import QoSAuditResult, production_loss_audit
from repro.simulation.engine import SimulationEngine
from repro.simulation.network_sim import FaultConfig, FaultyNetwork
from repro.simulation.profiles import (
    ArrivalProcess,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    _require_positive,
)
from repro.topology.fattree import build_fat_tree
from repro.topology.links import LinkUtilizationModel


class QoSTier(enum.IntEnum):
    """Event tiers, in shedding order (lowest shed first)."""

    BACKGROUND = 0
    STANDARD = 1
    PRODUCTION = 2


@dataclass(frozen=True)
class SoakEvent:
    """One control-plane event emitted by an arrival stream."""

    time: float
    kind: str  # "load" | "offload" | "churn"
    node: int
    value: float
    tier: QoSTier


@dataclass(frozen=True)
class StreamSpec:
    """One arrival stream: process shape + rate, built per (seed, salt)."""

    kind: str = "poisson"  # "poisson" | "diurnal" | "bursty"
    rate_per_s: float = 10.0
    swing: float = 0.8  # diurnal
    period_s: float = 600.0  # diurnal
    burst_rate_per_s: Optional[float] = None  # bursty (default 10× calm)
    mean_calm_s: float = 120.0  # bursty
    mean_burst_s: float = 20.0  # bursty

    def build(self, seed: int, salt: int) -> ArrivalProcess:
        stream_seed = int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])
        if self.kind == "poisson":
            return PoissonArrivals(self.rate_per_s, seed=stream_seed)
        if self.kind == "diurnal":
            return DiurnalArrivals(
                self.rate_per_s,
                swing=self.swing,
                period_s=self.period_s,
                seed=stream_seed,
            )
        if self.kind == "bursty":
            burst = self.burst_rate_per_s or 10.0 * self.rate_per_s
            return BurstyArrivals(
                self.rate_per_s,
                burst,
                mean_calm_s=self.mean_calm_s,
                mean_burst_s=self.mean_burst_s,
                seed=stream_seed,
            )
        raise SimulationError(f"unknown arrival kind {self.kind!r}")


@dataclass(frozen=True)
class SoakChaos:
    """Composed chaos riding on top of the sustained traffic."""

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


def default_soak_chaos(crash_at: float = 240.0) -> SoakChaos:
    """The acceptance composition: 20% loss + duplication/reordering,
    one 60 s partition isolating a pod, one mid-soak manager crash."""
    return SoakChaos(
        faults=FaultConfig(
            drop_probability=0.20,
            duplicate_probability=0.05,
            jitter_s=0.2,
            reorder_probability=0.05,
        ),
        partition_at=crash_at / 2.0,
        partition_heal_at=crash_at / 2.0 + 60.0,
        partition_groups=((16, 17, 18, 19),),  # one fat-tree(4) pod's hosts+edges
        manager_crash_at=crash_at,
    )


@dataclass(frozen=True)
class SoakConfig:
    """One fully-specified soak run (a pure function of its fields)."""

    seed: int = 0
    pods: int = 4
    horizon_s: float = 600.0
    manager_node: int = 0
    standby_node: int = 1
    # -- arrival streams ----------------------------------------------------
    load_stream: StreamSpec = field(default_factory=lambda: StreamSpec("diurnal", 20.0))
    offload_stream: StreamSpec = field(default_factory=lambda: StreamSpec("poisson", 0.25))
    churn_stream: StreamSpec = field(
        default_factory=lambda: StreamSpec("bursty", 0.05, burst_rate_per_s=0.5)
    )
    # -- backpressure gate + degradation ladder -----------------------------
    ingress_capacity: int = 512
    drain_period_s: float = 1.0
    drain_batch: int = 256
    ladder: LadderConfig = field(default_factory=LadderConfig)
    # -- drift watchdog -----------------------------------------------------
    oracle_period_s: float = 60.0
    drift_bound: float = 0.5
    #: Consecutive out-of-bound oracle samples before the watchdog
    #: forces reconvergence — debounce, so an in-flight grant (overload
    #: seen by the oracle before the round that places it) does not
    #: trigger a full teardown.
    watchdog_strikes: int = 2
    # -- chaos --------------------------------------------------------------
    chaos: Optional[SoakChaos] = None
    # -- control-plane wiring (mirrors ChaosScenario) -----------------------
    policy: ThresholdPolicy = field(
        default_factory=lambda: ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    )
    retry_policy: Optional[RetryPolicy] = field(
        default_factory=lambda: RetryPolicy(base_timeout_s=2.0, max_retries=5, jitter=0.5)
    )
    update_interval_s: float = 15.0
    optimization_period_s: float = 30.0
    keepalive_timeout_s: float = 45.0
    keepalive_period_s: float = 10.0
    load_range: Tuple[float, float] = (10.0, 95.0)
    #: Half-width of one load event's random-walk step. Load events are
    #: *deltas*, not resamples: the stream can run at hundreds of
    #: events/s (the throughput target) while each node's load stays a
    #: slowly-drifting signal the 15 s STAT loop can actually track.
    load_step_pct: float = 4.0

    def __post_init__(self) -> None:
        _require_positive("soak horizon", self.horizon_s)
        if self.ingress_capacity < 1 or self.drain_batch < 1:
            raise SimulationError("gate capacity and drain batch must be >= 1")
        _require_positive("drain period", self.drain_period_s)
        _require_positive("oracle period", self.oracle_period_s)
        if not 0.0 < self.drift_bound:
            raise SimulationError("drift bound must be positive")
        if self.watchdog_strikes < 1:
            raise SimulationError("watchdog needs at least one strike")
        if self.standby_node == self.manager_node:
            raise SimulationError("standby and manager must be different nodes")
        if self.chaos is not None and self.chaos.manager_crash_at is not None:
            if not 0.0 < self.chaos.manager_crash_at < self.horizon_s:
                raise SimulationError("manager crash must fall inside the horizon")


class IngressGate:
    """Bounded, QoS-tiered admission queue in front of the control plane.

    Admission policy, in order: (1) when the ladder is shedding,
    BACKGROUND events are dropped outright; (2) a full gate rejects
    STANDARD/BACKGROUND arrivals (drop-tail); (3) PRODUCTION arrivals
    are *always* admitted — a full gate evicts its oldest lowest-tier
    queued event to make room, and when only PRODUCTION remains the
    queue overflows its bound instead of dropping (fill > 1 then pushes
    the ladder to FREEZE). Every decision is counted per tier.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._queue: Deque[SoakEvent] = deque()
        self.admitted: Dict[QoSTier, int] = {t: 0 for t in QoSTier}
        self.rejected: Dict[QoSTier, int] = {t: 0 for t in QoSTier}
        self.shed: Dict[QoSTier, int] = {t: 0 for t in QoSTier}

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def fill(self) -> float:
        return len(self._queue) / self.capacity

    def admit(self, event: SoakEvent, shedding: bool) -> bool:
        if shedding and event.tier == QoSTier.BACKGROUND:
            self.shed[event.tier] += 1
            get_registry().counter("soak.events_shed").inc()
            return False
        if len(self._queue) >= self.capacity:
            if event.tier != QoSTier.PRODUCTION:
                self.rejected[event.tier] += 1
                get_registry().counter("soak.events_rejected").inc()
                return False
            victim_idx = None
            lowest = QoSTier.PRODUCTION
            for idx, queued in enumerate(self._queue):
                if queued.tier < lowest:
                    lowest, victim_idx = queued.tier, idx
                    if lowest == QoSTier.BACKGROUND:
                        break
            if victim_idx is not None:
                victim = self._queue[victim_idx]
                del self._queue[victim_idx]
                self.rejected[victim.tier] += 1
                get_registry().counter("soak.events_rejected").inc()
            # else: all-PRODUCTION queue — overflow the bound, never drop.
        self._queue.append(event)
        self.admitted[event.tier] += 1
        return True

    def drain(self, limit: int) -> List[SoakEvent]:
        batch: List[SoakEvent] = []
        while self._queue and len(batch) < limit:
            batch.append(self._queue.popleft())
        return batch


@dataclass
class SoakResult:
    """Everything a soak run produced, acceptance metrics first."""

    config: SoakConfig
    events_generated: int
    events_applied: int
    applied_by_tier: Dict[QoSTier, int]
    rejected_by_tier: Dict[QoSTier, int]
    shed_by_tier: Dict[QoSTier, int]
    wall_seconds: float
    events_per_min: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    ladder_max_level: DegradationLevel
    ladder_transitions: Tuple[tuple, ...]
    drift_samples: Tuple[Tuple[float, float], ...]
    final_drift: float
    watchdog_resets: int
    took_over_at: Optional[float]
    qos: QoSAuditResult
    counters: ManagerCounters
    # Live objects, for tests that want to poke the post-run state.
    manager: DUSTManager = field(repr=False)
    standby: Optional[StandbyManager] = field(repr=False)
    clients: Dict[int, DUSTClient] = field(repr=False)
    engine: SimulationEngine = field(repr=False)
    network: FaultyNetwork = field(repr=False)
    gate: IngressGate = field(repr=False)

    @property
    def production_losses(self) -> int:
        """PRODUCTION-tier events shed or rejected (acceptance: zero)."""
        return (
            self.rejected_by_tier[QoSTier.PRODUCTION]
            + self.shed_by_tier[QoSTier.PRODUCTION]
        )


class _SoakDriver:
    """Run-scoped state machine wiring streams → gate → control plane."""

    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        self.topology = build_fat_tree(config.pods)
        LinkUtilizationModel(0.2, 0.7, seed=config.seed).apply(self.topology)
        self.engine = SimulationEngine()
        faults = config.chaos.faults if config.chaos is not None else FaultConfig()
        self.network = FaultyNetwork(
            self.topology, self.engine, faults=faults, seed=config.seed
        )
        self.gate = IngressGate(config.ingress_capacity)
        self.ladder = DegradationLadder(config.ladder)
        self.loads: Dict[int, float] = {}
        self.clients: Dict[int, DUSTClient] = {}
        self.events_generated = 0
        # ``MetricsRegistry.reset()`` keeps instruments, so the handle
        # stays live for the whole run.
        self._generated_counter = get_registry().counter("soak.events_generated")
        #: One ``[next_time, salt, kind, process]`` head per open-loop
        #: stream that has an arrival left before the horizon.
        self._heads: List[list] = []
        self.applied_by_tier: Dict[QoSTier, int] = {t: 0 for t in QoSTier}
        self.latencies: List[float] = []
        self.drift_samples: List[Tuple[float, float]] = []
        self.watchdog_resets = 0
        self._drift_strikes = 0
        self.admissions = 0
        self.evictions = 0
        self._rng = np.random.default_rng(config.seed)

        store = SnapshotStore()
        self.manager = DUSTManager(
            node_id=config.manager_node,
            topology=self.topology,
            engine=self.engine,
            network=self.network,
            policy=config.policy,
            update_interval_s=config.update_interval_s,
            optimization_period_s=config.optimization_period_s,
            keepalive_timeout_s=config.keepalive_timeout_s,
            retry_policy=config.retry_policy,
            snapshot_store=store,
            standby_node=config.standby_node,
            heartbeat_period_s=config.keepalive_period_s,
            dedup_ttl_s=20.0 * config.update_interval_s,
            transport_seed=config.seed,
            on_admission=self._on_admission,
            on_eviction=self._on_eviction,
        )
        self.manager.start()
        self.standby = StandbyManager(
            node_id=config.standby_node,
            topology=self.topology,
            engine=self.engine,
            network=self.network,
            policy=config.policy,
            snapshot_store=store,
            primary_node=config.manager_node,
            takeover_silence_s=3.0 * config.keepalive_period_s,
            check_period_s=config.keepalive_period_s,
            manager_kwargs=dict(
                update_interval_s=config.update_interval_s,
                optimization_period_s=config.optimization_period_s,
                keepalive_timeout_s=config.keepalive_timeout_s,
                retry_policy=config.retry_policy,
                dedup_ttl_s=20.0 * config.update_interval_s,
                transport_seed=config.seed,
                on_admission=self._on_admission,
                on_eviction=self._on_eviction,
            ),
        )
        self.standby.start()

        reserved = {config.manager_node, config.standby_node}
        low, high = config.load_range
        for node in range(self.topology.num_nodes):
            if node in reserved:
                continue
            self.loads[node] = float(self._rng.uniform(low, min(high, 60.0)))
            client = DUSTClient(
                node_id=node,
                engine=self.engine,
                network=self.network,
                manager_node=config.manager_node,
                policy=config.policy,
                base_capacity=(lambda t, n=node: self.loads[n]),
                keepalive_period_s=config.keepalive_period_s,
                retry_policy=config.retry_policy,
            )
            client.start()
            self.clients[node] = client
        self._targets = tuple((node, self._tier_of(node)) for node in sorted(self.clients))
        # ``(low, high - low)`` per event kind: ``low + (high - low) *
        # random()`` is numpy's ``uniform(low, high)`` bit for bit, at a
        # third of the call cost.
        step = config.load_step_pct
        offload_low = min(config.policy.c_max + 2.0, high)
        self._value_draws: Dict[str, Optional[Tuple[float, float]]] = {
            "load": (-step, step - (-step)),
            # An explicit offload demand: push the node past c_max.
            "offload": (offload_low, high - offload_low),
            "churn": None,  # value unused
        }

    # -- manager hooks --------------------------------------------------------
    def _on_admission(self, node: int) -> None:
        self.admissions += 1
        get_registry().counter("soak.admissions").inc()

    def _on_eviction(self, node: int) -> None:
        self.evictions += 1
        get_registry().counter("soak.evictions").inc()

    def active(self) -> DUSTManager:
        if self.standby.manager is not None:
            return self.standby.manager
        return self.manager

    # -- event generation (open loop) ----------------------------------------
    def _tier_of(self, node: int) -> QoSTier:
        # Fixed per-node tiers (node id mod 4): 1/4 of the fleet is
        # PRODUCTION, 1/2 STANDARD, 1/4 BACKGROUND.
        bucket = node % 4
        if bucket == 0:
            return QoSTier.PRODUCTION
        if bucket == 3:
            return QoSTier.BACKGROUND
        return QoSTier.STANDARD

    def _make_event(self, kind: str, now: float) -> SoakEvent:
        rng = self._rng
        node, tier = self._targets[rng.integers(len(self._targets))]
        draw = self._value_draws[kind]
        value = 0.0 if draw is None else draw[0] + draw[1] * rng.random()
        return SoakEvent(time=now, kind=kind, node=node, value=value, tier=tier)

    def _streams(self) -> List[Tuple[int, str, ArrivalProcess]]:
        """``(salt, kind, process)`` for the three open-loop streams."""
        config = self.config
        return [
            (salt, kind, spec.build(config.seed, salt=salt))
            for salt, (kind, spec) in enumerate(
                (
                    ("load", config.load_stream),
                    ("offload", config.offload_stream),
                    ("churn", config.churn_stream),
                ),
                start=1,
            )
        ]

    def _start_streams(self) -> None:
        horizon = self.config.horizon_s
        for salt, kind, process in self._streams():
            first = process.next_arrival()
            if first < horizon:
                self._heads.append([first, salt, kind, process])

    def _admit_arrivals(self, until: float) -> None:
        """Admit every arrival at or before ``until`` to the gate, in
        time order, each stamped with its own arrival time.

        The streams are open loop and an arrival only writes the gate
        queue, the gate's per-tier counters, the driver ``_rng`` and
        ``events_generated``. Between arrivals only :meth:`_drain_tick`
        reads the gate or moves the ladder, and it calls this first. So
        admitting a tick's arrivals when the tick fires gives the same
        gate contents, shed/reject decisions and ``_rng`` draw order as
        one engine event per arrival, and the engine carries only
        control-plane events. The one divergence is an arrival whose
        float time exactly equals a drain tick or another stream's
        arrival (probability ~2⁻⁵² per tick): here it is admitted before
        that tick, and equal-time arrivals go in stream order.
        """
        heads = self._heads
        horizon = self.config.horizon_s
        admit = self.gate.admit
        make = self._make_event
        shedding = self.ladder.shedding_low_tier
        admitted = 0
        while heads:
            head = min(heads)
            now = head[0]
            if now > until:
                break
            admit(make(head[2], now), shedding)
            admitted += 1
            nxt = head[3].next_arrival()
            if nxt < horizon:
                head[0] = nxt
            else:
                heads.remove(head)
        if admitted:
            self.events_generated += admitted
            self._generated_counter.inc(admitted)

    # -- event application (drain loop) ---------------------------------------
    def _apply(self, event: SoakEvent) -> None:
        if event.kind == "load":
            low, high = self.config.load_range
            self.loads[event.node] = min(
                high, max(low, self.loads[event.node] + event.value)
            )
        elif event.kind == "offload":
            self.loads[event.node] = event.value
        else:  # churn
            client = self.clients[event.node]
            if client.alive:
                client.fail()
            else:
                client.recover()
        self.applied_by_tier[event.tier] += 1
        self.latencies.append(self.engine.now - event.time)

    def _drain_tick(self) -> None:
        self._admit_arrivals(self.engine.now)
        registry = get_registry()
        batch = self.gate.drain(self.config.drain_batch)
        for event in batch:
            self._apply(event)
        if batch:
            registry.counter("soak.events_applied").inc(len(batch))
        registry.gauge("soak.ingress_depth").set(len(self.gate))
        level = self.ladder.update(self.gate.fill, self.engine.now)
        mgr = self.active()
        mgr.placement_frozen = level >= DegradationLevel.FREEZE
        mgr.optimization_period_s = self.ladder.resolve_period(
            self.config.optimization_period_s
        )

    # -- drift watchdog --------------------------------------------------------
    def _oracle_relief(self) -> Dict[int, float]:
        """From-scratch oracle: the relief each source *should* get, solved
        from the active manager's own view with its ledger torn down, so
        drift of the incrementally kept placement is measured apart from
        monitoring staleness, which hits oracle and incumbent alike."""
        mgr = self.active()
        problem = plan_round(mgr.round_view(), self.config.policy, "from-scratch").problem
        if problem is None:
            return {}
        report = mgr.placement_engine.solve(problem)
        relief: Dict[int, float] = {}
        for a in report.assignments if report.feasible else solve_heuristic(problem).assignments:
            relief[a.busy] = relief.get(a.busy, 0.0) + a.amount_pct
        return relief

    def _watchdog_tick(self) -> None:
        registry = get_registry()
        registry.counter("soak.oracle_solves").inc()
        oracle = self._oracle_relief()
        observed = relief_by_source(self.active().ledger.active)
        drift = relief_divergence(oracle, observed)
        self.drift_samples.append((self.engine.now, drift))
        registry.gauge("soak.oracle_drift").set(drift)
        if drift <= self.config.drift_bound:
            self._drift_strikes = 0
            return
        self._drift_strikes += 1
        if self._drift_strikes >= self.config.watchdog_strikes and not self.ladder.frozen:
            self._drift_strikes = 0
            self.watchdog_resets += 1
            registry.counter("soak.watchdog_resets").inc()
            mgr = self.active()
            mgr.reset_placement()
            mgr.run_optimization_round()

    # -- chaos ----------------------------------------------------------------
    def _schedule_chaos(self) -> None:
        chaos = self.config.chaos
        if chaos is None:
            return
        if chaos.partition_at is not None:
            groups = chaos.partition_groups
            self.engine.schedule_at(
                chaos.partition_at,
                lambda _e: self.network.set_partition(groups),
                label="soak-partition",
            )
            if chaos.partition_heal_at is not None:
                self.engine.schedule_at(
                    chaos.partition_heal_at,
                    lambda _e: self.network.heal_partition(),
                    label="soak-partition-heal",
                )
        if chaos.manager_crash_at is not None:
            self.engine.schedule_at(
                chaos.manager_crash_at,
                lambda _e: self.manager.crash() if self.manager.alive else None,
                label="soak-manager-crash",
            )

    # -- run ------------------------------------------------------------------
    def run(self) -> SoakResult:
        config = self.config
        self._start_streams()
        self.engine.schedule_periodic(
            config.drain_period_s, lambda _e: self._drain_tick(), label="soak-drain"
        )
        self.engine.schedule_periodic(
            config.oracle_period_s,
            lambda _e: self._watchdog_tick(),
            label="soak-watchdog",
        )
        self._schedule_chaos()

        wall_start = time.perf_counter()
        self.engine.run_until(config.horizon_s)
        # Arrivals after the last drain tick (a drain period that does not
        # divide the horizon).
        self._admit_arrivals(config.horizon_s)
        # Flush whatever the gate still holds so every admitted event is
        # applied before the final audit.
        while len(self.gate):
            for event in self.gate.drain(config.drain_batch):
                self._apply(event)
        wall = time.perf_counter() - wall_start

        current = self.active()
        counters = current.refresh_transport_counters()
        qos = production_loss_audit(current, self.topology, self.clients)
        # Closing drift sample: did the run end reconverged?
        self._watchdog_tick()

        events_applied = sum(self.applied_by_tier.values())
        per_min = events_applied / wall * 60.0 if wall > 0 else 0.0
        registry = get_registry()
        registry.gauge("soak.events_per_min").set(per_min)
        if self.latencies:
            hist = registry.histogram("soak.event_latency_s")
            for sample in self.latencies:
                hist.observe(sample)
            p50, p95, p99 = np.percentile(self.latencies, [50.0, 95.0, 99.0])
        else:
            p50 = p95 = p99 = float("nan")
        final_drift = self.drift_samples[-1][1] if self.drift_samples else 0.0
        for client in self.clients.values():
            mirror_counters(client, CLIENT_MIRROR)
        self.network.publish_metrics()
        return SoakResult(
            config=config,
            events_generated=self.events_generated,
            events_applied=events_applied,
            applied_by_tier=dict(self.applied_by_tier),
            rejected_by_tier=dict(self.gate.rejected),
            shed_by_tier=dict(self.gate.shed),
            wall_seconds=wall,
            events_per_min=per_min,
            latency_p50_s=float(p50),
            latency_p95_s=float(p95),
            latency_p99_s=float(p99),
            ladder_max_level=self.ladder.max_level,
            ladder_transitions=tuple(self.ladder.transitions),
            drift_samples=tuple(self.drift_samples),
            final_drift=final_drift,
            watchdog_resets=self.watchdog_resets,
            took_over_at=self.standby.took_over_at,
            qos=qos,
            counters=counters,
            manager=self.manager,
            standby=self.standby,
            clients=self.clients,
            engine=self.engine,
            network=self.network,
            gate=self.gate,
        )


def run_soak(config: SoakConfig) -> SoakResult:
    """Execute one soak run on a fresh engine; fully deterministic in
    simulated behaviour for a given config (wall-clock throughput and
    latency percentiles are measured, not simulated).

    Each run increments ``soak.runs`` and times itself into
    ``soak.run_seconds``; with tracing on the whole run nests under one
    ``soak.run`` span.
    """
    start = time.perf_counter()
    chaotic = config.chaos is not None and not config.chaos.is_null
    with trace_span("soak.run", seed=config.seed, chaotic=chaotic):
        result = _SoakDriver(config).run()
    registry = get_registry()
    registry.counter("soak.runs").inc()
    registry.histogram("soak.run_seconds").observe(time.perf_counter() - start)
    return result
