"""Soak harness: sustained churn + composed chaos against the control plane.

Where :mod:`repro.simulation.chaos` answers "does one disrupted run
converge back to the fault-free placement?", the soak harness answers
the operational question behind ROADMAP item "streaming online control
plane": *does the manager survive hours of open-loop traffic without
falling over?*

The driver feeds three **open-loop** event streams (arrival processes
from :mod:`repro.simulation.profiles` — the environment emits at its
own pace whether or not the control plane keeps up) into the manager:

* **load changes** — a device's intrinsic utilisation moves;
* **offload demands** — a device overloads past ``c_max`` and needs
  relief placed;
* **admission/eviction churn** — devices crash out of and re-announce
  into the deployment.

Every arrival is applied, in arrival order, at the first apply tick
(every ``drain_period_s``) at or after it; its latency is the wait for
that tick. Nothing is queued, shed or rejected, and the manager
re-solves Eq. 3 on its fixed ``optimization_period_s``, as the paper's
DUST-Manager does.

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

Chaos composes on top: a :class:`~repro.simulation.chaos.FaultSchedule`
(loss, duplication, reordering, a timed network partition and a
mid-soak manager crash recovered by the standby) — all while the event
streams keep flowing. The deployment itself comes from
:func:`~repro.simulation.chaos.build_deployment`, the builder the
resilience run uses.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.client import DUSTClient
from repro.core.failover import StandbyManager
from repro.core.heuristic import solve_heuristic
from repro.core.manager import DUSTManager, ManagerCounters
from repro.core.messages import RetryPolicy
from repro.core.metrics import relief_by_source, relief_divergence
from repro.core.placement import plan_round
from repro.errors import SimulationError
from repro.obs import get_registry, trace_span
from repro.simulation.chaos import FaultSchedule, QoSAuditResult, Wiring, build_deployment
from repro.simulation.draws import BlockDraws
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


def default_soak_chaos(crash_at: float = 240.0) -> FaultSchedule:
    """The acceptance composition: 20% loss + duplication/reordering,
    one 60 s partition isolating a pod, one mid-soak manager crash."""
    return FaultSchedule(
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
class SoakConfig(Wiring):
    """One fully-specified soak run (a pure function of its fields)."""

    horizon_s: float = 600.0
    retry_policy: Optional[RetryPolicy] = field(
        default_factory=lambda: RetryPolicy(base_timeout_s=2.0, max_retries=5, jitter=0.5)
    )
    update_interval_s: float = 15.0
    optimization_period_s: float = 30.0
    # -- arrival streams ----------------------------------------------------
    load_stream: StreamSpec = field(default_factory=lambda: StreamSpec("diurnal", 20.0))
    offload_stream: StreamSpec = field(default_factory=lambda: StreamSpec("poisson", 0.25))
    churn_stream: StreamSpec = field(
        default_factory=lambda: StreamSpec("bursty", 0.05, burst_rate_per_s=0.5)
    )
    #: Apply cadence: each tick applies every arrival since the last one.
    drain_period_s: float = 1.0
    # -- drift watchdog -----------------------------------------------------
    oracle_period_s: float = 60.0
    drift_bound: float = 0.5
    #: Consecutive out-of-bound oracle samples before the watchdog
    #: forces reconvergence — debounce, so an in-flight grant (overload
    #: seen by the oracle before the round that places it) does not
    #: trigger a full teardown.
    watchdog_strikes: int = 2
    load_range: Tuple[float, float] = (10.0, 95.0)
    #: Half-width of one load event's random-walk step. Load events are
    #: *deltas*, not resamples: the stream can run at hundreds of
    #: events/s (the throughput target) while each node's load stays a
    #: slowly-drifting signal the 15 s STAT loop can actually track.
    load_step_pct: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_positive("drain period", self.drain_period_s)
        _require_positive("oracle period", self.oracle_period_s)
        if not 0.0 < self.drift_bound:
            raise SimulationError("drift bound must be positive")
        if self.watchdog_strikes < 1:
            raise SimulationError("watchdog needs at least one strike")


@dataclass
class SoakResult:
    """Everything a soak run produced, acceptance metrics first."""

    config: SoakConfig
    events_generated: int
    events_applied: int
    wall_seconds: float
    events_per_min: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
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

    # Constant: the only reader is benchmarks/e2e/workloads.py; they go
    # with that reader in the next [benchmark] PR.
    ladder_max_level = 0
    rejected_by_tier = MappingProxyType({})
    shed_by_tier = MappingProxyType({})
    production_losses = 0


class _SoakDriver:
    """Run-scoped state machine wiring streams → control plane."""

    def __init__(self, config: SoakConfig) -> None:
        self.config = config
        topology = build_fat_tree(config.pods)
        LinkUtilizationModel(0.2, 0.7, seed=config.seed).apply(topology)
        self.events_generated = 0
        # ``MetricsRegistry.reset()`` keeps instruments, so the handle
        # stays live for the whole run.
        self._generated_counter = get_registry().counter("soak.events_generated")
        self._applied_counter = get_registry().counter("soak.events_applied")
        #: One ``[next_time, salt, kind, process]`` head per open-loop
        #: stream that has an arrival left before the horizon.
        self._heads: List[list] = []
        self.latencies: List[float] = []
        self.drift_samples: List[Tuple[float, float]] = []
        self.watchdog_resets = 0
        self._drift_strikes = 0
        #: The driver's draws: the initial loads, then each arrival's
        #: node and value.
        self._rng = BlockDraws(config.seed)

        reserved = {config.manager_node, config.standby_node}
        low, high = config.load_range
        # ``low + (high - low) * random()`` is numpy's ``uniform(low,
        # high)`` bit for bit.
        initial_span = min(high, 60.0) - low
        self.loads: Dict[int, float] = {
            node: low + initial_span * self._rng.random()
            for node in range(topology.num_nodes)
            if node not in reserved
        }
        self.deployment = build_deployment(
            config,
            topology,
            {node: (lambda t, n=node: self.loads[n]) for node in self.loads},
            on_admission=self._on_admission,
            on_eviction=self._on_eviction,
            dedup_ttl_s=20.0 * config.update_interval_s,
        )
        self.engine = self.deployment.engine
        self.clients = self.deployment.clients
        self._targets = tuple(sorted(self.clients))
        # ``(low, high - low)`` of each drawn value: a load event's step,
        # and an explicit offload demand, which pushes the node past
        # c_max. A churn event draws no value.
        step = config.load_step_pct
        offload_low = min(config.policy.c_max + 2.0, high)
        self._step_draw = (-step, step - (-step))
        self._offload_draw = (offload_low, high - offload_low)

    # -- manager hooks --------------------------------------------------------
    def _on_admission(self, node: int) -> None:
        get_registry().counter("soak.admissions").inc()

    def _on_eviction(self, node: int) -> None:
        get_registry().counter("soak.evictions").inc()

    # -- arrival streams (open loop) -------------------------------------------
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

    def _apply_arrivals(self, until: float) -> None:
        """Draw and apply every arrival at or before ``until``, in time
        order; each waited ``now - arrival`` for this tick.

        Each stream hands over its arrivals up to ``until`` in one call
        and stays one arrival ahead. When more than one stream has
        arrivals, one sort of the ``(time, salt)`` pairs puts them in
        time order, cut into runs of one kind. A draw touches only the
        driver ``_rng`` and applying touches only ``loads`` and one
        client, so drawing and applying the arrivals in turn gives the
        same draws, engine sequence numbers and loads as one engine event
        per arrival that draws it for the tick to apply; the engine
        carries only control-plane events. The one divergence is an
        arrival whose float time exactly equals a tick or another
        stream's arrival (probability ~2⁻⁵² per tick): here it is applied
        at that tick, and equal-time arrivals go in stream order.
        """
        horizon = self.config.horizon_s
        # ``at <= limit`` is ``at <= until and at < horizon``.
        limit = until if until < horizon else math.nextafter(horizon, -math.inf)
        streams: List[Tuple[int, str, List[float]]] = []
        for head in self._heads:
            if head[0] <= limit:
                times, head[0] = head[3].arrivals_through(head[0], limit)
                streams.append((head[1], head[2], times))
        if not streams:
            return
        self._heads = [head for head in self._heads if head[0] < horizon]
        if len(streams) == 1:
            runs = [streams[0][1:]]
        else:
            due = sorted((at, salt, kind) for salt, kind, times in streams for at in times)
            runs = [
                (kind, [at for at, _salt, _kind in run])
                for kind, run in itertools.groupby(due, key=operator.itemgetter(2))
            ]

        integers, random = self._rng.integers, self._rng.random
        targets = self._targets
        n_targets = len(targets)
        loads = self.loads
        low, high = self.config.load_range
        step_low, step_span = self._step_draw
        offload_low, offload_span = self._offload_draw
        latencies = self.latencies
        now = self.engine.now
        applied = 0
        for kind, times in runs:
            if kind == "load":
                for _ in times:
                    node = targets[integers(n_targets)]
                    # ``min(high, max(low, load))``
                    load = loads[node] + (step_low + step_span * random())
                    loads[node] = (load if load < high else high) if load > low else low
            elif kind == "offload":
                for _ in times:
                    node = targets[integers(n_targets)]
                    loads[node] = offload_low + offload_span * random()
            else:  # churn
                for _ in times:
                    client = self.clients[targets[integers(n_targets)]]
                    if client.alive:
                        client.fail()
                    else:
                        client.recover()
            latencies += [now - at for at in times]
            applied += len(times)
        self.events_generated += applied
        self._generated_counter.inc(applied)
        self._applied_counter.inc(applied)

    # -- drift watchdog --------------------------------------------------------
    def _oracle_relief(self) -> Dict[int, float]:
        """From-scratch oracle: the relief each source *should* get, solved
        from the active manager's own view with its ledger torn down, so
        drift of the incrementally kept placement is measured apart from
        monitoring staleness, which hits oracle and incumbent alike."""
        mgr = self.deployment.active()
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
        observed = relief_by_source(self.deployment.active().ledger.active)
        drift = relief_divergence(oracle, observed)
        self.drift_samples.append((self.engine.now, drift))
        registry.gauge("soak.oracle_drift").set(drift)
        if drift <= self.config.drift_bound:
            self._drift_strikes = 0
            return
        self._drift_strikes += 1
        if self._drift_strikes >= self.config.watchdog_strikes:
            self._drift_strikes = 0
            self.watchdog_resets += 1
            registry.counter("soak.watchdog_resets").inc()
            mgr = self.deployment.active()
            mgr.reset_placement()
            mgr.run_optimization_round()

    # -- run ------------------------------------------------------------------
    def run(self) -> SoakResult:
        config = self.config
        self._start_streams()
        self.engine.schedule_periodic(
            config.drain_period_s,
            lambda engine: self._apply_arrivals(engine.now),
            label="soak-drain",
        )
        self.engine.schedule_periodic(
            config.oracle_period_s,
            lambda _e: self._watchdog_tick(),
            label="soak-watchdog",
        )
        deployment = self.deployment
        deployment.schedule(config.chaos)

        wall_start = time.perf_counter()
        self.engine.run_until(config.horizon_s)
        # Arrivals after the last tick (a drain period that does not
        # divide the horizon).
        self._apply_arrivals(config.horizon_s)
        wall = time.perf_counter() - wall_start

        counters, qos = deployment.audit()
        # Closing drift sample: did the run end reconverged?
        self._watchdog_tick()

        events_applied = len(self.latencies)
        per_min = events_applied / wall * 60.0 if wall > 0 else 0.0
        registry = get_registry()
        registry.gauge("soak.events_per_min").set(per_min)
        if self.latencies:
            registry.histogram("soak.event_latency_s").observe_many(self.latencies)
            p50, p95, p99 = np.percentile(self.latencies, [50.0, 95.0, 99.0])
        else:
            p50 = p95 = p99 = float("nan")
        final_drift = self.drift_samples[-1][1] if self.drift_samples else 0.0
        deployment.publish_metrics()
        return SoakResult(
            config=config,
            events_generated=self.events_generated,
            events_applied=events_applied,
            wall_seconds=wall,
            events_per_min=per_min,
            latency_p50_s=float(p50),
            latency_p95_s=float(p95),
            latency_p99_s=float(p99),
            drift_samples=tuple(self.drift_samples),
            final_drift=final_drift,
            watchdog_resets=self.watchdog_resets,
            took_over_at=deployment.took_over_at,
            qos=qos,
            counters=counters,
            manager=deployment.manager,
            standby=deployment.standby,
            clients=self.clients,
            engine=self.engine,
            network=deployment.network,
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
    with trace_span("soak.run", seed=config.seed, chaotic=config.chaotic):
        result = _SoakDriver(config).run()
    registry = get_registry()
    registry.counter("soak.runs").inc()
    registry.histogram("soak.run_seconds").observe(time.perf_counter() - start)
    return result
