"""DUST-Manager: admission, NMDB upkeep, placement, post-offload care.

The manager is "a decision node [that] defines the most optimized
destination monitoring node by evaluating network resource utilization,
monitoring capabilities, and the number of monitoring agents". This
implementation runs three loops on the discrete-event engine:

* **message handling** — Offload-capable → ACK (announcing the
  Update-Interval Time), STAT → NMDB, Offload-ACK → ledger + Redirect,
  Keepalive → tracker;
* **optimization rounds** — periodically snapshot the NMDB, build the
  Eq. 3 placement problem, solve it with the
  :class:`~repro.core.placement.PlacementEngine` (falling back to
  Algorithm 1 when the ILP is infeasible), and send
  Offload-Requests along the chosen controllable routes;
* **keepalive sweeps** — expired destinations are evicted and their
  workloads re-homed onto replicas via REP, or returned to their
  sources via Reclaim when no replica fits.

Every handler dedups by ``(sender, msg_id)`` with a reply cache, except
for a periodic STAT on a manager with a retry policy: that report is
absolute and timestamped, and the NMDB drops a stale one or a copy of
the applied one by itself. Lossy-network hardening (opt-in via
``retry_policy``): Offload-Request / Redirect / REP / Reclaim are
retransmitted with exponential backoff until their application-level
confirmation (Offload-ACK or Receipt) arrives, and destinations that
exhaust the retry budget are quarantined out of the candidate set.
With ``snapshot_store`` set the manager persists its state (NMDB +
ledger + keepalive watch set) before every Redirect, after every ledger
change and at the top of every optimization tick — a STAT alone
persists nothing — heartbeats a standby, and a recovered manager
reconciles the restored snapshot against client ground truth in a
resync round — see :mod:`repro.core.failover`.

Each offload's lifecycle lives in the ledger's row state
(:mod:`repro.core.offload`, ``docs/offload_protocol.md``); the manager
applies its transitions and sends what they return.

STAT and Offload-capable reports with a non-finite or out-of-range
field are dropped (counted in ``stats_rejected``); a reliable STAT is
still confirmed with its Receipt so the client stops retransmitting.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.heuristic import solve_heuristic
from repro.core.messages import (
    Ack, ControlMessage, DedupCache, Keepalive, ManagerHeartbeat, OffloadAck, OffloadCapable,
    OffloadRequest, Receipt, Reclaim, Redirect, ReliableSender, Rep, Resync, RetryPolicy, Stat,
)
from repro.core.nmdb import NMDB, NetworkSnapshot
from repro.core.offload import AckOutcome, OffloadLedger, Send
from repro.core.placement import (
    PlacementAssignment, PlacementEngine, PlacementReport, RoundView, plan_round,
)
from repro.core.postoffload import KeepaliveTracker, ReplicaSelector
from repro.obs import MANAGER_COUNTERS_MIRROR, get_registry, mirror_counters, trace_span
from repro.core.thresholds import ThresholdPolicy
from repro.errors import MalformedReportError, ProtocolError
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.simulation.engine import SimulationEngine
from repro.simulation.network_sim import Message, MessageNetwork
from repro.topology.graph import Topology

#: A source whose report plus its offloaded load sits this far below
#: ``C_max`` takes the load back (hysteresis against flapping).
RECLAIM_HYSTERESIS_PCT = 5.0
#: How long a destination that exhausted a retry budget sits out placement.
QUARANTINE_S = 300.0
#: How long after a takeover resync reports may rebuild or repair rows.
RESYNC_WINDOW_S = 120.0
#: Counter each Offload-ACK outcome bumps (corrective Reclaims count in
#: ``orphans_reclaimed`` when one is actually sent).
_ACK_COUNTERS = {
    AckOutcome.ESTABLISH: "offloads_established",
    AckOutcome.REJECTED: "offloads_rejected",
    AckOutcome.ADOPT: "resync_recovered",
    AckOutcome.RECONFIRM: "acks_reconfirmed",
    AckOutcome.STALE: "stale_acks_ignored",
}


@dataclass
class ManagerCounters:
    """Observable manager activity, consumed by experiments and tests."""

    acks_sent: int = 0
    stats_received: int = 0
    optimization_rounds: int = 0
    infeasible_rounds: int = 0
    heuristic_fallbacks: int = 0
    offload_requests_sent: int = 0
    offloads_established: int = 0
    offloads_rejected: int = 0
    keepalives_received: int = 0
    destinations_failed: int = 0
    replicas_installed: int = 0
    workloads_returned: int = 0
    reclaims_issued: int = 0
    # -- reliability / transport (lossy-network hardening) ----------------
    duplicates_ignored: int = 0
    stale_stats_dropped: int = 0
    stats_rejected: int = 0
    stale_acks_ignored: int = 0
    acks_reconfirmed: int = 0
    probes_sent: int = 0
    orphans_reclaimed: int = 0
    destinations_quarantined: int = 0
    sources_abandoned: int = 0
    resync_rounds: int = 0
    resync_recovered: int = 0
    redirects_unwound: int = 0
    snapshots_persisted: int = 0
    placements_reset: int = 0
    # Mirrored from the reliable sender / network by
    # :meth:`DUSTManager.refresh_transport_counters` so reports see one
    # consolidated counter block.
    retransmissions: int = 0
    sends_gave_up: int = 0
    network_messages_dropped: int = 0
    network_duplicates_delivered: int = 0


class DUSTManager:
    """Cloud-based coordination point of a DUST deployment.

    An I/O shell around :class:`~repro.core.offload.OffloadLedger`: it
    receives a message, applies the ledger transition, persists, sends
    what the transition returned and arms the retry timers."""

    def __init__(
        self,
        node_id: int,
        topology: Topology,
        engine: SimulationEngine,
        network: MessageNetwork,
        policy: ThresholdPolicy,
        update_interval_s: float = 60.0,
        optimization_period_s: float = 60.0,
        keepalive_timeout_s: float = 30.0,
        max_hops: Optional[int] = None,
        # Accepted and ignored: the only caller is benchmarks/e2e/workloads.py;
        # deleted with that call site in the next [benchmark] PR.
        workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        snapshot_store: Optional["object"] = None,
        standby_node: Optional[int] = None,
        heartbeat_period_s: float = 10.0,
        dedup_ttl_s: Optional[float] = None,
        transport_seed: int = 0,
        on_admission: Optional[Callable[[int], None]] = None,
        on_eviction: Optional[Callable[[int], None]] = None,
        solve_mode: str = "centralized",
        zones: Optional[Sequence["object"]] = None,
    ) -> None:
        self.node_id = node_id
        self.topology = topology
        self.engine = engine
        self.network = network
        self.policy = policy
        self.nmdb = NMDB(topology, policy)
        self.placement_engine = PlacementEngine(
            response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=max_hops))
        # Alternative solve mode: decompose each round's Eq. 3 solve
        # across zone managers (repro.lp.distributed). Same optimum as
        # the centralized engine — the zones split the pricing work.
        if solve_mode not in ("centralized", "distributed"):
            raise ProtocolError(
                f"unknown solve_mode {solve_mode!r}; expected 'centralized' or 'distributed'")
        self.distributed_engine = None
        if solve_mode == "distributed":
            from repro.core.zoning import DistributedPlacementEngine, partition_by_pod
            from repro.errors import TopologyError

            if zones is None:
                try:
                    zones = partition_by_pod(topology)
                except TopologyError as exc:
                    raise TopologyError(f"{exc}; pass zones= to run solve_mode='distributed' "
                                        "on a fabric without pods") from None
            self.distributed_engine = DistributedPlacementEngine(zones, self.placement_engine)
        self.update_interval_s = update_interval_s
        self.optimization_period_s = optimization_period_s
        self.keepalive_timeout_s = keepalive_timeout_s
        self.max_hops = max_hops
        #: A node whose last STAT is older than this is treated as gone.
        self.stale_after_s = 2.5 * update_interval_s
        # Keepalive silence triggers a reliable probe, not an eviction;
        # the grace covers the probe's full retry budget plus one more
        # keepalive period before the destination is written off.
        self.probe_grace_s = keepalive_timeout_s + sum(
            retry_policy.timeout_for(a) for a in range(retry_policy.max_retries + 1)
        ) if retry_policy is not None else keepalive_timeout_s
        self.snapshot_store = snapshot_store
        self.standby_node = standby_node
        self.heartbeat_period_s = heartbeat_period_s

        self.ledger = OffloadLedger(reliable=retry_policy is not None)
        self.keepalives = KeepaliveTracker(keepalive_timeout_s)
        self.replica_selector = ReplicaSelector(
            ResponseTimeModel(engine=PathEngine.DP, max_hops=max_hops))
        self.counters = ManagerCounters()
        self.placement_history: List[PlacementReport] = []
        self._started = False
        self._crashed = False
        # Handlers dedup by (sender, msg_id) and replay their reply; a
        # periodic STAT skips this when a retry policy is set (_receive).
        self._dedup = DedupCache(ttl_s=dedup_ttl_s, clock=lambda: engine.now)
        self._reliable: Optional[ReliableSender] = None
        if retry_policy is not None:
            self._reliable = ReliableSender(network, engine, node_id, retry_policy, transport_seed)
        #: Churn hooks for long-running drivers (the soak control plane
        #: observes admission/eviction without poking counters).
        self.on_admission = on_admission
        self.on_eviction = on_eviction
        self._quarantined: Dict[int, float] = {}  # node -> quarantined until
        self._probes: Dict[int, float] = {}  # destination -> grace deadline
        self._probe_failed: Set[int] = set()
        self._resync_until = float("-inf")
        self._snapshot_version = 0

    # -- lifecycle --------------------------------------------------------------------
    def start(self) -> None:
        """Register on the network and start the periodic loops."""
        if self._started:
            raise ProtocolError("manager already started")
        self._started = True
        self.network.register(self.node_id, self._receive)

        def optimize_tick(engine: SimulationEngine) -> None:
            # NMDB and keepalive state are durable as of the last tick;
            # ledger changes persist on their own, before any Redirect.
            self._persist()
            self.run_optimization_round()

        self.engine.schedule_periodic(
            self.optimization_period_s, optimize_tick,
            label="manager-optimize", condition=lambda: not self._crashed,
        )
        self.engine.schedule_periodic(
            self.keepalive_timeout_s / 2.0, lambda engine: self.run_keepalive_sweep(),
            label="manager-keepalive-sweep", condition=lambda: not self._crashed,
        )
        if self.standby_node is not None:
            self.engine.schedule_periodic(
                self.heartbeat_period_s, lambda engine: self._send_heartbeat(),
                label="manager-heartbeat", first_delay=0.0, condition=lambda: not self._crashed,
            )

    @property
    def alive(self) -> bool:
        return self._started and not self._crashed

    def crash(self) -> None:
        """Fail-stop the manager: deregister, stop loops and timers.

        The failover path (:class:`~repro.core.failover.StandbyManager`)
        detects the resulting heartbeat silence and takes over.
        """
        if self._crashed:
            raise ProtocolError("manager already crashed")
        self._crashed = True
        self.network.unregister(self.node_id)
        if self._reliable is not None:
            self._reliable.cancel_all()

    def _send_heartbeat(self) -> None:
        beat = ManagerHeartbeat(self.node_id, self._snapshot_version, self.engine.now)
        self.network.send(self.node_id, self.standby_node, beat)

    # -- reliable transport helpers -----------------------------------------------------
    #: Give-up hook per reliably sent message type (a Resync sent this
    #: way is a keepalive probe; a Reclaim has none).
    _GIVE_UP = {
        OffloadRequest: "_on_request_give_up",
        Rep: "_on_request_give_up",
        Redirect: "_on_redirect_give_up",
        Resync: "_on_probe_give_up",
    }

    def _send_ctrl(self, destination: int, payload: ControlMessage) -> None:
        """Send a control message, ACK-gated when hardening is on."""
        if self._reliable is None:
            self.network.send(self.node_id, destination, payload)
            return
        hook = self._GIVE_UP.get(type(payload))
        self._reliable.send(destination, payload, on_give_up=hook and getattr(self, hook))

    def _send(self, sends: List[Send]) -> None:
        for destination, payload in sends:
            self._send_ctrl(destination, payload)

    def _clear_probe(self, node: int) -> None:
        self._probes.pop(node, None)
        self._probe_failed.discard(node)

    def _quarantine(self, node: int) -> None:
        self._quarantined[node] = self.engine.now + QUARANTINE_S
        self.counters.destinations_quarantined += 1

    def quarantined_nodes(self) -> Set[int]:
        """Currently quarantined nodes (expired entries are purged)."""
        now = self.engine.now
        for node in [n for n, until in self._quarantined.items() if until <= now]:
            del self._quarantined[node]
        return set(self._quarantined)

    def refresh_transport_counters(self) -> ManagerCounters:
        """Mirror reliable-sender and network counters into
        :class:`ManagerCounters` so reports surface drops, duplicates
        and retransmissions alongside protocol activity."""
        if self._reliable is not None:
            self.counters.retransmissions = self._reliable.retransmissions
            self.counters.sends_gave_up = self._reliable.gave_up
        self.counters.network_messages_dropped = self.network.messages_dropped
        self.counters.network_duplicates_delivered = getattr(self.network, "duplicates_injected", 0)
        return self.counters

    # -- state persistence / failover ----------------------------------------------------
    def _persist(self) -> None:
        if self.snapshot_store is None:
            return
        self._snapshot_version += 1
        self.snapshot_store.save(self.export_snapshot())
        self.counters.snapshots_persisted += 1

    def export_snapshot(self):
        """Current durable state as a
        :class:`~repro.core.failover.ManagerSnapshot`.

        ``ledger_rows`` is the ledger's :attr:`~OffloadLedger.durable`
        rows — shared, not copied, since no row is ever mutated in
        place. A REDIRECTING row, or a CLOSED one still owing its
        Receipt, marks its source unconfirmed."""
        from repro.core.failover import ManagerSnapshot

        return ManagerSnapshot(
            version=self._snapshot_version,
            timestamp=self.engine.now,
            records=self.nmdb.export_records(),
            ledger_rows=self.ledger.durable,
            keepalive_watch=self.keepalives.export(),
        )

    def restore_snapshot(self, snapshot) -> None:
        """Adopt a predecessor's persisted state (failover takeover).

        Keepalive clocks restart at *now*: destinations get one full
        timeout to re-heartbeat instead of being mass-evicted for
        silence that happened while no manager was listening.

        Rows of a source that never confirmed the predecessor's Redirect
        are *unwound*, not adopted (:meth:`OffloadLedger.restore`): the
        source may never have applied the offload, so keeping the row
        would park hosting capacity on the destination for load the
        source still carries. The next optimization round re-places the
        excess cleanly.
        """
        self._snapshot_version = snapshot.version
        self.nmdb.load_records(snapshot.records)
        sends = self.ledger.restore(snapshot.ledger_rows, self.engine.now)
        self.counters.redirects_unwound += len(sends) // 2  # two Reclaims per row
        for node in snapshot.keepalive_watch:
            self.keepalives.record(node, self.engine.now)
        self._send(sends)
        if any(row.redirect_id is not None for row in snapshot.ledger_rows):
            self._persist()

    def begin_resync(self) -> int:
        """Open the post-failover reconciliation window and ask every
        client for ground truth; returns the number of Resync messages
        sent."""
        self._resync_until = self.engine.now + RESYNC_WINDOW_S
        self.counters.resync_rounds += 1
        return self.network.broadcast(self.node_id, Resync(self.node_id, self.engine.now))

    # -- message plane ------------------------------------------------------------------
    def _receive(self, message: Message) -> None:
        if self._crashed:
            return
        payload = message.payload
        kind = type(payload)
        if kind is Stat and self._reliable is not None and not payload.reliable:
            # A periodic STAT is an absolute, timestamped report and the
            # lenient NMDB drops a stale one or a copy of the applied
            # one, so it needs no dedup entry (strict mode would raise
            # on a copy that lands after a newer report).
            self._on_stat(payload)
            return
        handler = self._HANDLERS.get(kind)
        if handler is None:
            if not isinstance(payload, ControlMessage):
                raise ProtocolError("manager received non-DUST payload")
            raise ProtocolError(f"manager cannot handle {payload.type.value!r}")
        duplicate, cached_reply = self._dedup.check(message.source, payload.msg_id)
        if duplicate:
            self.counters.duplicates_ignored += 1
            if cached_reply is not None:
                self.network.send(self.node_id, message.source, cached_reply)
            return
        self._dedup.remember(message.source, payload.msg_id, handler(self, payload))

    def _on_offload_capable(self, payload: OffloadCapable) -> Optional[Ack]:
        try:
            self.nmdb.register_capability(payload)
        except MalformedReportError:
            self.counters.stats_rejected += 1
            return None
        self.counters.acks_sent += 1
        if self.on_admission is not None:
            self.on_admission(payload.node_id)
        ack = Ack(node_id=payload.node_id, update_interval_s=self.update_interval_s)
        self.network.send(self.node_id, payload.node_id, ack)
        return ack

    def _on_stat(self, payload: Stat) -> Optional[Receipt]:
        self.counters.stats_received += 1
        receipt: Optional[Receipt] = None
        if self._reliable is not None and payload.reliable:
            # Admission STAT: the client retransmits it until this
            # receipt lands, so delivery (not content) is confirmed
            # even for reports the staleness check discards.
            receipt = Receipt(node_id=self.node_id, acked_msg_id=payload.msg_id)
            self.network.send(self.node_id, payload.node_id, receipt)
        # On a reliable fabric an out-of-order STAT means a protocol bug
        # (strict mode raises); under loss/reordering it is expected —
        # the stale report is dropped, the newer state wins.
        try:
            applied = self.nmdb.apply_stat(payload, strict=self._reliable is None)
        except MalformedReportError:
            self.counters.stats_rejected += 1
            return receipt
        if not applied:
            self.counters.stale_stats_dropped += 1
            return receipt
        if self.ledger.has_active(payload.node_id):
            self._maybe_reclaim(payload)
        return receipt

    def _on_offload_ack(self, ack: OffloadAck) -> Optional[Receipt]:
        """Apply :meth:`OffloadLedger.on_ack`; the outcome picks the
        counter and the keepalive bookkeeping."""
        if self._reliable is not None:
            self._reliable.acknowledge(ack.request_id)
        receipt: Optional[Receipt] = None
        if self._reliable is not None and ack.reason == "resync":
            # Resync reports are retransmitted until confirmed — the
            # Receipt (also cached for duplicates by the dedup layer)
            # stops the destination's sender.
            receipt = Receipt(node_id=self.node_id, acked_msg_id=ack.msg_id)
            self.network.send(self.node_id, ack.destination, receipt)
        now = self.engine.now
        outcome, sends = self.ledger.on_ack(ack, now, in_resync=now <= self._resync_until)
        counter = _ACK_COUNTERS.get(outcome)
        if counter is not None:
            setattr(self.counters, counter, getattr(self.counters, counter) + 1)
        if outcome in (AckOutcome.ESTABLISH, AckOutcome.ADOPT):
            self._persist()  # the row is durable before its Redirect leaves
        elif sends:
            self.counters.orphans_reclaimed += 1
        if outcome in (AckOutcome.ESTABLISH, AckOutcome.ADOPT, AckOutcome.SURPLUS):
            self.keepalives.watch(ack.destination, now)
        elif outcome is AckOutcome.RECONFIRM:
            # Proof of life, not an orphan.
            self.keepalives.record(ack.destination, now)
            self._clear_probe(ack.destination)
        self._send(sends)
        return receipt

    def _on_keepalive(self, payload: Keepalive) -> None:
        self.counters.keepalives_received += 1
        self.keepalives.record(payload.node_id, payload.timestamp)
        self._clear_probe(payload.node_id)
        # A heartbeat naming a source this ledger cannot account for
        # means the destination carries an orphaned hosting (e.g. its
        # resync report never arrived). Ask for a full re-report; the
        # resync reply paths reconcile or reclaim.
        known = {o.source for o in self.ledger.hosted_by(payload.node_id)}
        if any(s not in known for s in payload.hosted_sources):
            resync = Resync(self.node_id, self.engine.now)
            self.network.send(self.node_id, payload.node_id, resync)

    def _on_receipt(self, payload: Receipt) -> None:
        if self._reliable is None:
            raise ProtocolError(f"manager cannot handle {payload.type.value!r}")
        self._reliable.acknowledge(payload.acked_msg_id)
        if self.ledger.confirm(payload.acked_msg_id, self.engine.now):
            # Persist the confirmation: a successor must not unwind a
            # row whose source provably applied its Redirect.
            self._persist()
        if payload.node_id in self._probes or payload.node_id in self._probe_failed:
            # Answer to a keepalive probe: the destination lives.
            self.keepalives.record(payload.node_id, self.engine.now)
            self._clear_probe(payload.node_id)

    #: Message type -> handler; a handler returns the reply the dedup
    #: cache replays to a duplicate.
    _HANDLERS = {
        OffloadCapable: _on_offload_capable, Stat: _on_stat, OffloadAck: _on_offload_ack,
        Keepalive: _on_keepalive, Receipt: _on_receipt,
    }

    # -- give-up (retry budget exhausted) hooks ---------------------------------------
    def _on_request_give_up(self, destination: int, payload: ControlMessage) -> None:
        """Offload-Request / REP never confirmed: free the REQUESTED row
        and quarantine the unreachable destination out of the candidate
        set before the next placement round."""
        self.ledger.give_up_request(payload.source, destination)
        self._quarantine(destination)

    def _on_probe_give_up(self, destination: int, payload: ControlMessage) -> None:
        """A keepalive probe exhausted its retries: the destination is
        genuinely unreachable, not just unlucky. The next sweep makes
        the eviction final; quarantine keeps it out of placement."""
        self._probe_failed.add(destination)
        self._quarantine(destination)

    def _on_redirect_give_up(self, destination: int, payload: ControlMessage) -> None:
        """A source never confirmed its Redirect — it is unreachable
        (likely crashed). Its ledger rows are reclaimed so hosting
        capacity is not parked for a ghost (:meth:`OffloadLedger.abandon`)."""
        self.counters.sources_abandoned += 1
        self._send(self.ledger.abandon(payload.msg_id, destination, self.engine.now))
        self._persist()

    # -- optimization rounds ----------------------------------------------------------------
    def run_optimization_round(self) -> Optional[PlacementReport]:
        """One manager decision cycle; returns the placement report (or
        ``None`` when there was nothing to do — no Busy node with excess
        left to place).

        Wall time lands in ``manager.optimization_round_seconds`` and,
        when tracing is on, the whole cycle — Trmin pricing, LP solve,
        offload message dispatch — nests under one
        ``manager.optimization_round`` span. Protocol counters are
        mirrored into the ``manager.*`` metrics at the end of the
        round."""
        start = time.perf_counter()
        with trace_span("manager.optimization_round", manager=self.node_id):
            report = self._run_optimization_round_impl()
        get_registry().histogram("manager.optimization_round_seconds").observe(
            time.perf_counter() - start
        )
        mirror_counters(self.counters, MANAGER_COUNTERS_MIRROR)
        return report

    def round_view(self) -> RoundView:
        """What this manager knows right now, as
        :func:`~repro.core.placement.plan_round` reads it; the offload
        fields come off the ledger's row states."""
        now = self.engine.now
        return RoundView(
            topology=self.topology,
            snapshot=self.nmdb.snapshot(now),
            last_stat=self.nmdb.last_stat_times(),
            now=now,
            stale_after_s=self.stale_after_s,
            manager_node=self.node_id,
            max_hops=self.max_hops,
            quarantined=frozenset(self.quarantined_nodes()),
            **self.ledger.round_state(),
        )

    def _run_optimization_round_impl(self) -> Optional[PlacementReport]:
        self.counters.optimization_rounds += 1
        self.refresh_transport_counters()
        # Expire requests whose request or reply was lost (e.g. the
        # endpoint died in flight) so their nodes are not excluded from
        # placement forever. (With the reliable sender active the
        # give-up hook usually clears them first.)
        now = self.engine.now
        self.ledger.prune(now, self.nmdb.last_stat_times(), now - 2.0 * self.optimization_period_s)
        view = self.round_view()
        problem = plan_round(view, self.policy, "incremental").problem
        if problem is None:
            return None
        report = (self.distributed_engine or self.placement_engine).solve(problem)
        self.placement_history.append(report)
        assignments = report.assignments
        if not report.feasible:
            self.counters.infeasible_rounds += 1
            # Partial relief beats none: Algorithm 1 places whatever
            # fits one hop away even when Eq. 3 has no full solution.
            self.counters.heuristic_fallbacks += 1
            assignments = solve_heuristic(problem).assignments
        for assignment in assignments:
            self._request_offload(assignment, view.snapshot)
        return report

    def _request_offload(
        self, assignment: PlacementAssignment, snapshot: NetworkSnapshot
    ) -> None:
        """Send one assignment's Offload-Request (a REQUESTED row)."""
        source, destination = assignment.busy, assignment.candidate
        amount = assignment.amount_pct
        route = (source, destination) if assignment.route is None else tuple(assignment.route.nodes)
        excess = max(self.policy.excess_load(snapshot.capacities[source]), 1e-9)
        data_mb = float(snapshot.data_mb[source] * amount / excess)
        self.counters.offload_requests_sent += 1
        now = self.engine.now
        self._send(self.ledger.request(source, destination, amount, route, now, data_mb))

    # -- keepalive sweeps --------------------------------------------------------------------
    def run_keepalive_sweep(self) -> List[int]:
        """Evict expired destinations, re-home their workloads; returns
        the failed destinations."""
        with trace_span("manager.keepalive_sweep", manager=self.node_id):
            failed_nodes = self._run_keepalive_sweep_impl()
        mirror_counters(self.counters, MANAGER_COUNTERS_MIRROR)
        return failed_nodes

    def _run_keepalive_sweep_impl(self) -> List[int]:
        now = self.engine.now
        expired = [node for node in self.keepalives.expired(now) if self.ledger.hosted_by(node)]
        if self._reliable is None:
            failed = expired
        else:
            # Probe-before-evict: under loss a run of dropped keepalives
            # is indistinguishable from a crash, and evicting a live
            # destination diverges the ledger permanently. First expiry
            # sends a reliable Resync probe instead; the eviction only
            # becomes final when the probe's retry budget gives up (or
            # its grace deadline passes). Any sign of life — Keepalive,
            # probe Receipt, re-confirmation ACK — cancels the probe.
            failed = []
            for node in expired:
                if node in self._probe_failed or self._probes.get(node, float("inf")) <= now:
                    failed.append(node)
                elif node not in self._probes:
                    self._probes[node] = now + self.probe_grace_s
                    self.counters.probes_sent += 1
                    self._send_ctrl(node, Resync(manager_node=self.node_id, timestamp=now))
        if not failed:
            return []
        view = self.round_view()
        snapshot = view.snapshot
        stale = view.stale_nodes()
        for dest in failed:
            self.counters.destinations_failed += 1
            if self.on_eviction is not None:
                self.on_eviction(dest)
            evicted = self.ledger.evict(dest)
            self.keepalives.forget(dest)
            self._clear_probe(dest)
            self._persist()
            for source, amount, reclaim in evicted:
                # Cancel the source's mapping to the dead destination up
                # front; a replica REP (or nothing, if the load returns
                # home) follows.
                self._send([reclaim])
                replica = self.replica_selector.select(
                    self.topology, source=source, amount_pct=amount,
                    data_mb=float(snapshot.data_mb[source]), capacities=snapshot.capacities,
                    policy=self.policy, exclude=[dest, self.node_id, *stale, *view.quarantined],
                )
                if replica is None:
                    self.counters.workloads_returned += 1
                    continue
                self.counters.replicas_installed += 1
                route = (source, replica)
                self._send(self.ledger.request(source, replica, amount, route, now, failed=dest))
        return failed

    # -- the two ROADMAP 2(a) sites: one Reclaim object sent to both ends ----------------
    def reset_placement(self) -> int:
        """Tear the current placement down and re-place from scratch.

        Every active offload is reclaimed (both endpoints are told) and
        an immediate optimization round re-solves from the live NMDB
        (every solve is from scratch; the ledger is the only state). The
        soak drift watchdog invokes this when the incremental placement
        has diverged from the from-scratch oracle past its bound;
        returns the number of ledger rows torn down.
        """
        rows = 0
        for source in self.ledger.sources:
            for offload in self.ledger.reclaim(source):
                rows += 1
                # One Reclaim, two sends: a retry policy drops the second (ROADMAP 2(a)).
                reclaim = Reclaim(offload.source, offload.destination, offload.amount_pct)
                self._send_ctrl(offload.destination, reclaim)
                self._send_ctrl(offload.source, reclaim)
        self.counters.placements_reset += 1
        self._persist()
        return rows

    def _maybe_reclaim(self, stat: Stat) -> None:
        """If a source with an active row has recovered enough headroom
        to absorb its own offloaded load, return it (hysteresis avoids
        flapping)."""
        offloaded = self.ledger.offloaded_amount(stat.node_id)
        if offloaded <= 0:
            return
        if stat.capacity_pct + offloaded <= self.policy.c_max - RECLAIM_HYSTERESIS_PCT:
            for offload in self.ledger.reclaim(stat.node_id):
                self.counters.reclaims_issued += 1
                # Same one-message defect as in reset_placement (ROADMAP 2(a)).
                reclaim = Reclaim(offload.source, offload.destination, offload.amount_pct)
                self._send_ctrl(offload.destination, reclaim)
                self._send_ctrl(offload.source, reclaim)
            self._persist()

