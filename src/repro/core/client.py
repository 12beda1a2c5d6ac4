"""DUST-Client: the per-node agent of the control plane.

A client can run "on switches, servers, or any available compute
resources such as DPUs" — here it is an event-driven endpoint on the
:class:`~repro.simulation.network_sim.MessageNetwork`. Its life cycle
follows Section III-B:

1. announce itself with **Offload-capable**;
2. on **ACK**, start the periodic **STAT** loop at the manager-assigned
   Update-Interval Time (one re-armed engine event, cancelled by
   :meth:`DUSTClient.fail`);
3. as a *destination*: accept **Offload-Request** / **REP** when the
   projected utilization stays at/below ``CO_max``, then heartbeat with
   **Keepalive**;
4. as a *source*: apply **Redirect** (its monitoring load leaves the
   node) and **Reclaim** (it returns).

The utilized capacity it reports is ``base(t) − offloaded + hosted``
(the homogeneity assumption), where ``base`` is a constant or a
callable of virtual time supplied by the experiment.

Lossy-network hardening: a :class:`~repro.core.messages.DedupCache`
suppresses a duplicate of a message this client receives and has
already handled (same sender, same ``msg_id``) and replays the original
response instead of re-running the state transition. (A manager with
a retry policy does not dedup the periodic STATs this client sends:
they are absolute, timestamped reports, and its NMDB drops a copy by
content.) The cache is the client's only protection: its
handlers apply deltas, not values — a Redirect adds to
``offloaded_to``, a Reclaim subtracts, and a re-sent Offload-Request (a
new ``msg_id``) adds to ``hosted`` again — so a re-issued message is
applied twice and a reordered Redirect/Reclaim pair out of order
(ROADMAP 15). With ``retry_policy`` set the announcement is
retransmitted until ACKed (give-up reverts to local telemetry and
re-announces later) and Redirect/Reclaim are confirmed with **Receipt**
messages so the manager can gate its own retransmissions. With
``retry_policy=None`` (the default) the wire
behaviour is byte-identical to the pre-hardening client.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from repro.core.messages import (
    Ack,
    ControlMessage,
    DedupCache,
    Keepalive,
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
from repro.core.thresholds import ThresholdPolicy
from repro.errors import ProtocolError
from repro.simulation.engine import SimulationEngine
from repro.simulation.events import ScheduledEvent
from repro.simulation.network_sim import Message, MessageNetwork

CapacityFn = Union[float, Callable[[float], float]]


@dataclass
class HostedWorkload:
    """A workload this client hosts for a remote Busy node."""

    source: int
    amount_pct: float
    data_mb: float
    via_replica: bool = False


class DUSTClient:
    """Event-driven DUST client endpoint."""

    def __init__(
        self,
        node_id: int,
        engine: SimulationEngine,
        network: MessageNetwork,
        manager_node: int,
        policy: ThresholdPolicy,
        base_capacity: CapacityFn = 30.0,
        data_mb: float = 10.0,
        num_agents: int = 10,
        capable: bool = True,
        keepalive_period_s: float = 10.0,
        retry_policy: Optional[RetryPolicy] = None,
        reannounce_delay_s: float = 60.0,
        dedup_ttl_s: Optional[float] = None,
        transport_seed: int = 0,
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        self.network = network
        self.manager_node = manager_node
        self.policy = policy
        self.base_load = base_capacity
        self.data_mb = data_mb
        self.num_agents = num_agents
        self.capable = capable
        self.keepalive_period_s = keepalive_period_s
        self.retry_policy = retry_policy
        self.reannounce_delay_s = reannounce_delay_s

        self.update_interval_s: Optional[float] = None
        self.hosted: Dict[int, HostedWorkload] = {}
        self.offloaded_to: Dict[int, float] = {}  # destination -> amount
        self.alive = True
        self.stats_sent = 0
        self.keepalives_sent = 0
        self.requests_rejected = 0
        self.duplicates_ignored = 0
        self.announce_give_ups = 0

        self._dedup = DedupCache(ttl_s=dedup_ttl_s, clock=lambda: engine.now)
        self._reliable: Optional[ReliableSender] = (
            ReliableSender(network, engine, node_id, retry_policy, seed=transport_seed)
            if retry_policy is not None
            else None
        )
        self._announce_msg_id: Optional[int] = None
        self._stat_confirmed = False  # manager receipted an admission STAT
        #: The STAT chain's handle; ``fail`` cancels it, so a client that
        #: recovers within one interval does not run two chains.
        self._stat_chain: Optional[ScheduledEvent] = None
        #: The keepalive loop's handle while it runs; ``fail`` cancels it
        #: for the same reason.
        self._keepalive_loop: Optional[ScheduledEvent] = None

    # -- capacity model -----------------------------------------------------------
    @property
    def base_load(self) -> CapacityFn:
        """The intrinsic capacity model: a constant or a callable of
        virtual time. Assigning one decides once which it is."""
        return self._base_load

    @base_load.setter
    def base_load(self, value: CapacityFn) -> None:
        fn = value if callable(value) else None
        self._base_load, self._base_fn = value, fn
        self._base_value = float(value) if fn is None else None

    def base_capacity(self, now: float) -> float:
        """Intrinsic (pre-DUST) utilized capacity at virtual time."""
        fn = self._base_fn
        return self._base_value if fn is None else float(fn(now))

    def current_capacity(self, now: float) -> float:
        """Reported ``C_j``: base − offloaded + hosted, clamped to
        [x_min, 100]."""
        fn = self._base_fn  # base_capacity's body: one call fewer per STAT
        cap = self._base_value if fn is None else float(fn(now))
        # An empty sum is 0 and ``x - 0 + 0 == x``: skipping it is exact.
        if self.offloaded_to:
            cap -= sum(self.offloaded_to.values())
        if self.hosted:
            cap += sum(h.amount_pct for h in self.hosted.values())
        # ``min(100.0, max(x_min, cap))`` without the two builtin calls:
        # each comparison picks the operand the builtin picks, NaN included.
        x_min = self.policy.x_min
        cap = cap if cap > x_min else x_min
        return float(cap if cap < 100.0 else 100.0)

    @property
    def hosted_amount(self) -> float:
        return float(sum(h.amount_pct for h in self.hosted.values()))

    @property
    def offloaded_amount(self) -> float:
        return float(sum(self.offloaded_to.values()))

    @property
    def retransmissions(self) -> int:
        return self._reliable.retransmissions if self._reliable is not None else 0

    # -- lifecycle -------------------------------------------------------------------
    def start(self) -> None:
        """Register on the network and announce participation."""
        self.network.register(self.node_id, self._receive)
        self._announce()

    def _announce(self) -> None:
        if not self.alive:
            return
        announce = OffloadCapable(
            node_id=self.node_id,
            capable=self.capable,
            c_max=self.policy.c_max,
            co_max=self.policy.co_max,
        )
        self._announce_msg_id = announce.msg_id
        if self._reliable is not None:
            self._reliable.send(
                self.manager_node, announce, on_give_up=self._on_announce_give_up
            )
        else:
            self.network.send(self.node_id, self.manager_node, announce)

    def _on_announce_give_up(self, destination: int, payload: ControlMessage) -> None:
        """Manager unreachable: keep monitoring locally (the default —
        nothing was offloaded yet) and re-announce after a quiet
        period, like a fresh boot onto a flaky fabric."""
        self.announce_give_ups += 1
        self.engine.schedule_after(
            self.reannounce_delay_s,
            lambda engine: self._announce(),
            label=f"reannounce-{self.node_id}",
        )

    def fail(self) -> None:
        """Crash the node: stop responding, stop all loops. Used by the
        failure-recovery experiments to trigger replica substitution."""
        self.alive = False
        self.network.unregister(self.node_id)
        if self._stat_chain is not None:
            self._stat_chain.cancel()
        if self._keepalive_loop is not None:
            self._keepalive_loop.cancel()
            self._keepalive_loop = None
        if self._reliable is not None:
            self._reliable.cancel_all()

    def recover(self) -> None:
        """Restart after a crash: state is lost (hosted workloads were
        re-homed by the manager; any of our own offloads were recorded
        there too), so the client re-announces like a fresh boot."""
        if self.alive:
            raise ProtocolError(f"client {self.node_id} is not failed")
        self.hosted.clear()
        self.offloaded_to.clear()
        self.update_interval_s = None
        self._stat_confirmed = False
        self._dedup.clear()
        self.alive = True
        self.start()

    # -- message handling -------------------------------------------------------------
    def _receive(self, message: Message) -> None:
        if not self.alive:
            return
        payload = message.payload
        handler = self._HANDLERS.get(type(payload))
        if handler is None:
            if not isinstance(payload, ControlMessage):
                raise ProtocolError(f"client {self.node_id} received non-DUST payload")
            raise ProtocolError(
                f"client {self.node_id} cannot handle {payload.type.value!r}"
            )
        duplicate, cached_reply = self._dedup.check(message.source, payload.msg_id)
        if duplicate:
            # Idempotent replay: re-elicit the original answer (so a
            # lost response is recovered by the peer's retransmission)
            # without re-running the state transition.
            self.duplicates_ignored += 1
            if cached_reply is not None:
                self.network.send(self.node_id, message.source, cached_reply)
            return
        self._dedup.remember(message.source, payload.msg_id, handler(self, payload))

    def _on_ack(self, ack: Ack) -> None:
        if ack.node_id != self.node_id:
            raise ProtocolError(
                f"client {self.node_id} got ACK addressed to {ack.node_id}"
            )
        if self._reliable is not None:
            self._reliable.acknowledge(self._announce_msg_id)
        first_start = self.update_interval_s is None
        self.update_interval_s = ack.update_interval_s
        if first_start:
            self._stat_chain = self.engine.schedule_periodic(
                ack.update_interval_s,
                self._send_stat,
                label=f"stat-{self.node_id}",
                first_delay=0.0,
            )

    def _send_stat(self, _engine: Optional[SimulationEngine] = None) -> None:
        """Report ``C_j`` now; also the STAT chain's handler, which the
        engine calls with itself."""
        self.stats_sent += 1
        unconfirmed = self._reliable is not None and not self._stat_confirmed
        now = self.engine.now
        stat = Stat(
            self.node_id, self.current_capacity(now), self.data_mb, self.num_agents, now,
            unconfirmed,
        )
        if unconfirmed:
            # Admission STAT: retransmit until the manager's Receipt
            # confirms the NMDB has seen this node at least once.
            self._reliable.send(self.manager_node, stat)
        else:
            self.network.send(self.node_id, self.manager_node, stat)

    def _accept_hosting(self, source: int, amount: float, data_mb: float, via_replica: bool) -> bool:
        projected = self.current_capacity(self.engine.now) + amount
        if projected > self.policy.co_max + 1e-9:
            self.requests_rejected += 1
            return False
        existing = self.hosted.get(source)
        if existing is None:
            self.hosted[source] = HostedWorkload(
                source=source, amount_pct=amount, data_mb=data_mb, via_replica=via_replica
            )
        else:
            existing.amount_pct += amount
            existing.data_mb += data_mb
        self._ensure_keepalive_loop()
        return True

    def _on_offload_request(self, req: OffloadRequest) -> OffloadAck:
        if req.destination != self.node_id:
            raise ProtocolError(
                f"client {self.node_id} got Offload-Request for {req.destination}"
            )
        accepted = self._accept_hosting(req.source, req.amount_pct, req.data_mb, False)
        ack = OffloadAck(
            destination=self.node_id,
            source=req.source,
            accepted=accepted,
            reason="" if accepted else "projected utilization above CO_max",
            request_id=req.msg_id,
        )
        self.network.send(self.node_id, self.manager_node, ack)
        return ack

    def _on_rep(self, rep: Rep) -> OffloadAck:
        if rep.replica != self.node_id:
            raise ProtocolError(f"client {self.node_id} got REP for {rep.replica}")
        accepted = self._accept_hosting(rep.source, rep.amount_pct, 0.0, True)
        ack = OffloadAck(
            destination=self.node_id,
            source=rep.source,
            accepted=accepted,
            reason="replica" if accepted else "replica rejected: above CO_max",
            request_id=rep.msg_id,
        )
        self.network.send(self.node_id, self.manager_node, ack)
        return ack

    def _receipt_for(self, msg: ControlMessage) -> Optional[Receipt]:
        """Confirm delivery of an un-answered message type when the
        reliability layer is active (the manager gates retransmission
        of Redirect/Reclaim on this)."""
        if self._reliable is None:
            return None
        receipt = Receipt(node_id=self.node_id, acked_msg_id=msg.msg_id)
        self.network.send(self.node_id, self.manager_node, receipt)
        return receipt

    def _on_redirect(self, redirect: Redirect) -> Optional[Receipt]:
        if redirect.source != self.node_id:
            raise ProtocolError(
                f"client {self.node_id} got Redirect for source {redirect.source}"
            )
        self.offloaded_to[redirect.destination] = (
            self.offloaded_to.get(redirect.destination, 0.0) + redirect.amount_pct
        )
        return self._receipt_for(redirect)

    def _on_reclaim(self, reclaim: Reclaim) -> Optional[Receipt]:
        if reclaim.destination == self.node_id:
            # Drop the hosted workload for this source.
            hosted = self.hosted.get(reclaim.source)
            if hosted is not None:
                hosted.amount_pct -= reclaim.amount_pct
                if hosted.amount_pct <= 1e-9:
                    del self.hosted[reclaim.source]
        elif reclaim.source == self.node_id:
            # Take the workload back locally.
            current = self.offloaded_to.get(reclaim.destination, 0.0)
            remaining = current - reclaim.amount_pct
            if remaining <= 1e-9:
                self.offloaded_to.pop(reclaim.destination, None)
            else:
                self.offloaded_to[reclaim.destination] = remaining
        else:
            raise ProtocolError(
                f"client {self.node_id} got Reclaim for "
                f"{reclaim.source}->{reclaim.destination}"
            )
        return self._receipt_for(reclaim)

    def _on_resync(self, resync: Resync) -> Optional[Receipt]:
        """A recovering manager asked for ground truth: report state
        now — a fresh STAT, one accepting Offload-ACK per hosted
        workload (carrying its amount so a stale snapshot can be
        repaired) and, if hosting, an immediate keepalive. The Receipt
        doubles as the proof-of-life a keepalive probe asks for."""
        self.manager_node = resync.manager_node
        self._send_stat()
        for source, workload in sorted(self.hosted.items()):
            report = OffloadAck(
                destination=self.node_id,
                source=source,
                accepted=True,
                reason="resync",
                amount_pct=workload.amount_pct,
            )
            if self._reliable is not None:
                # A lost resync report leaves the recovering manager
                # blind to this hosting forever — retransmit until the
                # manager's Receipt confirms it arrived.
                self._reliable.send(self.manager_node, report)
            else:
                self.network.send(self.node_id, self.manager_node, report)
        if self.hosted:
            self.keepalives_sent += 1
            self.network.send(
                self.node_id,
                self.manager_node,
                Keepalive(
                    node_id=self.node_id,
                    hosted_sources=tuple(sorted(self.hosted)),
                    timestamp=self.engine.now,
                ),
            )
        return self._receipt_for(resync)

    def _on_receipt(self, receipt: Receipt) -> None:
        if self._reliable is None:
            raise ProtocolError(
                f"client {self.node_id} cannot handle {receipt.type.value!r}"
            )
        self._reliable.acknowledge(receipt.acked_msg_id)
        self._stat_confirmed = True

    #: Message type -> handler; a handler returns the reply the dedup
    #: cache replays to a duplicate.
    _HANDLERS = {
        Ack: _on_ack, OffloadRequest: _on_offload_request, Rep: _on_rep,
        Redirect: _on_redirect, Reclaim: _on_reclaim, Resync: _on_resync,
        Receipt: _on_receipt,
    }

    # -- keepalive loop ------------------------------------------------------------------
    def _ensure_keepalive_loop(self) -> None:
        if self._keepalive_loop is not None:
            return

        def hosting() -> bool:
            if self.alive and self.hosted:
                return True
            self._keepalive_loop = None
            return False

        def beat(engine: SimulationEngine) -> None:
            self.keepalives_sent += 1
            self.network.send(
                self.node_id,
                self.manager_node,
                Keepalive(
                    node_id=self.node_id,
                    hosted_sources=tuple(sorted(self.hosted)),
                    timestamp=engine.now,
                ),
            )

        self._keepalive_loop = self.engine.schedule_periodic(
            self.keepalive_period_s,
            beat,
            label=f"ka-{self.node_id}",
            first_delay=0.0,
            condition=hosting,
        )
