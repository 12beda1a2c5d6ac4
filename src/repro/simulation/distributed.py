"""Networked distributed placement solve over the simulated fabric.

:func:`repro.lp.distributed.solve_distributed` runs the zone/coordinator
protocol with direct in-process calls. This module runs the *same*
protocol objects over a :class:`~repro.simulation.network_sim.MessageNetwork`
(or its fault-injecting :class:`~repro.simulation.network_sim.FaultyNetwork`
subclass): the coordinator and every zone manager live at real topology
nodes, every :class:`~repro.lp.distributed.PriceUpdate` /
:class:`~repro.lp.distributed.LaneBids` exchange pays control-plane
latency, and messages can be dropped, duplicated, reordered or
partitioned away.

The protocol survives all of that by construction:

* every message carries its **epoch**, the coordinator discards stale
  or duplicate bids, and zone endpoints answer a re-delivered request
  with the *identical* cached reply — so duplication and reordering
  are no-ops;
* the coordinator owns all **retransmission**: any request it has not
  seen answered within ``retry_timeout_s`` is re-sent on a periodic
  tick. A lossy link therefore degrades to extra retransmissions and a
  longer (simulated) solve — never to a wrong answer. A partition
  simply stalls the affected epoch until it heals;
* termination requires every zone's explicit
  :class:`~repro.lp.distributed.FlowAssignment` acknowledgement, so no
  zone is left with a stale placement.

The full message state machine is specified in
``docs/distributed_solve.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import SimulationError
from repro.lp.distributed import (
    DistributedCoordinator,
    DistributedSolveResult,
    FlowAssignment,
    LaneBids,
    PriceUpdate,
    ZoneProfile,
    ZoneWorker,
    extract_zone_subproblems,
    finish_solve,
)
from repro.lp.transportation import TransportationProblem
from repro.obs import get_registry
from repro.simulation.engine import SimulationEngine
from repro.simulation.network_sim import Message, MessageNetwork

__all__ = [
    "AssignmentAck",
    "NetworkedDistributedSolve",
    "ProfileRequest",
    "solve_over_network",
]


@dataclass(frozen=True)
class ProfileRequest:
    """Coordinator → zone: (re-)request the zone's :class:`ZoneProfile`.

    Attributes
    ----------
    epoch : int
        Always ``-1`` — profiling precedes the first price epoch, and
        the reply is idempotent, so no epoch discrimination is needed.
    """

    epoch: int = -1


@dataclass(frozen=True)
class AssignmentAck:
    """Zone → coordinator: final :class:`FlowAssignment` landed.

    Attributes
    ----------
    zone_id : int
        The acknowledging zone.
    epoch : int
        Echo of the assignment's epoch; the coordinator finishes only
        after every zone's ack arrives.
    """

    zone_id: int
    epoch: int


class _ZoneEndpoint:
    """One zone manager's network presence: a stateless responder.

    Every handler is idempotent — the first ``ProfileRequest`` runs the
    (expensive) local presolve and caches the profile message; pricing
    answers are cached per epoch; a re-delivered request of any kind is
    answered with the identical cached reply. That idempotency is what
    lets the coordinator retransmit freely under loss.
    """

    def __init__(
        self,
        node_id: int,
        coordinator_node: int,
        worker: ZoneWorker,
        network: MessageNetwork,
    ) -> None:
        self.node_id = node_id
        self.coordinator_node = coordinator_node
        self.worker = worker
        self.network = network
        self._profile: Optional[ZoneProfile] = None
        self._bids_epoch = -1
        self._bids: Optional[LaneBids] = None

    def receive(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, ProfileRequest):
            if self._profile is None:
                self._profile = self.worker.profile()
            reply = self._profile
        elif isinstance(payload, PriceUpdate):
            if payload.epoch != self._bids_epoch or self._bids is None:
                self._bids = self.worker.price(payload)
                self._bids_epoch = payload.epoch
            reply = self._bids
        elif isinstance(payload, FlowAssignment):
            self.worker.accept(payload)  # idempotent: same terminal state
            reply = AssignmentAck(zone_id=self.worker.zone_id, epoch=payload.epoch)
        else:
            raise SimulationError(
                f"zone endpoint {self.node_id}: unexpected payload "
                f"{type(payload).__name__}"
            )
        self.network.send(self.node_id, self.coordinator_node, reply)


class NetworkedDistributedSolve:
    """Drive one distributed solve over a (possibly faulty) network.

    Wires a :class:`~repro.lp.distributed.DistributedCoordinator` at
    ``coordinator_node`` and one :class:`_ZoneEndpoint` per zone onto
    the message network, then advances through the protocol phases —
    ``profile`` → ``rounds`` → ``assign`` → done — purely off received
    messages plus a periodic retransmission tick. Run the simulation
    engine (``engine.run()`` or ``run_until``) after :meth:`start`;
    :attr:`finished` flips when every zone acknowledged its final
    assignment, after which :meth:`result` is available.

    Parameters
    ----------
    engine : SimulationEngine
        The discrete-event clock shared with the network.
    network : MessageNetwork
        Message fabric; pass a
        :class:`~repro.simulation.network_sim.FaultyNetwork` to solve
        under loss/partitions.
    coordinator_node : int
        Topology node hosting the coordinator.
    zone_nodes : mapping of int to int
        ``zone_id -> topology node`` hosting that zone's manager. Must
        be distinct from each other and from ``coordinator_node``.
    workers : sequence of ZoneWorker
        The zone subproblems (see
        :func:`~repro.lp.distributed.extract_zone_subproblems`).
    retry_timeout_s : float
        Retransmission period for unanswered requests (simulated
        seconds).
    deadline_s : float, optional
        Give up (status ``ITERATION_LIMIT``) if the solve has not
        finished after this much simulated time — e.g. a partition
        that never heals. ``None`` waits forever.
    """

    def __init__(
        self,
        engine: SimulationEngine,
        network: MessageNetwork,
        coordinator_node: int,
        zone_nodes: Mapping[int, int],
        workers: Sequence[ZoneWorker],
        retry_timeout_s: float = 0.5,
        deadline_s: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.network = network
        self.coordinator_node = coordinator_node
        self.zone_nodes = dict(zone_nodes)
        nodes = list(self.zone_nodes.values()) + [coordinator_node]
        if len(set(nodes)) != len(nodes):
            raise SimulationError(
                "coordinator and zone manager nodes must be distinct"
            )
        missing = {w.zone_id for w in workers} - set(self.zone_nodes)
        if missing:
            raise SimulationError(f"zones {sorted(missing)} have no host node")
        self.coordinator = DistributedCoordinator()
        self.retry_timeout_s = retry_timeout_s
        self.deadline_s = deadline_s
        self.workers = list(workers)
        self._endpoints: Dict[int, _ZoneEndpoint] = {}
        for worker in self.workers:
            node = self.zone_nodes[worker.zone_id]
            endpoint = _ZoneEndpoint(node, coordinator_node, worker, network)
            self._endpoints[worker.zone_id] = endpoint
            network.register(node, endpoint.receive)
        network.register(coordinator_node, self._receive)

        self.phase = "idle"  # idle -> profile -> rounds -> assign -> done
        self.finished = False
        self.gave_up = False
        self.messages_sent = 0
        self.retransmissions = 0
        self._profiled: Set[int] = set()
        self._answered: Set[int] = set()
        self._acked: Set[int] = set()
        self._updates: Dict[int, PriceUpdate] = {}
        self._assignments: Dict[int, FlowAssignment] = {}
        self._started_at = 0.0
        self._epoch_opened_at = 0.0

    # -- outbound ------------------------------------------------------------------
    def _send(self, zone_id: int, payload: object, retransmit: bool = False) -> None:
        self.messages_sent += 1
        if retransmit:
            self.retransmissions += 1
        self.network.send(self.coordinator_node, self.zone_nodes[zone_id], payload)

    def start(self) -> None:
        """Open the profile phase and arm the retransmission tick."""
        if self.phase != "idle":
            raise SimulationError("solve already started")
        self.phase = "profile"
        self._started_at = self.engine.now
        for zone_id in self.zone_nodes:
            self._send(zone_id, ProfileRequest())
        self.engine.schedule_periodic(
            self.retry_timeout_s,
            lambda _engine: self._tick(),
            label="dsolve retransmit",
            condition=lambda: not self.finished,
        )

    def _tick(self) -> None:
        """Retransmit whatever the current phase is still waiting on."""
        if self.finished:
            return
        if (
            self.deadline_s is not None
            and self.engine.now - self._started_at > self.deadline_s
        ):
            self.gave_up = True
            self.finished = True
            return
        if self.phase == "profile":
            for zone_id in self.zone_nodes:
                if zone_id not in self._profiled:
                    self._send(zone_id, ProfileRequest(), retransmit=True)
        elif self.phase == "rounds":
            for zone_id, update in self._updates.items():
                if zone_id not in self._answered:
                    self._send(zone_id, update, retransmit=True)
        elif self.phase == "assign":
            for zone_id, assignment in self._assignments.items():
                if zone_id not in self._acked:
                    self._send(zone_id, assignment, retransmit=True)

    # -- inbound -------------------------------------------------------------------
    def _receive(self, message: Message) -> None:
        payload = message.payload
        if isinstance(payload, ZoneProfile):
            if self.phase != "profile" or payload.zone_id in self._profiled:
                return  # late duplicate
            self.coordinator.register(payload)
            self._profiled.add(payload.zone_id)
            if self._profiled == set(self.zone_nodes):
                self.coordinator.initialize()
                if self.coordinator.converged:
                    self._begin_assign()
                else:
                    self._open_epoch()
        elif isinstance(payload, LaneBids):
            if self.phase != "rounds" or not self.coordinator.submit(payload):
                return  # stale epoch or duplicate
            self._answered.add(payload.zone_id)
            if self.coordinator.epoch_complete:
                get_registry().histogram("dsolve.round_trip_seconds").observe(
                    self.engine.now - self._epoch_opened_at
                )
                if self.coordinator.step():
                    self._open_epoch()
                else:
                    self._begin_assign()
        elif isinstance(payload, AssignmentAck):
            if self.phase != "assign":
                return
            self._acked.add(payload.zone_id)
            if self._acked == set(self.zone_nodes):
                self.phase = "done"
                self.finished = True
        else:
            raise SimulationError(
                f"coordinator: unexpected payload {type(payload).__name__}"
            )

    def _open_epoch(self) -> None:
        self.phase = "rounds"
        self._answered = set()
        self._updates = self.coordinator.price_updates()
        self._epoch_opened_at = self.engine.now
        for zone_id, update in self._updates.items():
            self._send(zone_id, update)

    def _begin_assign(self) -> None:
        self.phase = "assign"
        self._assignments = self.coordinator.assignments()
        for zone_id, assignment in self._assignments.items():
            self._send(zone_id, assignment)

    # -- result --------------------------------------------------------------------
    def result(self) -> DistributedSolveResult:
        """The converged solve (or the give-up marker), with transport
        statistics folded in. Publishes the ``dsolve.*`` transport
        metrics. Only valid once :attr:`finished` is True."""
        if not self.finished:
            raise SimulationError("solve still in flight; run the engine further")
        registry = get_registry()
        registry.counter("dsolve.retransmissions").inc(self.retransmissions)
        registry.counter("dsolve.messages").inc(self.messages_sent)
        return finish_solve(
            self.coordinator, self.workers, self.messages_sent, gave_up=self.gave_up
        )


def solve_over_network(
    problem: TransportationProblem,
    zone_rows: Sequence[Sequence[int]],
    zone_cols: Sequence[Sequence[int]],
    network: MessageNetwork,
    engine: SimulationEngine,
    coordinator_node: int,
    zone_nodes: Mapping[int, int],
    max_sim_seconds: float = 3_600.0,
    **knobs: object,
) -> Tuple[DistributedSolveResult, "NetworkedDistributedSolve"]:
    """One-call networked solve: wire, run the engine, return the result.

    Convenience wrapper used by tests and docs: builds the zone
    workers, starts a :class:`NetworkedDistributedSolve`, and advances
    the simulation until the protocol finishes (or ``max_sim_seconds``
    of virtual time elapse — the driver's own ``deadline_s`` knob can
    end it earlier with an ``ITERATION_LIMIT`` result).

    Parameters
    ----------
    problem : TransportationProblem
        Global instance to solve.
    zone_rows, zone_cols : sequence of sequences of int
        Row/column ownership per zone.
    network, engine, coordinator_node, zone_nodes
        As on :class:`NetworkedDistributedSolve`.
    max_sim_seconds : float
        Upper bound on simulated time to run the engine.
    **knobs
        Forwarded to :class:`NetworkedDistributedSolve`
        (``retry_timeout_s``, ``deadline_s``).

    Returns
    -------
    (DistributedSolveResult, NetworkedDistributedSolve)
        The solve outcome and the driver (for transport statistics).

    Raises
    ------
    SimulationError
        If the protocol is still unfinished after ``max_sim_seconds``
        of virtual time (e.g. an unhealed partition and no
        ``deadline_s``).
    """
    workers = extract_zone_subproblems(problem, zone_rows, zone_cols)
    driver = NetworkedDistributedSolve(
        engine,
        network,
        coordinator_node,
        zone_nodes,
        workers,
        **knobs,  # type: ignore[arg-type]
    )
    driver.start()
    engine.run_until(engine.now + max_sim_seconds)
    if not driver.finished:
        raise SimulationError(
            f"distributed solve still unfinished after {max_sim_seconds}s "
            "of simulated time (unhealed partition?)"
        )
    return driver.result(), driver
