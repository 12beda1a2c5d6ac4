"""Message-passing network over a topology.

The DUST control plane (Offload-capable / ACK / STAT / Offload-Request
/ Offload-ACK / Keepalive / REP messages, Section III-B) rides on this
layer: :class:`MessageNetwork` delivers payloads between node ids with
a latency equal to the hop-path latency on the underlying topology, via
the discrete-event engine. Endpoints register a receive callback;
unreachable destinations raise immediately (the control network is the
same fabric, which the paper assumes stable). A message in flight is
one engine heap entry that :meth:`MessageNetwork.send` pushes itself,
under the engine's next sequence number: a tuple-backed ``_Delivery``
holding the network and an immutable :class:`Message`, neither built
through a Python-level constructor.

:class:`FaultyNetwork` drops that stability assumption: a seeded
:class:`FaultConfig` injects per-link message drops, delay jitter,
duplication, explicit reordering delays, and network partitions — the
fault model the hardened protocol (dedup + ACK-gated retransmission in
:mod:`repro.core`) is exercised against. With a null config it is
byte-identical to :class:`MessageNetwork` (no RNG draws, same counters,
same delivery order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappush
from typing import (
    Any, Callable, Dict, FrozenSet, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.errors import SimulationError
from repro.obs import FAULTY_NETWORK_MIRROR, NETWORK_MIRROR, mirror_counters
from repro.simulation.draws import BlockDraws
from repro.simulation.engine import SimulationEngine
from repro.topology.graph import Topology

#: Receive callback: (message) -> None.
Receiver = Callable[["Message"], None]


class Message(NamedTuple):
    """A delivered control-plane message (immutable; built positionally
    on the delivery path)."""

    source: int
    destination: int
    payload: Any
    sent_at: float
    delivered_at: float

    @property
    def latency(self) -> float:
        return self.delivered_at - self.sent_at


class _Delivery(tuple):
    """One message in flight, ``(network, message)``: the engine heap
    entry that delivers it.

    It takes the sequence number a scheduled event would, so delivery
    order is the engine's ``(time, sequence)`` order; ``delivered_at``
    is the heap time, which is the clock when it fires. Like
    :class:`Message` it is built with ``tuple.__new__``, which runs no
    Python-level constructor.
    """

    __slots__ = ()
    cancelled = False
    label = "msg"

    def handler(self, engine: SimulationEngine) -> None:
        network, message = self
        receiver = network._receivers.get(message.destination)
        if receiver is None:
            network.messages_dropped += 1
            return  # endpoint left the network while in flight
        network.messages_delivered += 1
        receiver(message)


#: Builds a :class:`_Delivery` or a :class:`Message` from one tuple of
#: its fields (what ``namedtuple._make`` does), in C.
_new_record = tuple.__new__


class MessageNetwork:
    """Latency-faithful message delivery between topology nodes."""

    def __init__(self, topology: Topology, engine: SimulationEngine) -> None:
        self.topology = topology
        self.engine = engine
        self._receivers: Dict[int, Receiver] = {}
        self._latency_cache: Optional[np.ndarray] = None
        #: (source, destination) -> seconds, filled by latency_between.
        self._pair_latency: Dict[Tuple[int, int], float] = {}
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0

    # -- observability ----------------------------------------------------------
    #: Counter attribute -> registry metric, consumed by
    #: :meth:`publish_metrics` (subclasses extend it).
    METRIC_MIRROR = NETWORK_MIRROR

    def publish_metrics(self) -> None:
        """Fold this fabric's cumulative counters into the process-wide
        ``network.*`` metrics (idempotent; see
        :func:`repro.obs.mirror_counters`). Called at sync points —
        e.g. the end of a chaos run — rather than per message, so the
        per-send fast path stays a plain attribute increment."""
        mirror_counters(self, self.METRIC_MIRROR)

    # -- endpoints --------------------------------------------------------------
    def register(self, node_id: int, receiver: Receiver) -> None:
        """Attach the receive callback for ``node_id``."""
        self.topology.node(node_id)
        if node_id in self._receivers:
            raise SimulationError(f"node {node_id} already has a registered receiver")
        self._receivers[node_id] = receiver

    def unregister(self, node_id: int) -> None:
        self._receivers.pop(node_id, None)

    # -- latency model -------------------------------------------------------------
    def _latencies(self) -> np.ndarray:
        """All-pairs control latency (seconds) via min-latency paths.

        Computed lazily once; link latencies are assumed static for the
        control plane (data-plane utilization changes do not affect
        propagation delay).
        """
        if self._latency_cache is None:
            n = self.topology.num_nodes
            weights = np.array(
                [link.latency_ms / 1000.0 for link in self.topology.links]
            )
            # Zero-latency links still need positive weights for the DP.
            weights = np.maximum(weights, 1e-9)
            # hop_constrained_shortest's relaxation, one row per source:
            # with no hop limit it fills three (n, n) planes per source,
            # and that heap churn made peak RSS swing by megabytes from
            # run to run. Same operands per layer, so the same bits.
            us, vs = self.topology.edge_endpoint_arrays()
            cand_from = np.concatenate([us, vs])
            cand_to = np.concatenate([vs, us])
            cand_w = np.concatenate([weights, weights])
            cache = np.full((n, n), np.inf)
            for src in range(n):
                prev = cache[src]
                prev[src] = 0.0
                while True:
                    new = prev.copy()
                    np.minimum.at(new, cand_to, prev[cand_from] + cand_w)
                    if not (new < prev).any():
                        break
                    prev = new
                cache[src] = prev
            self._latency_cache = cache
        return self._latency_cache

    def latency_between(self, source: int, destination: int) -> float:
        """Control-plane latency between two nodes in seconds, memoized
        per pair (the all-pairs matrix is only read on a pair's first
        message)."""
        key = (source, destination)
        value = self._pair_latency.get(key)
        if value is None:
            value = float(self._latencies()[source, destination])
            if not math.isfinite(value):
                raise SimulationError(f"nodes {source} and {destination} are disconnected")
            self._pair_latency[key] = value
        return value

    # -- sending ------------------------------------------------------------------------
    def send(self, source: int, destination: int, payload: Any) -> None:
        """Queue a message for latency-delayed delivery.

        Sending to a node with no registered receiver (crashed or never
        started) silently drops the message, like a real network — the
        drop is counted in :attr:`messages_dropped`. A destination that
        is not a node raises :class:`~repro.errors.TopologyError`; only
        the drop path checks, because :meth:`register` validated every
        receiver.

        The delivery goes on the engine heap here, with no call between:
        the pair's cached latency (:meth:`latency_between` runs only on
        its first message), the engine's next sequence number, and a
        ``(network, message)`` record.
        """
        if destination not in self._receivers:
            self.topology.node(destination)
            self.messages_dropped += 1
            return
        self.messages_sent += 1
        delay = self._pair_latency.get((source, destination))
        if delay is None:
            delay = self.latency_between(source, destination)
        engine = self.engine
        sent_at = engine.now
        # ``schedule_after``'s own sum: the same operands, so the same time.
        time = sent_at + delay
        sequence = engine._sequence
        engine._sequence = sequence + 1
        message = _new_record(Message, (source, destination, payload, sent_at, time))
        heappush(engine._heap, (time, sequence, _new_record(_Delivery, (self, message))))

    def broadcast(self, source: int, payload: Any) -> int:
        """Send to every registered endpoint except ``source``; returns
        the number of messages queued."""
        count = 0
        for node_id in list(self._receivers):
            if node_id != source:
                self.send(source, node_id, payload)
                count += 1
        return count


@dataclass(frozen=True)
class FaultConfig:
    """Message-fault model for :class:`FaultyNetwork`.

    All probabilities are per in-flight message. ``per_link_drop`` maps
    an *unordered* node pair to a drop probability overriding
    ``drop_probability`` for traffic between those two endpoints.
    ``partitions`` (when non-empty) splits the network into islands:
    a message passes only when some group contains both endpoints, or
    neither endpoint appears in any group (the implicit "rest" island).
    """

    drop_probability: float = 0.0
    duplicate_probability: float = 0.0
    jitter_s: float = 0.0  # extra delivery delay ~ U(0, jitter_s)
    reorder_probability: float = 0.0
    reorder_extra_s: float = 0.5  # added delay for a reordered message
    per_link_drop: Mapping[Tuple[int, int], float] = field(default_factory=dict)
    partitions: Tuple[FrozenSet[int], ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_probability", "duplicate_probability", "reorder_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(f"{name} must be in [0, 1], got {value}")
        if self.jitter_s < 0 or self.reorder_extra_s < 0:
            raise SimulationError("jitter/reorder delays must be non-negative")
        for pair, prob in self.per_link_drop.items():
            if not 0.0 <= prob <= 1.0:
                raise SimulationError(f"per-link drop for {pair} must be in [0, 1]")
        object.__setattr__(
            self,
            "per_link_drop",
            {(min(a, b), max(a, b)): float(p) for (a, b), p in self.per_link_drop.items()},
        )
        object.__setattr__(
            self, "partitions", tuple(frozenset(g) for g in self.partitions)
        )

    @property
    def is_null(self) -> bool:
        """True when the config cannot alter any message's fate."""
        return (
            self.drop_probability == 0.0
            and self.duplicate_probability == 0.0
            and self.jitter_s == 0.0
            and self.reorder_probability == 0.0
            and not self.per_link_drop
            and not self.partitions
        )

    def drop_for(self, source: int, destination: int) -> float:
        key = (min(source, destination), max(source, destination))
        return self.per_link_drop.get(key, self.drop_probability)


#: One fault-network event-log row: (time, kind, source, destination, detail).
FaultLogEntry = Tuple[float, str, int, int, str]


class FaultyNetwork(MessageNetwork):
    """A :class:`MessageNetwork` whose fabric misbehaves on purpose.

    Every probabilistic decision comes from one seeded
    :class:`~repro.simulation.draws.BlockDraws` source (numpy's
    ``random()`` stream of the seed, served from raw words), so a
    chaos run is a pure function of ``(scenario, seed)`` — the
    determinism test replays a scenario and asserts the event logs are
    identical. The fault pipeline per message: partition check → drop
    lottery → jitter/reorder delay → optional duplicate (with its own
    independent jitter).
    """

    def __init__(
        self,
        topology: Topology,
        engine: SimulationEngine,
        faults: Optional[FaultConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        super().__init__(topology, engine)
        self.faults = faults if faults is not None else FaultConfig()
        #: The drop, jitter, reorder and duplicate lotteries.
        self._rng = BlockDraws(seed)
        self.set_partition(self.faults.partitions)
        self.faults_dropped = 0
        self.partition_dropped = 0
        self.duplicates_injected = 0
        self.reordered = 0
        self.event_log: List[FaultLogEntry] = []

    METRIC_MIRROR = FAULTY_NETWORK_MIRROR

    # -- partitions -------------------------------------------------------------
    def set_partition(self, groups: Sequence[Sequence[int]]) -> None:
        """Activate a partition mid-run (e.g. from a chaos scenario)."""
        self._partitions: Tuple[FrozenSet[int], ...] = tuple(frozenset(g) for g in groups)
        #: Nothing can alter a message's fate: ``send`` takes the plain path.
        self._null = self.faults.is_null and not self._partitions

    def heal_partition(self) -> None:
        self.set_partition(())

    def _partition_blocks(self, source: int, destination: int) -> bool:
        if not self._partitions:
            return False
        grouped_src = grouped_dst = False
        for group in self._partitions:
            in_src, in_dst = source in group, destination in group
            if in_src and in_dst:
                return False
            grouped_src |= in_src
            grouped_dst |= in_dst
        # Both outside every group → together in the "rest" island.
        return grouped_src or grouped_dst

    # -- faulty sending ---------------------------------------------------------
    def _log(self, kind: str, source: int, destination: int, payload: Any) -> None:
        detail = type(payload).__name__
        self.event_log.append((self.engine.now, kind, source, destination, detail))

    def send(self, source: int, destination: int, payload: Any) -> None:
        if self._null:
            # Byte-identical fast path: no RNG draw, no logging overhead
            # beyond the base counters.
            super().send(source, destination, payload)
            return
        registered = destination in self._receivers
        if not registered:
            self.topology.node(destination)
        if self._partition_blocks(source, destination):
            self.messages_dropped += 1
            self.partition_dropped += 1
            self._log("partition-drop", source, destination, payload)
            return
        if not registered:
            self.messages_dropped += 1
            return
        self.messages_sent += 1
        p_drop = self.faults.drop_for(source, destination)
        if p_drop > 0.0 and self._rng.random() < p_drop:
            self.messages_dropped += 1
            self.faults_dropped += 1
            self._log("drop", source, destination, payload)
            return
        base_latency = self.latency_between(source, destination)
        self._schedule_delivery(
            source, destination, payload, base_latency + self._extra_delay(source, destination, payload)
        )
        self._log("send", source, destination, payload)
        if (
            self.faults.duplicate_probability > 0.0
            and self._rng.random() < self.faults.duplicate_probability
        ):
            self.duplicates_injected += 1
            self._schedule_delivery(
                source,
                destination,
                payload,
                base_latency + self._extra_delay(source, destination, payload),
            )
            self._log("duplicate", source, destination, payload)

    def _schedule_delivery(
        self, source: int, destination: int, payload: Any, delay: float
    ) -> None:
        """One in-flight copy, pushed as :meth:`MessageNetwork.send`
        pushes it (``delay`` is >= 0)."""
        engine = self.engine
        sent_at = engine.now
        time = sent_at + delay
        sequence = engine._sequence
        engine._sequence = sequence + 1
        message = _new_record(Message, (source, destination, payload, sent_at, time))
        heappush(engine._heap, (time, sequence, _new_record(_Delivery, (self, message))))

    def _extra_delay(self, source: int, destination: int, payload: Any) -> float:
        delay = 0.0
        if self.faults.jitter_s > 0.0:
            # ``uniform(0, j)`` bit for bit: numpy draws ``low + (high -
            # low) * random()``; ``random()`` is the cheaper call.
            delay += self.faults.jitter_s * self._rng.random()
        if (
            self.faults.reorder_probability > 0.0
            and self._rng.random() < self.faults.reorder_probability
        ):
            self.reordered += 1
            delay += self.faults.reorder_extra_s
            self._log("reorder", source, destination, payload)
        return delay
