"""DUST control-plane message vocabulary (paper Section III-B/C).

The workflow:

1. every client sends **Offload-capable** (1 = willing, 0 =
   None-offloading) with its ``C_max``/``CO_max`` thresholds;
2. the manager replies **ACK**, carrying the *Update-Interval Time*;
3. clients then send periodic **STAT** reports regardless of role;
4. on placement, the manager sends **Offload-Request** to the selected
   destination, answered by **Offload-ACK**; sources are told where to
   redirect with **Redirect** (implied by the paper's "monitoring data
   D_i … is subsequently redirected");
5. destinations send **Keepalive** while hosting; a missed keepalive
   makes the manager substitute a replica and announce it via **REP**.

Beyond the paper's vocabulary, this module carries the reliability
layer the lossy-network mode needs (the paper assumes a stable fabric):

* **Receipt** — an application-level delivery confirmation for the two
  message types that have no protocol-level reply (Redirect, Reclaim),
  so their retransmission can be ACK-gated like Offload-Request/REP;
* **ManagerHeartbeat** / **Resync** — primary→standby liveness and the
  post-failover state-reconciliation round;
* :class:`RetryPolicy` / :class:`ReliableSender` — ACK-gated
  retransmission with exponential backoff and a retry budget;
* :class:`DedupCache` — bounded per-sender duplicate suppression with a
  reply cache, making a handler idempotent under duplication and
  retransmission. A hardened manager does not run a periodic STAT
  through it: the report is absolute and timestamped, and the NMDB
  drops one older than, or a copy of, the applied report by content.

The message path: a message is one immutable record, one engine heap
entry while in flight (:mod:`repro.simulation.network_sim`), and an
applied STAT is one :class:`~repro.core.nmdb.NodeRecord`.
"""

from __future__ import annotations

import enum
import itertools
from collections import OrderedDict, _tuplegetter  # namedtuple's field accessor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import get_registry, trace_event

_message_counter = itertools.count()


class MessageType(enum.Enum):
    OFFLOAD_CAPABLE = "offload-capable"
    ACK = "ack"
    STAT = "stat"
    OFFLOAD_REQUEST = "offload-request"
    OFFLOAD_ACK = "offload-ack"
    REDIRECT = "redirect"
    KEEPALIVE = "keepalive"
    REP = "rep"
    RECLAIM = "reclaim"
    RECEIPT = "receipt"
    MANAGER_HEARTBEAT = "manager-heartbeat"
    RESYNC = "resync"


def _rebuild(cls: type, values: tuple) -> "ControlMessage":
    # Pickle and copy: the stored fields, ``msg_id`` included; no id drawn.
    return tuple.__new__(cls, values)


class ControlMessage(tuple):
    """Base class: an immutable record, ``msg_id`` first, then the
    fields; the :class:`MessageType` tag is a class attribute.

    A message type declares ``__slots__ = ()``, its ``type`` and its
    fields as annotations (defaults last). Building one, positionally
    or by keyword, draws ``msg_id`` once: one tuple, no per-field
    ``object.__setattr__``. Fields read like attributes, cannot be
    assigned, and compare and hash as the tuple does.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ("msg_id",)
    type: MessageType
    msg_id = _tuplegetter(0, "Unique id, drawn when the message is built.")

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        names = tuple(cls.__dict__.get("__annotations__", {}))
        given = [name for name in names if name in cls.__dict__]  # fields with a default
        if "__slots__" not in cls.__dict__ or given != list(names[len(names) - len(given):]):
            raise TypeError(f"{cls.__name__}: declare __slots__ = () and defaults last")
        defaults = tuple(cls.__dict__[name] for name in given) or None
        for index, name in enumerate(names, 1):
            setattr(cls, name, _tuplegetter(index, None))
        cls._fields = ("msg_id", *names)
        # ``collections.namedtuple``'s constructor, with the id drawn in front.
        args = ", ".join(names)
        namespace = {"_new": tuple.__new__, "_next_id": _message_counter.__next__}
        new = eval(f"lambda _cls, {args}: _new(_cls, (_next_id(), {args}))", namespace)
        new.__defaults__, new.__qualname__ = defaults, f"{cls.__name__}.__new__"
        cls.__new__ = staticmethod(new)

    def __reduce__(self):
        return _rebuild, (type(self), tuple(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


class OffloadCapable(ControlMessage):
    """Client → Manager: participation declaration + thresholds."""

    __slots__ = ()
    type = MessageType.OFFLOAD_CAPABLE
    node_id: int
    capable: bool
    c_max: float
    co_max: float


class Ack(ControlMessage):
    """Manager → Client: admission + Update-Interval Time (seconds)."""

    __slots__ = ()
    type = MessageType.ACK
    node_id: int
    update_interval_s: float


class Stat(ControlMessage):
    """Client → Manager: periodic resource report.

    ``capacity_pct`` is the node's utilized capacity ``C_j``;
    ``data_mb`` the monitoring volume ``D_i`` it would export if
    offloaded; ``num_agents`` the installed monitor-agent count.

    ``reliable`` marks an admission STAT: a hardened client sets it on
    every report until the manager confirms one with a Receipt, so a
    lossy fabric cannot keep a node out of the candidate set. Steady-
    state reports leave it False — they are naturally redundant, the
    next period supersedes a lost one. A manager with a retry policy
    does not dedup them by ``msg_id``: the NMDB drops a copy of the
    applied report, or an older one, by its timestamp and fields.
    """

    __slots__ = ()
    type = MessageType.STAT
    node_id: int
    capacity_pct: float
    data_mb: float
    num_agents: int
    timestamp: float
    reliable: bool = False


class OffloadRequest(ControlMessage):
    """Manager → destination: host ``amount_pct`` of ``source``'s
    monitoring load, reached over ``route`` (node-id tuple)."""

    __slots__ = ()
    type = MessageType.OFFLOAD_REQUEST
    destination: int
    source: int
    amount_pct: float
    data_mb: float
    route: Tuple[int, ...]


class OffloadAck(ControlMessage):
    """Destination → Manager: accept/reject a hosting request.

    ``request_id`` echoes the ``msg_id`` of the Offload-Request / REP
    being answered so the manager's reliable sender can cancel the
    matching retransmission timer; ``amount_pct`` is only meaningful in
    resync re-confirmations (it lets a recovering manager rebuild a
    ledger row the snapshot missed).
    """

    __slots__ = ()
    type = MessageType.OFFLOAD_ACK
    destination: int
    source: int
    accepted: bool
    reason: str = ""
    request_id: Optional[int] = None
    amount_pct: float = 0.0


class Redirect(ControlMessage):
    """Manager → source (Busy node): redirect ``amount_pct`` of its
    monitoring workload to ``destination`` along ``route``."""

    __slots__ = ()
    type = MessageType.REDIRECT
    source: int
    destination: int
    amount_pct: float
    route: Tuple[int, ...]


class Keepalive(ControlMessage):
    """Destination → Manager: hosting heartbeat."""

    __slots__ = ()
    type = MessageType.KEEPALIVE
    node_id: int
    hosted_sources: Tuple[int, ...]
    timestamp: float


class Rep(ControlMessage):
    """Manager → replica node: take over a failed destination's hosted
    workload (the paper's REP message)."""

    __slots__ = ()
    type = MessageType.REP
    replica: int
    failed_destination: int
    source: int
    amount_pct: float
    route: Tuple[int, ...]


class Reclaim(ControlMessage):
    """Manager → destination: the source has spare capacity again and
    reclaims its workload ("a Busy node … reclaim its local resources
    when they become available")."""

    __slots__ = ()
    type = MessageType.RECLAIM
    source: int
    destination: int
    amount_pct: float


class Receipt(ControlMessage):
    """Client → Manager: delivery confirmation for a Redirect/Reclaim.

    Those two message types have no protocol-level response in the
    paper, so under lossy transport their retransmission is gated on
    this receipt instead. ``acked_msg_id`` is the confirmed message's
    ``msg_id``.
    """

    __slots__ = ()
    type = MessageType.RECEIPT
    node_id: int
    acked_msg_id: int


class ManagerHeartbeat(ControlMessage):
    """Primary manager → standby: liveness beacon carrying the latest
    persisted snapshot version (for observability; the snapshot itself
    lives in stable storage, not on the wire)."""

    __slots__ = ()
    type = MessageType.MANAGER_HEARTBEAT
    manager_node: int
    snapshot_version: int
    timestamp: float


class Resync(ControlMessage):
    """New primary → all clients after failover: report your state now.

    Clients answer with an immediate STAT plus one accepting
    Offload-ACK per hosted workload (carrying ``amount_pct``), letting
    the manager reconcile the restored snapshot against ground truth.
    """

    __slots__ = ()
    type = MessageType.RESYNC
    manager_node: int
    timestamp: float


# ---------------------------------------------------------------------------
# Reliability layer: retry policy, ACK-gated retransmission, dedup.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmission schedule for ACK-gated control messages.

    The first retransmission fires ``base_timeout_s`` after the
    original send; each subsequent one backs off by ``backoff`` up to
    ``max_timeout_s``. After ``max_retries`` unacknowledged
    retransmissions the sender gives up and invokes the caller's
    give-up hook (graceful degradation, not an exception).

    ``jitter`` (0..1) enables decorrelated jitter: each timeout is
    drawn from the upper ``jitter`` fraction of
    ``[base_timeout_s, min(max_timeout_s, previous * backoff)]``, so
    retransmissions from many clients that lost messages in the same
    burst do not re-synchronize into the next loss burst. Draws come
    from a per-sender seeded generator (see :class:`ReliableSender`),
    so a run stays a pure function of its seed; with ``jitter=0`` the
    schedule is the deterministic exponential one and no RNG is ever
    consulted.
    """

    base_timeout_s: float = 5.0
    backoff: float = 2.0
    max_timeout_s: float = 60.0
    max_retries: int = 4
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base_timeout_s <= 0 or self.max_timeout_s < self.base_timeout_s:
            raise ValueError("need 0 < base_timeout_s <= max_timeout_s")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def timeout_for(self, attempt: int) -> float:
        """Deterministic timeout preceding retransmission ``attempt``
        (0-based); the jitter-free schedule, and the upper bound the
        jittered one never exceeds."""
        return min(self.base_timeout_s * self.backoff**attempt, self.max_timeout_s)


#: Fetched once: once a cache is full, every ``remember`` evicts.
_LRU_EVICTIONS = get_registry().counter("transport.dedup_lru_evictions")


class DedupCache:
    """Bounded (sender, msg_id) duplicate filter with a reply cache.

    ``check`` returns ``(is_duplicate, cached_reply)``; handlers that
    answered a request remember the reply via ``remember`` so a
    retransmitted request re-elicits the same answer without the state
    transition running twice — the classic at-most-once RPC cache.

    Boundedness matters for soak runs that push millions of events
    through one endpoint: the cache evicts least-recently-touched
    entries past ``capacity`` (LRU) and, with ``ttl_s`` set, entries
    untouched for longer than the TTL (read off ``clock``, typically
    the simulation engine's virtual clock). Retransmission windows are
    bounded by the retry budget, so a TTL comfortably above the give-up
    horizon loses no dedup coverage. Evictions are counted on the
    instance (:attr:`lru_evictions` / :attr:`ttl_expirations`) and
    mirrored into the ``transport.dedup_lru_evictions`` /
    ``transport.dedup_ttl_expirations`` metrics.
    """

    def __init__(
        self,
        capacity: int = 4096,
        ttl_s: Optional[float] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError(f"ttl_s must be positive, got {ttl_s}")
        if ttl_s is not None and clock is None:
            raise ValueError("a TTL needs a clock to expire against")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self.lru_evictions = 0
        self.ttl_expirations = 0
        # key -> (reply, last-touch time); ordered oldest-touch first.
        self._seen: "OrderedDict[Tuple[int, int], Tuple[Optional[ControlMessage], float]]" = (
            OrderedDict()
        )

    def _expire(self, now: float) -> None:
        cutoff = now - self.ttl_s
        expired = 0
        while self._seen:
            _, (_, touched) = next(iter(self._seen.items()))
            if touched > cutoff:
                break
            self._seen.popitem(last=False)
            expired += 1
        if expired:
            self.ttl_expirations += expired
            get_registry().counter("transport.dedup_ttl_expirations").inc(expired)

    def check(self, sender: int, msg_id: int) -> Tuple[bool, Optional["ControlMessage"]]:
        # Touch times are only read by the TTL sweep: without a TTL the
        # clock is never read and every entry keeps time 0.0.
        now = 0.0
        if self.ttl_s is not None:
            now = self._clock()
            self._expire(now)
        key = (sender, msg_id)
        entry = self._seen.get(key)
        if entry is None:
            return False, None
        if self.ttl_s is not None:
            self._seen[key] = (entry[0], now)
        self._seen.move_to_end(key)
        return True, entry[0]

    def remember(
        self, sender: int, msg_id: int, reply: Optional["ControlMessage"] = None
    ) -> None:
        now = 0.0
        if self.ttl_s is not None:
            now = self._clock()
            self._expire(now)
        seen = self._seen
        key = (sender, msg_id)
        size = len(seen)
        seen[key] = (reply, now)
        if len(seen) == size:  # a known key: assignment kept its place
            seen.move_to_end(key)
        elif size >= self.capacity:
            evicted = 0
            while len(seen) > self.capacity:
                seen.popitem(last=False)
                evicted += 1
            self.lru_evictions += evicted
            _LRU_EVICTIONS.inc(evicted)

    def clear(self) -> None:
        self._seen.clear()

    def __len__(self) -> int:
        return len(self._seen)


@dataclass
class _Outstanding:
    """One un-acknowledged reliable send."""

    destination: int
    payload: Any
    attempt: int  # retransmissions performed so far
    timer: Any  # ScheduledEvent
    on_give_up: Optional[Callable[[int, Any], None]]
    prev_timeout: float = 0.0  # last armed timeout (decorrelated jitter state)


class ReliableSender:
    """ACK-gated retransmission on top of a fire-and-forget network.

    Each reliable send is keyed on the payload's ``msg_id``;
    ``acknowledge(msg_id)`` (called when the application-level response
    arrives) cancels the pending timer. On a loss-free fabric no timer
    ever fires, so behaviour — counters included — is identical to
    plain sends.

    Parameters
    ----------
    network : MessageNetwork
        The (possibly faulty) fabric messages travel on.
    engine : SimulationEngine
        Event engine used to schedule retransmission timers.
    node_id : int
        The sending endpoint's node id.
    policy : RetryPolicy
        Timeout schedule and retry budget.

    Attributes
    ----------
    retransmissions : int
        Timer-driven re-sends performed (also published process-wide
        as the ``transport.retransmissions`` metric).
    gave_up : int
        Sends abandoned after the retry budget (metric:
        ``transport.sends_gave_up``). Each retransmission / give-up
        additionally records a ``transport.retransmit`` /
        ``transport.give_up`` instant event when tracing is on, so
        retries are visible on the placement-round timeline.
    """

    def __init__(
        self,
        network,
        engine,
        node_id: int,
        policy: RetryPolicy,
        seed: int = 0,
    ) -> None:
        self.network = network
        self.engine = engine
        self.node_id = node_id
        self.policy = policy
        self._outstanding: Dict[int, _Outstanding] = {}
        self.retransmissions = 0
        self.gave_up = 0
        # Jitter draws come from a stream keyed on (seed, node id), so
        # two endpoints sharing one policy still desynchronize while a
        # whole run stays reproducible from its seed. Created lazily —
        # a jitter-free policy never touches numpy's RNG machinery.
        self._jitter_seed = (int(seed), int(node_id))
        self._jitter_rng = None

    def _timeout_for(self, entry: _Outstanding) -> float:
        """Next retransmission timeout: deterministic exponential, or a
        decorrelated-jitter draw when the policy asks for one."""
        policy = self.policy
        if policy.jitter <= 0.0:
            return policy.timeout_for(entry.attempt)
        if self._jitter_rng is None:
            import numpy as _np

            self._jitter_rng = _np.random.default_rng(self._jitter_seed)
        prev = entry.prev_timeout if entry.prev_timeout > 0.0 else policy.base_timeout_s
        cap = min(policy.max_timeout_s, max(policy.base_timeout_s, prev * policy.backoff))
        low = policy.base_timeout_s + (1.0 - policy.jitter) * (cap - policy.base_timeout_s)
        # ``uniform(low, cap)`` bit for bit, at the cost of ``random()``.
        timeout = low + (cap - low) * self._jitter_rng.random()
        entry.prev_timeout = timeout
        return timeout

    @property
    def pending(self) -> int:
        return len(self._outstanding)

    def send(
        self,
        destination: int,
        payload: "ControlMessage",
        on_give_up: Optional[Callable[[int, Any], None]] = None,
    ) -> None:
        """Send ``payload`` and retransmit until acknowledged or the
        retry budget is exhausted (then ``on_give_up(dest, payload)``)."""
        key = payload.msg_id
        if key in self._outstanding:  # already in flight: keep its timer
            return
        self.network.send(self.node_id, destination, payload)
        entry = _Outstanding(destination, payload, 0, None, on_give_up)
        self._outstanding[key] = entry
        self._arm(key, entry)

    def _arm(self, key: int, entry: _Outstanding) -> None:
        entry.timer = self.engine.schedule_after(
            self._timeout_for(entry),
            lambda engine, key=key: self._on_timeout(key),
            label="retx",
        )

    def _on_timeout(self, key: int) -> None:
        entry = self._outstanding.get(key)
        if entry is None:  # acknowledged in the meantime
            return
        if entry.attempt >= self.policy.max_retries:
            del self._outstanding[key]
            self.gave_up += 1
            get_registry().counter("transport.sends_gave_up").inc()
            trace_event(
                "transport.give_up", node=self.node_id, dest=entry.destination
            )
            if entry.on_give_up is not None:
                entry.on_give_up(entry.destination, entry.payload)
            return
        entry.attempt += 1
        self.retransmissions += 1
        get_registry().counter("transport.retransmissions").inc()
        trace_event(
            "transport.retransmit",
            node=self.node_id,
            dest=entry.destination,
            attempt=entry.attempt,
        )
        self.network.send(self.node_id, entry.destination, entry.payload)
        self._arm(key, entry)

    def acknowledge(self, msg_id: Optional[int]) -> bool:
        """Cancel the retransmission for ``msg_id``; returns whether one
        was outstanding (``None`` ids — legacy acks — are ignored)."""
        if msg_id is None:
            return False
        entry = self._outstanding.pop(msg_id, None)
        if entry is None:
            return False
        if entry.timer is not None:
            entry.timer.cancel()
        return True

    def cancel_all(self) -> None:
        """Drop every outstanding send (e.g. the endpoint crashed)."""
        for entry in self._outstanding.values():
            if entry.timer is not None:
                entry.timer.cancel()
        self._outstanding.clear()
