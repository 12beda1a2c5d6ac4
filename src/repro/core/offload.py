"""The manager's offload ledger: every offload row and its lifecycle.

One row per offload, moving through the paper's handshake
(Offload-Request → Offload-ACK → Redirect) and the Receipt that
confirms the Redirect on a lossy fabric::

    REQUESTED → REDIRECTING → CONFIRMED → CLOSED

plus ``UNWOUND``, the tombstone a promoted manager leaves for a row
whose source never confirmed its predecessor's Redirect. A ``CLOSED``
row stays while it still constrains the manager — its Redirect Receipt
is outstanding, its corrective-Reclaim cooldown runs, or its
confirmation is newer than its source's last STAT — and is pruned
after. :data:`TRANSITIONS` is the whole lifecycle and
:data:`UNMATCHED_ACK` the handling of an Offload-ACK no request
explains; ``docs/offload_protocol.md`` renders both, and a test holds
the doc and the code equal.

The transitions are :class:`OffloadLedger` methods. They change rows
and return the messages to send — they never send, persist or arm a
timer — so the manager is an I/O shell around them and the offload
explorer in ``tests/`` runs them exhaustively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.messages import ControlMessage, OffloadAck, OffloadRequest, Reclaim, Redirect, Rep
from repro.errors import PlacementError, ProtocolError

_TOL = 1e-9

#: Minimum spacing between corrective Reclaims for one
#: (source, destination) pair — comfortably past the retry budget's
#: give-up horizon, so a repair either landed or was abandoned before
#: the next attempt can double-subtract a hosting.
RECLAIM_COOLDOWN_S = 60.0

#: ``(recipient, message)``: what a transition asks the manager to send.
Send = Tuple[int, ControlMessage]


class RowState(enum.Enum):
    REQUESTED = "REQUESTED"
    REDIRECTING = "REDIRECTING"
    CONFIRMED = "CONFIRMED"
    CLOSED = "CLOSED"
    UNWOUND = "UNWOUND"


REQUESTED, REDIRECTING, CONFIRMED, CLOSED, UNWOUND = RowState

#: ``(state before, trigger) -> state after``. ``None`` before: the
#: trigger creates the row; ``None`` after: the row leaves the ledger.
#: A trigger suffixed ``", no retries"`` is the same event on a manager
#: without a retry policy, where no Receipt ever confirms a Redirect.
TRANSITIONS: Dict[Tuple[Optional[RowState], str], Optional[RowState]] = {
    (None, "request"): REQUESTED,
    (REQUESTED, "request"): None,
    (REQUESTED, "rejected"): None,
    (REQUESTED, "request give-up"): None,
    (REQUESTED, "expired"): None,
    (REQUESTED, "accepted"): REDIRECTING, (REQUESTED, "accepted, no retries"): CONFIRMED,
    (None, "adopt"): REDIRECTING, (None, "adopt, no retries"): CONFIRMED,
    (None, "restore"): CONFIRMED,
    (REDIRECTING, "receipt"): CONFIRMED, (CLOSED, "receipt"): CLOSED,
    (REDIRECTING, "reclaim"): CLOSED, (CONFIRMED, "reclaim"): CLOSED,
    (REDIRECTING, "evict"): CLOSED, (CONFIRMED, "evict"): CLOSED,
    (REDIRECTING, "abandon"): CLOSED, (CONFIRMED, "abandon"): CLOSED, (CLOSED, "abandon"): CLOSED,
    (CONFIRMED, "unwind"): UNWOUND,
    (UNWOUND, "re-established"): CLOSED,
    (None, "corrective reclaim"): CLOSED,
    (CLOSED, "pruned"): None,
}


def _next(state: Optional[RowState], trigger: str) -> Optional[RowState]:
    try:
        return TRANSITIONS[(state, trigger)]
    except KeyError:
        raise ProtocolError(f"no {trigger!r} transition from {state}") from None


class AckOutcome(enum.Enum):
    ESTABLISH = "establish"
    REJECTED = "rejected"
    ADOPT = "adopt"
    SURPLUS = "surplus reclaim"
    UNWOUND_REPEAT = "unwound repeat"
    RECONFIRM = "reconfirm"
    ORPHAN = "orphan reclaim"
    STALE = "stale"


#: An Offload-ACK that answers no REQUESTED row, by ``(standing of its
#: pair, inside the resync window)``. Standing: ``refused`` (rejected or
#: zero amount), ``unwound`` (an UNWOUND tombstone), ``booked`` (active
#: rows) or ``unbooked``.
UNMATCHED_ACK: Dict[Tuple[str, bool], AckOutcome] = {
    ("unbooked", True): AckOutcome.ADOPT,
    ("booked", True): AckOutcome.SURPLUS,
    ("unwound", True): AckOutcome.UNWOUND_REPEAT,
    ("refused", True): AckOutcome.STALE,
    ("unbooked", False): AckOutcome.ORPHAN,
    ("booked", False): AckOutcome.RECONFIRM,
    ("unwound", False): AckOutcome.ORPHAN,
    ("refused", False): AckOutcome.STALE,
}

#: Outcomes only a lossy fabric explains; without a retry policy they
#: are protocol bugs.
_LOSSY_ONLY = frozenset({AckOutcome.RECONFIRM, AckOutcome.ORPHAN, AckOutcome.STALE})


@dataclass(frozen=True)
class ActiveOffload:
    """One (source → destination) ledger row.

    Immutable: a changed row is a new row, so snapshots and restores
    share rows with the ledger instead of copying them. For a REQUESTED
    row ``established_at`` is when the request left."""

    source: int
    destination: int
    amount_pct: float
    route: Tuple[int, ...]
    established_at: float
    via_replica: bool = False
    state: RowState = CONFIRMED
    #: ``msg_id`` of the Redirect whose Receipt is outstanding.
    redirect_id: Optional[int] = None
    #: When the source's Receipt confirmed the Redirect.
    confirmed_at: Optional[float] = None
    #: Start of the pair's corrective-Reclaim cooldown.
    reclaimed_at: Optional[float] = None

    @property
    def pair(self) -> Tuple[int, int]:
        return (self.source, self.destination)


def _both_ends(rows: Sequence[ActiveOffload]) -> List[Send]:
    """Tell both endpoints of torn-down rows, destination first, each
    with its own Reclaim: the reliable sender drops a second send of one
    ``msg_id`` as already in flight."""
    return [
        (end, Reclaim(row.source, row.destination, row.amount_pct))
        for row in rows
        for end in (row.destination, row.source)
    ]


class OffloadLedger:
    """Manager-side registry of offload rows and their lifecycle."""

    def __init__(self, reliable: bool = False) -> None:
        #: A retry policy is on: a Redirect is confirmed by its Receipt.
        self.reliable = reliable
        #: REDIRECTING and CONFIRMED rows, in the order they became active.
        self._active: List[ActiveOffload] = []
        #: REQUESTED rows and CLOSED / UNWOUND tombstones.
        self._other: List[ActiveOffload] = []
        #: Per source with an active row, its active rows' amounts in
        #: ``_active`` order (kept by ``add`` and ``_close``).
        self._offloaded: Dict[int, List[float]] = {}
        #: Per destination with an active row, its active rows in
        #: ``_active`` order (kept by ``add``, ``_settle`` and ``_close``).
        self._hosted: Dict[int, List[ActiveOffload]] = {}

    def add(self, offload: ActiveOffload) -> None:
        if offload.amount_pct <= _TOL:
            raise PlacementError("refusing to track a zero-amount offload")
        self._active.append(offload)
        self._offloaded.setdefault(offload.source, []).append(offload.amount_pct)
        self._hosted.setdefault(offload.destination, []).append(offload)

    # -- queries (active rows) ----------------------------------------------------
    @property
    def active(self) -> Tuple[ActiveOffload, ...]:
        return tuple(self._active)

    @property
    def rows(self) -> Tuple[ActiveOffload, ...]:
        """Every row, whatever its state."""
        return (*self._active, *self._other)

    @property
    def durable(self) -> Tuple[ActiveOffload, ...]:
        """What a snapshot keeps: the active rows, then the closed rows
        whose Redirect Receipt is outstanding (a successor must unwind
        their sources)."""
        return (*self._active, *(r for r in self._other if r.redirect_id is not None))

    def hosted_by(self, destination: int) -> List[ActiveOffload]:
        """Offloads currently hosted on ``destination``, in row order."""
        return list(self._hosted.get(destination, ()))

    def hosted_amount(self, destination: int) -> float:
        return float(sum(o.amount_pct for o in self._hosted.get(destination, ())))

    def has_active(self, source: int) -> bool:
        """Whether ``source`` has an active (REDIRECTING or CONFIRMED) row."""
        return source in self._offloaded

    def offloaded_amount(self, source: int) -> float:
        """Total active amount offloaded from ``source``, summed in row
        order; 0 at once for a source with no active row."""
        amounts = self._offloaded.get(source)
        return float(sum(amounts)) if amounts is not None else 0.0

    def pair_amount(self, source: int, destination: int) -> float:
        """Total booked amount for one ``source -> destination`` pair."""
        return float(sum(o.amount_pct for o in self._active if o.pair == (source, destination)))

    @property
    def destinations(self) -> List[int]:
        return sorted({o.destination for o in self._active})

    @property
    def sources(self) -> List[int]:
        return sorted({o.source for o in self._active})

    def __len__(self) -> int:
        return len(self._active)

    def round_state(self) -> dict:
        """The ledger's part of a :class:`~repro.core.placement.RoundView`:
        ``in_flight`` (REQUESTED pairs), ``unconfirmed`` (sources owing a
        Receipt), ``fresh_after`` (per node, its newest active row; per
        source, also its newest confirmation) and the per-node
        ``offloaded`` / ``hosted`` sums of the active rows."""
        fresh_after: Dict[int, float] = {}
        offloaded: Dict[int, float] = {}
        hosted: Dict[int, float] = {}

        def bump(node: int, at: float) -> None:
            fresh_after[node] = max(fresh_after.get(node, float("-inf")), at)

        for row in self._active:
            offloaded[row.source] = offloaded.get(row.source, 0.0) + row.amount_pct
            hosted[row.destination] = hosted.get(row.destination, 0.0) + row.amount_pct
            bump(row.source, row.established_at)
            bump(row.destination, row.established_at)
        rows = self.rows
        for row in rows:
            if row.confirmed_at is not None:
                bump(row.source, row.confirmed_at)
        return dict(
            in_flight=frozenset(r.pair for r in self._other if r.state is REQUESTED),
            unconfirmed=frozenset(r.source for r in rows if r.redirect_id is not None),
            fresh_after=fresh_after, offloaded=offloaded, hosted=hosted,
        )

    # -- transitions ------------------------------------------------------------
    def request(
        self, source: int, destination: int, amount_pct: float, route: Tuple[int, ...],
        now: float, data_mb: float = 0.0, failed: Optional[int] = None,
    ) -> List[Send]:
        """Ask ``destination`` to host: an Offload-Request, or a REP when
        ``failed`` names the dead destination it replaces. A newer
        request for the pair replaces an unanswered one."""
        self._take_request((source, destination), "request")
        if failed is None:
            message = OffloadRequest(destination, source, amount_pct, data_mb, route)
        else:
            message = Rep(destination, failed, source, amount_pct, route)
        state = _next(None, "request")
        row = ActiveOffload(source, destination, amount_pct, route, now, failed is not None, state)
        self._other.append(row)
        return [(destination, message)]

    def give_up_request(self, source: int, destination: int) -> None:
        """The request's retry budget ran out."""
        self._take_request((source, destination), "request give-up")

    def on_ack(self, ack: OffloadAck, now: float, in_resync: bool) -> Tuple[AckOutcome, List[Send]]:
        """An Offload-ACK: it answers the pair's REQUESTED row, or is
        looked up in :data:`UNMATCHED_ACK`."""
        pair = (ack.source, ack.destination)
        requested = self._take_request(pair, "accepted" if ack.accepted else "rejected")
        if requested is not None:
            if not ack.accepted:
                return AckOutcome.REJECTED, []
            for i, row in enumerate(self._other):
                if row.state is UNWOUND and row.pair == pair:
                    self._other[i] = replace(row, state=_next(UNWOUND, "re-established"))
            return AckOutcome.ESTABLISH, self._activate(REQUESTED, requested, "accepted", now)
        known = self.pair_amount(*pair)
        if not (ack.accepted and ack.amount_pct > _TOL):
            standing = "refused"
        elif any(r.state is UNWOUND and r.pair == pair for r in self._other):
            standing = "unwound"
        else:
            standing = "booked" if known > _TOL else "unbooked"
        outcome = UNMATCHED_ACK[(standing, in_resync)]
        if outcome in _LOSSY_ONLY and not self.reliable:
            raise ProtocolError(f"unexpected Offload-ACK for {ack.source}->{ack.destination}")
        if outcome is AckOutcome.ADOPT:
            # The destination's hosting proves only its own side; a row
            # missing from the snapshot means the source was never
            # redirected (rows are durable before their Redirect).
            row = ActiveOffload(*pair, ack.amount_pct, pair, now)
            return outcome, self._activate(None, row, "adopt", now)
        if outcome in (AckOutcome.SURPLUS, AckOutcome.RECONFIRM):
            # More hosted than booked: an established but never persisted
            # surplus hides in the aggregate, and its source was never
            # redirected — take the difference back.
            excess = ack.amount_pct - known
            return outcome, self._corrective(pair, excess, now) if excess > _TOL else []
        if outcome is AckOutcome.STALE:
            return outcome, []
        return outcome, self._corrective(pair, ack.amount_pct, now)

    def confirm(self, redirect_id: int, now: float) -> bool:
        """A Receipt: the row owing it is confirmed (a closed row keeps
        the time — its source sits out rounds until it reports past it).
        Returns whether a row owed it."""
        return self._settle(redirect_id, "receipt", confirmed_at=now)

    def abandon(self, redirect_id: int, source: int, now: float) -> List[Send]:
        """A Redirect exhausted its retries: forget it and close every
        active row of its source, each starting a cooldown. Both ends
        are told — "never confirmed" may mean only the Receipts were
        lost."""
        closed = self.reclaim(source, "abandon", now)
        self._settle(redirect_id, "abandon")
        return _both_ends(closed)

    def restore(self, rows: Sequence[ActiveOffload], now: float) -> List[Send]:
        """Adopt a predecessor's durable rows as CONFIRMED (its transport
        bookkeeping is not the successor's), then unwind every row of a
        source that owed a Receipt: the source may never have applied
        the offload, so both ends are told to take it back."""
        state = _next(None, "restore")
        for row in rows:
            if row.state is not CLOSED:
                self.add(replace(row, state=state, redirect_id=None, confirmed_at=None))
        unconfirmed = sorted({r.source for r in rows if r.redirect_id is not None})
        return _both_ends([row for s in unconfirmed for row in self.reclaim(s, "unwind", now)])

    def reclaim(
        self, source: int, trigger: str = "reclaim", now: Optional[float] = None
    ) -> List[ActiveOffload]:
        """Close (and return) every active row of ``source``; ``now``
        starts the closed rows' cooldown."""
        return self._close(lambda o: o.source == source, trigger, now)

    def evict_destination(self, destination: int) -> List[ActiveOffload]:
        """Close (and return) every active row hosted on ``destination``."""
        return self._close(lambda o: o.destination == destination, "evict", None)

    def evict(self, destination: int) -> List[Tuple[int, float, Send]]:
        """A destination failed: close its rows. Per source (sorted), the
        load it had there and the Reclaim cancelling its mapping."""
        by_source: Dict[int, float] = {}
        for row in self.evict_destination(destination):
            by_source[row.source] = by_source.get(row.source, 0.0) + row.amount_pct
        return [
            (source, amount, (source, Reclaim(source, destination, amount)))
            for source, amount in sorted(by_source.items())
        ]

    def prune(self, now: float, last_stat, requested_before: float) -> None:
        """Expire REQUESTED rows older than ``requested_before`` (their
        request or reply was lost) and drop CLOSED rows that constrain
        nothing any more; ``last_stat`` is each node's newest STAT time."""

        def keep(row: ActiveOffload) -> bool:  # a legal drop's ``_next`` is None
            if row.state is REQUESTED:
                return row.established_at >= requested_before or _next(REQUESTED, "expired")
            return (
                row.state is UNWOUND
                or row.redirect_id is not None
                or (row.reclaimed_at is not None and now - row.reclaimed_at < RECLAIM_COOLDOWN_S)
                or (row.confirmed_at is not None and row.confirmed_at > last_stat[row.source])
                or _next(row.state, "pruned")
            )

        self._other = [row for row in self._other if keep(row)]

    # -- internals ----------------------------------------------------------------
    def _activate(self, before: Optional[RowState], row: ActiveOffload, trigger: str,
                  now: float) -> List[Send]:
        """Book ``row`` (its state was ``before``) and redirect its source."""
        redirect = Redirect(row.source, row.destination, row.amount_pct, row.route)
        state = _next(before, trigger if self.reliable else trigger + ", no retries")
        redirect_id = redirect.msg_id if self.reliable else None
        self.add(replace(row, state=state, established_at=now, redirect_id=redirect_id))
        return [(row.source, redirect)]

    def _corrective(self, pair: Tuple[int, int], amount: float, now: float) -> List[Send]:
        """Undo an orphaned (or surplus) hosting, at most once per
        cooldown per pair: Reclaim *subtracts*, so a raced duplicate of
        a partial repair would eat into a legitimate hosting."""
        for row in self._other:
            if row.pair == pair and row.reclaimed_at is not None:
                if now - row.reclaimed_at < RECLAIM_COOLDOWN_S:
                    return []
        state = _next(None, "corrective reclaim")
        self._other.append(ActiveOffload(*pair, amount, pair, now, state=state, reclaimed_at=now))
        return [(pair[1], Reclaim(*pair, amount))]

    def _take_request(self, pair: Tuple[int, int], trigger: str) -> Optional[ActiveOffload]:
        """Remove (and return) the pair's REQUESTED row, if any."""
        for i, row in enumerate(self._other):
            if row.state is REQUESTED and row.pair == pair:
                _next(REQUESTED, trigger)
                return self._other.pop(i)
        return None

    def _settle(self, redirect_id: int, trigger: str, **fields) -> bool:
        """The row owing ``redirect_id`` stops owing it."""
        for rows in (self._active, self._other):
            for i, row in enumerate(rows):
                if row.redirect_id == redirect_id:
                    state = _next(row.state, trigger)
                    rows[i] = replace(row, state=state, redirect_id=None, **fields)
                    if rows is self._active:
                        hosted = self._hosted[row.destination]
                        hosted[next(k for k, o in enumerate(hosted) if o is row)] = rows[i]
                    return True
        return False

    def _close(
        self, match: Callable[[ActiveOffload], bool], trigger: str, now: Optional[float]
    ) -> List[ActiveOffload]:
        closed = [row for row in self._active if match(row)]
        if closed:
            self._active = [row for row in self._active if not match(row)]
            for source in {row.source for row in closed}:
                amounts = [row.amount_pct for row in self._active if row.source == source]
                if amounts:
                    self._offloaded[source] = amounts
                else:
                    del self._offloaded[source]
            for destination in {row.destination for row in closed}:
                hosted = [row for row in self._hosted[destination] if not match(row)]
                if hosted:
                    self._hosted[destination] = hosted
                else:
                    del self._hosted[destination]
            self._other += [
                replace(row, state=_next(row.state, trigger), reclaimed_at=now) for row in closed
            ]
        return closed
