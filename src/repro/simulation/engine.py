"""Minimal deterministic discrete-event engine.

Drives the DUST control plane: periodic STAT reports, manager
optimization rounds, keepalive timers, and message deliveries all run
as scheduled events on one virtual clock. Determinism matters — every
experiment is reproducible from its seed — so simultaneous events fire
in scheduling order (see :class:`~repro.simulation.events.ScheduledEvent`).

The loop is the hot path of every control-plane run, so its steps cost
no Python-level call beyond the handler itself: :attr:`SimulationEngine.now`
is a plain attribute that :meth:`~SimulationEngine.run_until` writes,
and a heap entry is pushed inline wherever one is made
(:meth:`~SimulationEngine.schedule_at`, a periodic chain's re-arm, and
the network's sends in :mod:`repro.simulation.network_sim`) as
``(time, sequence, entry)`` under the next ``_sequence``. ``entry`` is
anything with ``cancelled``, ``label`` and ``handler(engine)``.
"""

from __future__ import annotations

import heapq
import sys
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simulation.events import Handler, ScheduledEvent


class SimulationEngine:
    """Virtual-time event loop."""

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current virtual time in seconds; only :meth:`run_until` moves it.
        self.now = float(start_time)
        #: ``(time, sequence, entry)`` tuples: ``sequence`` is unique, so
        #: tuple comparison never reaches the entry.
        self._heap: List[Tuple[float, int, Any]] = []
        self._sequence = 0
        self._running = False
        self.events_processed = 0

    # -- scheduling ---------------------------------------------------------------
    def schedule_at(self, time: float, handler: Handler, label: str = "") -> ScheduledEvent:
        """Schedule ``handler(engine)`` at absolute virtual time."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule event {label!r} at {time} before now ({self.now})"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = ScheduledEvent(time, sequence, handler, label)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_after(self, delay: float, handler: Handler, label: str = "") -> ScheduledEvent:
        """Schedule ``handler(engine)`` after a relative delay ≥ 0."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"negative delay {delay} for event {label!r}")
        return self.schedule_at(self.now + delay, handler, label)

    def schedule_periodic(
        self,
        period: float,
        handler: Handler,
        label: str = "",
        first_delay: Optional[float] = None,
        condition: Optional[Callable[[], bool]] = None,
    ) -> ScheduledEvent:
        """Schedule ``handler`` every ``period`` seconds until
        ``condition()`` (checked before each firing) returns ``False``.

        The chain is one :class:`ScheduledEvent` that re-arms itself:
        after each firing it goes back on the heap at ``now + period``
        with the next sequence number, taken after ``handler`` ran (the
        order a fresh ``schedule_after`` there would give). The returned
        handle is the chain's: cancel it to stop the chain at any point.
        """
        if not period > 0:  # also rejects NaN
            raise SimulationError(f"period must be positive, got {period}")

        def tick(engine: "SimulationEngine") -> None:
            if condition is not None and not condition():
                return
            handler(engine)
            if event.cancelled:
                return
            time = engine.now + period
            sequence = engine._sequence
            engine._sequence = sequence + 1
            event.time = time
            event.sequence = sequence
            heapq.heappush(engine._heap, (time, sequence, event))

        delay = period if first_delay is None else first_delay
        event = self.schedule_after(delay, tick, label)
        return event

    # -- execution ------------------------------------------------------------------
    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with ``time <= end_time``; advances the clock to
        ``end_time`` afterwards. Returns the number of events processed
        (``max_events`` stops the run early)."""
        if not end_time >= self.now:  # also rejects NaN
            raise SimulationError(f"end_time {end_time} is before now ({self.now})")
        if self._running:
            raise SimulationError("engine is already running (re-entrant run_until)")
        self._running = True
        heap = self._heap
        heappop = heapq.heappop
        limit = sys.maxsize if max_events is None else max_events  # int: a cheap compare
        processed = 0
        try:
            while heap:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > end_time:
                    break
                heappop(heap)
                self.now = time
                processed += 1
                event.handler(self)
                if processed >= limit:
                    break
        finally:
            self._running = False
            self.events_processed += processed
        if not heap or heap[0][0] > end_time:
            self.now = end_time
        return processed

    @property
    def pending_events(self) -> int:
        return sum(1 for _, _, event in self._heap if not event.cancelled)
