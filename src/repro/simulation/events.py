"""Event types for the discrete-event engine."""

from __future__ import annotations

from typing import Callable

#: An event handler receives the engine so it can schedule follow-ups.
Handler = Callable[["object"], None]


class ScheduledEvent:
    """One scheduled handler call; the handle ``schedule_*`` returns.

    The engine's heap holds ``(time, sequence, event)`` tuples, so
    ordering is the C tuple comparison on ``(time, sequence)``.
    ``sequence`` is a monotonically increasing insertion counter and
    unique per engine, so the event itself is never compared and two
    events at the same timestamp fire in scheduling order — this makes
    whole simulations reproducible from a seed.
    """

    __slots__ = ("time", "sequence", "handler", "label", "cancelled")

    def __init__(
        self, time: float, sequence: int, handler: Handler, label: str = ""
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.handler = handler
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True
