"""The manager's active-offload ledger.

:class:`OffloadLedger` tracks the live (source → destination) offloads
so reclaim and replica substitution operate on ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import PlacementError

_TOL = 1e-9


@dataclass(frozen=True)
class ActiveOffload:
    """One live (source → destination) offload tracked by the manager.

    Immutable: a changed offload is a new row, so snapshots and
    restores share rows with the ledger instead of copying them."""

    source: int
    destination: int
    amount_pct: float
    route: Tuple[int, ...]
    established_at: float
    via_replica: bool = False


class OffloadLedger:
    """Manager-side registry of active offloads."""

    def __init__(self) -> None:
        self._active: List[ActiveOffload] = []

    def add(self, offload: ActiveOffload) -> None:
        if offload.amount_pct <= _TOL:
            raise PlacementError("refusing to track a zero-amount offload")
        self._active.append(offload)

    # -- queries ----------------------------------------------------------------
    @property
    def active(self) -> Tuple[ActiveOffload, ...]:
        return tuple(self._active)

    def hosted_by(self, destination: int) -> List[ActiveOffload]:
        """Offloads currently hosted on ``destination``."""
        return [o for o in self._active if o.destination == destination]

    def offloaded_from(self, source: int) -> List[ActiveOffload]:
        """Offloads whose workload originates at ``source``."""
        return [o for o in self._active if o.source == source]

    def hosted_amount(self, destination: int) -> float:
        return float(sum(o.amount_pct for o in self.hosted_by(destination)))

    def offloaded_amount(self, source: int) -> float:
        return float(sum(o.amount_pct for o in self.offloaded_from(source)))

    def pair_amount(self, source: int, destination: int) -> float:
        """Total booked amount for one ``source -> destination`` pair."""
        return float(
            sum(
                o.amount_pct
                for o in self._active
                if o.source == source and o.destination == destination
            )
        )

    @property
    def destinations(self) -> List[int]:
        return sorted({o.destination for o in self._active})

    @property
    def sources(self) -> List[int]:
        return sorted({o.source for o in self._active})

    # -- mutations ----------------------------------------------------------------
    def reclaim(self, source: int) -> List[ActiveOffload]:
        """Remove (and return) all offloads originating at ``source``."""
        reclaimed = self.offloaded_from(source)
        self._active = [o for o in self._active if o.source != source]
        return reclaimed

    def evict_destination(self, destination: int) -> List[ActiveOffload]:
        """Remove (and return) all offloads hosted on ``destination`` —
        the first half of replica substitution."""
        evicted = self.hosted_by(destination)
        self._active = [o for o in self._active if o.destination != destination]
        return evicted

    def __len__(self) -> int:
        return len(self._active)
