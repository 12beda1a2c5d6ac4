"""Offload plans and the manager's active-offload ledger.

A :class:`PlacementReport` (or heuristic report) describes *what should
move*; :class:`OffloadPlan` turns it into capacity deltas under the
paper's homogeneity assumption (one percentage point released at the
source costs one point at the destination), and :class:`OffloadLedger`
tracks the live state so reclaim and replica substitution operate on
ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.placement import PlacementAssignment
from repro.errors import PlacementError

_TOL = 1e-9


@dataclass(frozen=True)
class OffloadPlan:
    """A set of accepted assignments ready to apply."""

    assignments: Tuple[PlacementAssignment, ...]

    @property
    def total_amount(self) -> float:
        return float(sum(a.amount_pct for a in self.assignments))

    @property
    def sources(self) -> List[int]:
        return sorted({a.busy for a in self.assignments})

    @property
    def destinations(self) -> List[int]:
        return sorted({a.candidate for a in self.assignments})

    def apply_to_capacities(self, capacities: Sequence[float]) -> np.ndarray:
        """Post-offload utilized capacities: sources drop by their
        offloaded amount, destinations rise (homogeneity assumption)."""
        caps = np.asarray(capacities, dtype=float).copy()
        for a in self.assignments:
            caps[a.busy] -= a.amount_pct
            caps[a.candidate] += a.amount_pct
        return caps

    def rollback_from_capacities(self, capacities: Sequence[float]) -> np.ndarray:
        """Inverse of :meth:`apply_to_capacities`."""
        caps = np.asarray(capacities, dtype=float).copy()
        for a in self.assignments:
            caps[a.busy] += a.amount_pct
            caps[a.candidate] -= a.amount_pct
        return caps

    def validate_against(
        self,
        capacities: Sequence[float],
        c_max: float,
        co_max: float,
    ) -> None:
        """Check the plan respects the paper's constraints for the given
        pre-offload state: no destination exceeds ``CO_max`` afterwards
        (3a/3d) and no source offloads more than its excess (3c)."""
        caps = np.asarray(capacities, dtype=float)
        by_source: Dict[int, float] = {}
        by_dest: Dict[int, float] = {}
        for a in self.assignments:
            by_source[a.busy] = by_source.get(a.busy, 0.0) + a.amount_pct
            by_dest[a.candidate] = by_dest.get(a.candidate, 0.0) + a.amount_pct
        for src, amount in by_source.items():
            excess = caps[src] - c_max
            if amount > excess + 1e-6:
                raise PlacementError(
                    f"source {src} offloads {amount:.3f} > its excess {excess:.3f}"
                )
        for dst, amount in by_dest.items():
            if caps[dst] + amount > co_max + 1e-6:
                raise PlacementError(
                    f"destination {dst} would reach {caps[dst] + amount:.3f}% "
                    f"> CO_max {co_max}%"
                )


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
