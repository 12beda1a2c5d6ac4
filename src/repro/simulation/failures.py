"""Failure injection for resilience experiments.

Schedules crash/recover events against DUST clients on the virtual
clock, either from an explicit scenario or from an exponential
failure/repair process. Used by the failure-recovery example and the
post-offload resilience tests to exercise keepalive expiry, REP replica
substitution, and client re-admission.

Besides node churn, the injector can take links up and down. A downed
link is modelled as fully saturated (utilization 1.0, so its effective
bandwidth collapses to the Trmin floor and routes steer around it) via
the :class:`~repro.topology.graph.Topology` mutation API — the version
counter bumps, so the version-keyed edge-cost caches refresh and the
next pricing sees the change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simulation.engine import SimulationEngine
from repro.topology.graph import Topology


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled transition."""

    time: float
    node_id: int
    kind: str  # "crash" or "recover"

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "recover"):
            raise SimulationError(f"unknown failure event kind {self.kind!r}")
        if self.time < 0:
            raise SimulationError("failure events need non-negative times")


@dataclass(frozen=True)
class LinkFailureEvent:
    """One scheduled link transition."""

    time: float
    edge_id: int
    kind: str  # "down" or "up"

    def __post_init__(self) -> None:
        if self.kind not in ("down", "up"):
            raise SimulationError(f"unknown link event kind {self.kind!r}")
        if self.time < 0:
            raise SimulationError("link events need non-negative times")


class FailureInjector:
    """Applies a crash/recover schedule to a set of clients.

    ``clients`` maps node id → an object with ``fail()`` / ``recover()``
    and an ``alive`` attribute (duck-typed so tests can use doubles).
    """

    def __init__(
        self,
        engine: SimulationEngine,
        clients: Dict[int, object],
        topology: Optional[Topology] = None,
    ) -> None:
        self.engine = engine
        self.clients = clients
        self.topology = topology
        self.applied: List[FailureEvent] = []
        self.applied_links: List[LinkFailureEvent] = []
        self._saved_utilization: Dict[int, float] = {}

    # -- explicit scenarios ---------------------------------------------------------
    def schedule(self, events: Sequence[FailureEvent]) -> None:
        """Schedule an explicit event list (validated against clients
        and the engine clock — the past cannot be scheduled)."""
        for event in events:
            if event.node_id not in self.clients:
                raise SimulationError(f"no client for node {event.node_id}")
            if event.time < self.engine.now:
                raise SimulationError(
                    f"failure event at t={event.time} is in the past "
                    f"(engine clock is at {self.engine.now})"
                )
        for event in events:
            self.engine.schedule_at(
                event.time,
                lambda engine, ev=event: self._apply(ev),
                label=f"{event.kind}-{event.node_id}",
            )

    def schedule_links(self, events: Sequence[LinkFailureEvent]) -> None:
        """Schedule link up/down transitions (requires ``topology``)."""
        if self.topology is None:
            raise SimulationError("link events need a topology to mutate")
        for event in events:
            self.topology.link(event.edge_id)  # validates existence
            if event.time < self.engine.now:
                raise SimulationError(
                    f"link event at t={event.time} is in the past "
                    f"(engine clock is at {self.engine.now})"
                )
        for event in events:
            self.engine.schedule_at(
                event.time,
                lambda engine, ev=event: self._apply_link(ev),
                label=f"link-{event.kind}-{event.edge_id}",
            )

    def _apply_link(self, event: LinkFailureEvent) -> None:
        link = self.topology.link(event.edge_id)
        if event.kind == "down":
            if event.edge_id in self._saved_utilization:
                return  # already down
            self._saved_utilization[event.edge_id] = link.utilization
            # Saturating the link floors its effective bandwidth, so
            # Trmin routing steers around it; set_utilization bumps the
            # topology version.
            self.topology.set_utilization(event.edge_id, 1.0)
        else:
            if event.edge_id not in self._saved_utilization:
                return  # never went down (or already restored)
            self.topology.set_utilization(
                event.edge_id, self._saved_utilization.pop(event.edge_id)
            )
        self.applied_links.append(event)

    def _apply(self, event: FailureEvent) -> None:
        client = self.clients[event.node_id]
        if event.kind == "crash":
            if getattr(client, "alive", True):
                client.fail()
                self.applied.append(event)
        else:
            if not getattr(client, "alive", True):
                client.recover()
                self.applied.append(event)

    # -- stochastic process -----------------------------------------------------------
    def schedule_exponential(
        self,
        horizon_s: float,
        mtbf_s: float,
        mttr_s: float,
        seed: Optional[int] = None,
        nodes: Optional[Sequence[int]] = None,
    ) -> List[FailureEvent]:
        """Independent exponential failure/repair per node up to
        ``horizon_s``; returns (and schedules) the generated events.

        ``mtbf_s``: mean time between failures while up;
        ``mttr_s``: mean time to repair while down.
        """
        if horizon_s <= 0 or mtbf_s <= 0 or mttr_s <= 0:
            raise SimulationError("horizon, MTBF and MTTR must be positive")
        rng = np.random.default_rng(seed)
        target_nodes = list(nodes) if nodes is not None else sorted(self.clients)
        events: List[FailureEvent] = []
        for node in target_nodes:
            if node not in self.clients:
                raise SimulationError(f"no client for node {node}")
            t = self.engine.now
            up = True
            while True:
                t += float(rng.exponential(mtbf_s if up else mttr_s))
                if t >= horizon_s:
                    break
                events.append(
                    FailureEvent(time=t, node_id=node, kind="crash" if up else "recover")
                )
                up = not up
        events.sort(key=lambda e: (e.time, e.node_id))
        self.schedule(events)
        return events
