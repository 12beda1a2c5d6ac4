"""Optimal monitoring placement — the paper's Eq. 3 program.

Given Busy nodes ``V_b`` with excess loads ``Cs_i`` and candidates
``V_o`` with spare capacities ``Cd_j``, minimize

    β = Σ_i Σ_j  x_ij · Trmin_ij

subject to Σ_i x_ij ≤ Cd_j (3a), Σ_j x_ij = Cs_i (3b), x ≥ 0 —
where ``Trmin_ij`` is the minimum response time over all hop-bounded
paths (Eq. 2). The solve decomposes exactly as the paper's simulator
does:

1. **route pricing** — compute the ``Trmin`` matrix with the configured
   :class:`~repro.routing.response_time.ResponseTimeModel` (the
   hop-layered DP by default; the paper's exhaustive enumeration —
   whose cost, not the LP's, is the max-hop blowup of Figs. 8/10 — is
   the same ``(Trmin, hops)`` and is named explicitly by the callers
   that time it);
2. **LP solve** — Eq. 3 is a continuous transportation problem, solved
   exactly by the transportation simplex
   (:mod:`repro.lp.transportation`), which also returns its duals: the
   shadow price of every candidate's spare capacity.

Pairs with no path within ``max_hops`` get no shipping lane; if the
remaining lanes cannot absorb all excess load, the solution status is
``INFEASIBLE`` — the *Infeasible Optimization* event counted by Fig. 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.nmdb import NetworkSnapshot
from repro.core.roles import classify_network
from repro.core.thresholds import ThresholdPolicy
from repro.errors import PlacementError
from repro.lp import SolveStatus, TransportationProblem, solve_transportation
from repro.obs import get_registry, trace_span
from repro.routing.engine import TrminEngine
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.routing.routes import Path
from repro.topology.graph import Topology

#: Flows below this are dropped from the assignment list (numerical dust).
_FLOW_TOL = 1e-9


@dataclass(frozen=True)
class PlacementProblem:
    """One placement instance, fully specified.

    ``cs[a]`` / ``data_mb[a]`` belong to ``busy[a]``; ``cd[b]`` belongs
    to ``candidates[b]``. Capacities are in percentage points of node
    capacity (the paper's homogeneity assumption makes points
    transferable 1:1); ``data_mb`` is the exported volume ``D_i``.
    """

    topology: Topology
    busy: Tuple[int, ...]
    candidates: Tuple[int, ...]
    cs: np.ndarray
    cd: np.ndarray
    data_mb: np.ndarray
    max_hops: Optional[int] = None

    def __post_init__(self) -> None:
        cs = np.asarray(self.cs, dtype=float)
        cd = np.asarray(self.cd, dtype=float)
        data = np.asarray(self.data_mb, dtype=float)
        object.__setattr__(self, "cs", cs)
        object.__setattr__(self, "cd", cd)
        object.__setattr__(self, "data_mb", data)
        if cs.shape != (len(self.busy),):
            raise PlacementError(
                f"cs has shape {cs.shape}, expected ({len(self.busy)},)"
            )
        if data.shape != (len(self.busy),):
            raise PlacementError(
                f"data_mb has shape {data.shape}, expected ({len(self.busy)},)"
            )
        if cd.shape != (len(self.candidates),):
            raise PlacementError(
                f"cd has shape {cd.shape}, expected ({len(self.candidates)},)"
            )
        if not (np.isfinite(cs).all() and np.isfinite(cd).all()
                and np.isfinite(data).all()):
            raise PlacementError("cs, cd and data_mb must be finite")
        if (cs < 0).any() or (cd < 0).any() or (data < 0).any():
            raise PlacementError("cs, cd and data_mb must be non-negative")
        overlap = set(self.busy) & set(self.candidates)
        if overlap:
            raise PlacementError(
                f"nodes {sorted(overlap)} appear as both busy and candidate"
            )
        for node in (*self.busy, *self.candidates):
            self.topology.node(node)  # validates existence

    @property
    def total_excess(self) -> float:
        """Total load to offload, ``Cs = Σ Cs_i``."""
        return float(self.cs.sum())

    @property
    def total_spare(self) -> float:
        """Total available capacity, ``Cd = Σ Cd_j``."""
        return float(self.cd.sum())


class Exclusion(str, Enum):
    """Why a Busy node or candidate sits a round out. The rules are
    tried in this order and the first that matches is recorded."""

    MANAGER = "manager"  # runs no monitoring workload of its own
    RELIEVED = "relieved"  # Busy with Cs_i = 0: its 3c row carries no flow
    STALE = "stale"  # last STAT older than stale_after_s: crashed or never admitted
    IN_FLIGHT = "in-flight"  # an Offload-Request or REP from (Busy) or to it is unanswered
    QUARANTINED = "quarantined"  # candidate that exhausted a retry budget
    UNCONFIRMED_REDIRECT = "unconfirmed-redirect"  # still reports pre-Redirect load
    #: Newest STAT predates its newest ledger row or Redirect
    #: confirmation, so it still shows the pre-assignment load.
    NOT_REPORTED = "not-reported-since-assignment"


#: ``"incremental"``: the manager's round — reported loads, every rule.
#: ``"from-scratch"``: the drift oracle — loads with the ledger torn
#: down (reported + offloaded − hosted), only the manager, relieved and
#: stale rules.
ROUND_MODES = ("incremental", "from-scratch")


@dataclass(frozen=True)
class RoundView:
    """What one manager knows at one instant, as :func:`plan_round`
    reads it: data, not decisions. Built by
    :meth:`~repro.core.manager.DUSTManager.round_view`."""

    topology: Topology
    snapshot: NetworkSnapshot
    #: Time of each node's newest STAT, by node id (``-inf``: none yet).
    last_stat: np.ndarray
    now: float
    stale_after_s: float
    manager_node: int
    max_hops: Optional[int]
    quarantined: FrozenSet[int]
    #: (source, destination) of every unanswered Offload-Request or REP.
    in_flight: FrozenSet[Tuple[int, int]]
    #: Sources whose Redirect is still waiting for its Receipt.
    unconfirmed: FrozenSet[int]
    #: Node -> the time its next STAT must not predate: its newest
    #: ledger row, or its newest Redirect confirmation.
    fresh_after: Mapping[int, float]
    #: Ledger sums per node: load each source gave away, and load each
    #: destination hosts.
    offloaded: Mapping[int, float]
    hosted: Mapping[int, float]

    def stale_nodes(self) -> FrozenSet[int]:
        """Nodes whose last STAT is older than ``stale_after_s``."""
        age = self.now - self.last_stat
        return frozenset(np.flatnonzero(age > self.stale_after_s).tolist())


@dataclass(frozen=True)
class RoundPlan:
    """Who takes part in a round: the Eq. 3 instance (``None`` when no
    Busy node is left to place) and why every other Busy node or
    candidate sits out."""

    problem: Optional[PlacementProblem]
    excluded: Mapping[int, Exclusion]


def plan_round(view: RoundView, policy: ThresholdPolicy, mode: str) -> RoundPlan:
    """Evaluate every :class:`Exclusion` rule over ``view`` and build the
    round's :class:`PlacementProblem`; ``mode`` is one of
    :data:`ROUND_MODES`. Pure: the view is only read.

    Both modes take ``V_b`` and ``V_o`` from the role rule
    (``C ≥ C_max`` / ``C ≤ CO_max`` among participating nodes) applied
    to the mode's loads.
    """
    if mode not in ROUND_MODES:
        raise PlacementError(f"unknown round mode {mode!r}; expected one of {ROUND_MODES}")
    incremental = mode == "incremental"
    snapshot = view.snapshot
    load = snapshot.capacities
    if not incremental:
        n = load.size
        load = load + _node_sums(view.offloaded, n) - _node_sums(view.hosted, n)
    roles = classify_network(load, policy, snapshot.participating)
    stale = view.stale_nodes()
    sources = {source for source, _ in view.in_flight}
    destinations = {destination for _, destination in view.in_flight}

    def rule(node: int, busy: bool) -> Optional[Exclusion]:
        if node == view.manager_node:
            return Exclusion.MANAGER
        if busy and policy.excess_load(load[node]) <= _FLOW_TOL:
            return Exclusion.RELIEVED
        if node in stale:
            return Exclusion.STALE
        if not incremental:
            return None
        if node in (sources if busy else destinations):
            return Exclusion.IN_FLIGHT
        if not busy and node in view.quarantined:
            return Exclusion.QUARANTINED
        if busy and node in view.unconfirmed:
            return Exclusion.UNCONFIRMED_REDIRECT
        cutoff = view.fresh_after.get(node)
        if cutoff is not None and view.last_stat[node] < cutoff:
            return Exclusion.NOT_REPORTED
        return None

    excluded: Dict[int, Exclusion] = {}
    busy: List[int] = []
    candidates: List[int] = []
    for members, nodes, is_busy in (
        (busy, roles.busy, True),
        (candidates, roles.candidates, False),
    ):
        for node in nodes:
            reason = rule(node, is_busy)
            if reason is None:
                members.append(node)
            else:
                excluded[node] = reason
    if not busy:
        return RoundPlan(problem=None, excluded=excluded)
    problem = PlacementProblem(
        topology=view.topology,
        busy=tuple(busy),
        candidates=tuple(candidates),
        cs=np.array([policy.excess_load(load[b]) for b in busy]),
        cd=np.array([policy.spare_capacity(load[c]) for c in candidates]),
        data_mb=snapshot.data_mb[busy],
        max_hops=view.max_hops,
    )
    return RoundPlan(problem=problem, excluded=excluded)


def _node_sums(sums: Mapping[int, float], n: int) -> np.ndarray:
    out = np.zeros(n)
    out[list(sums)] = list(sums.values())
    return out


@dataclass(frozen=True)
class PlacementAssignment:
    """One flow: offload ``amount_pct`` from ``busy`` to ``candidate``."""

    busy: int
    candidate: int
    amount_pct: float
    response_time_s: float  # Trmin for this pair (full D_i transfer)
    hops: int
    route: Optional[Path] = None


@dataclass(frozen=True)
class PlacementReport:
    """Outcome of one placement solve."""

    status: SolveStatus
    objective_beta: float
    assignments: Tuple[PlacementAssignment, ...]
    trmin_seconds: float
    lp_seconds: float
    total_seconds: float
    path_engine: PathEngine
    max_hops: Optional[int]
    total_excess: float
    total_spare: float
    #: Shadow price of each candidate's spare capacity (candidate node
    #: id -> dual ``v_j <= 0`` of its 3a row) on every optimal solve,
    #: empty otherwise: beta falls by |dual| per extra capacity point.
    capacity_duals: Dict[int, float] = field(default_factory=dict)
    #: Never set: the only reader is benchmarks/e2e/spans.py; deleted
    #: with that reader in the next [benchmark] PR.
    lp_warm_started: bool = False
    #: Pivot count of the LP solve (MODI pivots, or the distributed
    #: coordinator's); 0 for trivial solves.
    lp_iterations: int = 0

    @property
    def feasible(self) -> bool:
        return self.status.is_optimal

    @property
    def total_offloaded(self) -> float:
        return float(sum(a.amount_pct for a in self.assignments))

    def flows_from(self, busy: int) -> List[PlacementAssignment]:
        return [a for a in self.assignments if a.busy == busy]

    def flows_to(self, candidate: int) -> List[PlacementAssignment]:
        return [a for a in self.assignments if a.candidate == candidate]

    def destinations(self) -> List[int]:
        """Selected Offload-destination nodes."""
        return sorted({a.candidate for a in self.assignments})


class PlacementEngine:
    """The DUST-Manager's Optimization Engine.

    Parameters
    ----------
    response_model:
        Trmin computation configuration; defaults to the hop-layered
        DP with the problem's ``max_hops`` (same ``(Trmin, hops)`` as
        exhaustive enumeration, without its unbounded cost when the
        problem sets no ``max_hops``).
    with_routes:
        Materialize the chosen :class:`~repro.routing.routes.Path` per
        assignment (the controllable-route output). Slightly more work;
        disable for pure timing studies.
    trmin_engine:
        Route-pricing engine the Trmin matrix is computed through
        (the one pricing pipeline plus its span and metrics). ``None``
        builds a default :class:`TrminEngine`.
    """

    def __init__(
        self,
        response_model: Optional[ResponseTimeModel] = None,
        with_routes: bool = True,
        trmin_engine: Optional[TrminEngine] = None,
        # Accepted and ignored: the only caller is benchmarks/e2e/workloads.py;
        # deleted with that call site in the next [benchmark] PR.
        workers: Optional[int] = None,
    ) -> None:
        self.response_model = response_model
        self.with_routes = with_routes
        self.trmin_engine = trmin_engine or TrminEngine()

    # -- internals -----------------------------------------------------------------
    def _model_for(self, problem: PlacementProblem) -> ResponseTimeModel:
        if self.response_model is not None:
            model = self.response_model
            if model.max_hops != problem.max_hops and problem.max_hops is not None:
                model = ResponseTimeModel(
                    convention=model.convention,
                    engine=model.engine,
                    max_hops=problem.max_hops,
                )
            return model
        return ResponseTimeModel(engine=PathEngine.DP, max_hops=problem.max_hops)

    @staticmethod
    def _solve_lp(
        cost: np.ndarray, cs: np.ndarray, cd: np.ndarray
    ) -> Tuple[SolveStatus, np.ndarray, float, Optional[np.ndarray], int]:
        """Solve the placement LP; returns (status, flow, beta, capacity
        duals ``v`` or ``None``, pivots)."""
        result = solve_transportation(TransportationProblem(cs, cd, cost))
        return result.status, result.flow, result.objective, result.v, result.iterations

    # -- public API ---------------------------------------------------------------------
    def solve(self, problem: PlacementProblem) -> PlacementReport:
        """Solve one placement instance to optimality (or infeasibility).

        A pure function of ``problem`` and the engine's configuration:
        nothing is carried from one solve to the next.

        Parameters
        ----------
        problem : PlacementProblem
            Busy/candidate sets, loads, capacities and routing limits.

        Returns
        -------
        PlacementReport
            Status, objective β, assignments and per-phase timings.
            Each solve also reports into the ``placement.*`` metrics
            and (when tracing is on) records a ``placement.solve`` span
            with nested ``placement.trmin`` / ``placement.lp`` phases.
        """
        with trace_span(
            "placement.solve",
            busy=len(problem.busy),
            candidates=len(problem.candidates),
        ):
            report = self._solve_impl(problem)
        registry = get_registry()
        registry.counter("placement.solves").inc()
        if report.status is SolveStatus.INFEASIBLE:
            registry.counter("placement.infeasible").inc()
        registry.histogram("placement.trmin_seconds").observe(report.trmin_seconds)
        registry.histogram("placement.lp_seconds").observe(report.lp_seconds)
        registry.histogram("placement.total_seconds").observe(report.total_seconds)
        return report

    def _solve_impl(self, problem: PlacementProblem) -> PlacementReport:
        start = time.perf_counter()
        model = self._model_for(problem)
        m, n = len(problem.busy), len(problem.candidates)

        if m == 0:
            # No busy node: trivially optimal, nothing to place, and
            # spare capacity is worth nothing.
            return PlacementReport(
                status=SolveStatus.OPTIMAL,
                objective_beta=0.0,
                assignments=(),
                trmin_seconds=0.0,
                lp_seconds=0.0,
                total_seconds=time.perf_counter() - start,
                path_engine=model.engine,
                max_hops=problem.max_hops,
                total_excess=0.0,
                total_spare=problem.total_spare,
                capacity_duals=dict.fromkeys(problem.candidates, 0.0),
            )

        t0 = time.perf_counter()
        with trace_span("placement.trmin"):
            if n:
                trmin, hops, paths = self.trmin_engine.trmin_matrix(
                    problem.topology,
                    list(problem.busy),
                    list(problem.candidates),
                    problem.data_mb,
                    with_paths=self.with_routes,
                    model=model,
                )
            else:
                trmin = np.zeros((m, 0))
                hops = np.zeros((m, 0), dtype=int)
                paths = {}
        trmin_seconds = time.perf_counter() - t0

        t1 = time.perf_counter()
        duals = None
        pivots = 0
        with trace_span("placement.lp"):
            if n == 0:
                status, flow, beta = (
                    SolveStatus.INFEASIBLE,
                    np.zeros((m, 0)),
                    float("nan"),
                )
            else:
                status, flow, beta, duals, pivots = self._solve_lp(
                    trmin, problem.cs, problem.cd
                )
        lp_seconds = time.perf_counter() - t1

        assignments: List[PlacementAssignment] = []
        if status.is_optimal:
            for a in range(m):
                for b in range(n):
                    amount = float(flow[a, b])
                    if amount <= _FLOW_TOL:
                        continue
                    src, dst = problem.busy[a], problem.candidates[b]
                    assignments.append(
                        PlacementAssignment(
                            busy=src,
                            candidate=dst,
                            amount_pct=amount,
                            response_time_s=float(trmin[a, b]),
                            hops=int(hops[a, b]),
                            route=paths.get((src, dst)),
                        )
                    )

        return PlacementReport(
            status=status,
            objective_beta=float(beta) if status.is_optimal else float("nan"),
            assignments=tuple(assignments),
            trmin_seconds=trmin_seconds,
            lp_seconds=lp_seconds,
            total_seconds=time.perf_counter() - start,
            path_engine=model.engine,
            max_hops=problem.max_hops,
            total_excess=problem.total_excess,
            total_spare=problem.total_spare,
            capacity_duals=(
                {} if duals is None else dict(zip(problem.candidates, duals.tolist()))
            ),
            lp_iterations=pivots,
        )


class PlacementSession:
    # Only caller is benchmarks/e2e/workloads.py; deleted with that call
    # site in the next [benchmark] PR.
    def __init__(self, engine: PlacementEngine) -> None:
        self.engine = engine

    def solve(self, problem: PlacementProblem) -> PlacementReport:
        return self.engine.solve(problem)
