"""Distributed transportation solve: zone subproblems + a thin price coordinator.

DUST's zones (:mod:`repro.core.zoning`) already fan route pricing out,
but a single manager still owns the whole placement LP — ROADMAP open
item 1. This module decomposes the Eq. 3 transportation solve across
*zone managers* in the spirit of the distributed transportation simplex
(Coutinho et al.) and ADMM-style consensus price exchange:

* each **zone** owns its busy rows (their supplies and full cost rows,
  i.e. the Trmin pricing work, which dominates wall-clock) and its
  candidate columns (their capacities). It solves its *local*
  subproblem — its busy rows against its own candidates — exactly,
  from the cost rows it holds, and afterwards only ever *prices* its
  rows against broadcast duals;
* a **thin coordinator** owns no cost matrix — just the global basis
  tree (``m + n + 1`` cells), the flows that tree carries, and the dual
  prices it implies. Per iteration it broadcasts boundary duals
  ``(u, v)``, collects each zone's most-violated lanes as *bids*,
  applies the winning pivots locally, and repeats until no zone can
  improve (exact optimum) or a certified duality gap bound is met.

The coordination loop is exactly a transportation simplex with
distributed candidate-list pricing, so the converged objective equals
the centralized :func:`repro.lp.transportation.solve_transportation`
optimum — not approximately, but as the same LP optimum reached by a
different pivot order. On top of that, every round carries a certified
*Lagrangian lower bound* assembled from per-zone row minima under the
consensus capacity prices ``λ_j = max(0, -v_j)``, so early termination
at a bounded relative gap (``gap_tol``) is available when exactness is
not worth the extra rounds.

Balanced coordinates: the real ``m × n`` problem gains a *dummy supply
row* ``m`` (absorbing spare capacity at zero cost) and an *artificial
column* ``n`` (absorbing unplaceable load at Big-M cost), both owned by
the coordinator — this guarantees a valid starting tree even before any
zone reports, and makes infeasibility show up as artificial flow, the
same post-hoc detection the centralized solver applies to forbidden
lanes.

Message schemas (:class:`ZoneProfile`, :class:`PriceUpdate`,
:class:`LaneBids`, :class:`FlowAssignment`) are frozen dataclasses with
explicit epochs, so the protocol is idempotent under duplication, loss
and reordering — the networked driver in
:mod:`repro.simulation.distributed` runs these rounds over a
:class:`~repro.simulation.network_sim.FaultyNetwork` and message loss
degrades to retransmissions and extra rounds, never to a wrong answer.
The full protocol specification, state machine and a worked k=4
example live in ``docs/distributed_solve.md``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.lp.result import SolveStatus
from repro.lp.transportation import (
    TransportationProblem,
    _BasisTree,
    _UnionFind,
    solve_transportation,
)
from repro.obs import get_registry, trace_span

__all__ = [
    "DistributedSolveResult",
    "FlowAssignment",
    "LaneBids",
    "PriceUpdate",
    "ZoneProfile",
    "ZoneWorker",
    "DistributedCoordinator",
    "extract_zone_subproblems",
    "run_protocol",
    "solve_distributed",
]

_EPS = 1e-9
#: Same relative reduced-cost tolerance as the centralized solver.
_OPT_TOL = 1e-7
#: Flow on a forbidden lane / the artificial column above this means
#: the real problem is infeasible (mirrors the centralized check).
_FLOW_TOL = 1e-6

#: Accepted price-coordination rules (see :class:`DistributedCoordinator`).
PRICE_RULES = ("block", "dantzig")


# -- protocol messages -------------------------------------------------------------


@dataclass(frozen=True)
class ZoneProfile:
    """Phase-1 report: one zone's subproblem shape and local presolve.

    Parameters
    ----------
    zone_id : int
        Stable identifier of the reporting zone.
    rows : tuple of int
        Global busy-row indices this zone owns (disjoint across zones).
    cols : tuple of int
        Global candidate-column indices this zone owns.
    supplies : tuple of float
        ``s_i`` per entry of ``rows`` (same order).
    capacities : tuple of float
        ``d_j`` per entry of ``cols`` (same order).
    max_finite_cost : float
        Largest finite cost in the zone's rows; the coordinator derives
        the global Big-M from the max over zones. ``0.0`` for a zone
        with no finite lane.
    basis_cells : tuple of (int, int, float)
        Spanning-tree cells ``(row, col, cost)`` of the zone's local
        presolve, in *global* coordinates (local dummy
        rows dropped; ``inf`` costs mark forbidden lanes). The
        coordinator merges these into the initial global basis so the
        price iterations start near the local optima.
    local_objective : float
        Objective of the local presolve (``nan`` when skipped).
    local_feasible : bool
        Whether the zone could place its own load within its own
        candidates — ``False`` zones are exactly the ones that need
        cross-zone lanes.
    """

    zone_id: int
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    supplies: Tuple[float, ...]
    capacities: Tuple[float, ...]
    max_finite_cost: float
    basis_cells: Tuple[Tuple[int, int, float], ...] = ()
    local_objective: float = float("nan")
    local_feasible: bool = True


@dataclass(frozen=True)
class PriceUpdate:
    """Coordinator → zone: boundary duals for one pricing epoch.

    Parameters
    ----------
    epoch : int
        Monotonic round number; a zone answers each epoch at most once
        and the coordinator discards bids from stale epochs, which
        makes the exchange idempotent under duplication and reordering.
    u : tuple of float
        Supply potentials for the *receiving zone's* rows only (the
        update is tailored per zone; rows are in the zone's
        ``profile.rows`` order).
    v : tuple of float
        Capacity potentials for all real columns, in global order.
        ``λ_j = max(0, -v_j)`` is the consensus capacity price used
        for the Lagrangian bound.
    big_m : float
        Global cost for forbidden (no-route) lanes, shared by every
        zone so reduced costs are comparable.
    max_bids : int
        Price-coordination rule knob: how many improving lanes the
        zone may bid this epoch (1 under the ``dantzig`` rule, a block
        under ``block``).
    terminate : bool
        True on the final update: the zone should stop pricing and
        await its :class:`FlowAssignment`.
    """

    epoch: int
    u: Tuple[float, ...]
    v: Tuple[float, ...]
    big_m: float
    max_bids: int = 16
    terminate: bool = False


@dataclass(frozen=True)
class LaneBids:
    """Zone → coordinator: the zone's most-violated lanes for an epoch.

    Parameters
    ----------
    zone_id, epoch : int
        Echo of the :class:`PriceUpdate` being answered.
    bids : tuple of (int, int, float, bool)
        Up to ``max_bids`` cells ``(row, col, cost, forbidden)`` whose
        reduced cost ``c_ij - u_i - v_j`` is negative beyond tolerance,
        most negative first. Empty when the zone's rows are fully
        priced out — the zone votes "converged".
    best_reduced : float
        The zone's most negative raw reduced cost (``0.0`` when none).
    lower_bound_term : float
        ``Σ_i s_i · min_j (c_ij + λ_j)`` over the zone's rows — its
        additive share of the global Lagrangian lower bound under the
        epoch's consensus prices.
    """

    zone_id: int
    epoch: int
    bids: Tuple[Tuple[int, int, float, bool], ...] = ()
    best_reduced: float = 0.0
    lower_bound_term: float = 0.0


@dataclass(frozen=True)
class FlowAssignment:
    """Coordinator → zone: the zone's rows of the converged global flow.

    Parameters
    ----------
    zone_id, epoch : int
        Addressee and the terminal epoch.
    status : SolveStatus
        Terminal status of the global solve.
    flows : tuple of (int, int, float)
        ``(row, col, amount)`` for every positive flow leaving one of
        the zone's busy rows (global coordinates; empty when the solve
        did not end optimal).
    objective : float
        Global objective (``nan`` when not optimal).
    gap : float
        Final certified relative duality gap.
    """

    zone_id: int
    epoch: int
    status: SolveStatus
    flows: Tuple[Tuple[int, int, float], ...] = ()
    objective: float = float("nan")
    gap: float = float("nan")


# -- results -----------------------------------------------------------------------


@dataclass(frozen=True)
class DistributedSolveResult:
    """Outcome of one distributed transportation solve.

    Attributes
    ----------
    status : SolveStatus
        ``OPTIMAL`` (converged; ``gap`` certifies how tightly),
        ``INFEASIBLE`` (load left on artificial/forbidden lanes) or
        ``ITERATION_LIMIT`` (round/pivot budget exhausted).
    flow : numpy.ndarray
        ``(m, n)`` optimal flow in the original coordinates (zeros
        when not optimal).
    objective : float
        Global objective; matches the centralized solver's optimum.
    gap : float
        Certified relative duality gap ``(UB - LB) / max(1, |UB|)`` at
        termination (``0.0``-ish at exact optimality).
    rounds : int
        Price-exchange epochs run.
    pivots : int
        Coordinator pivots applied across all rounds.
    bids_received : int
        Lane bids accepted from zones (stale ones excluded).
    zone_count : int
        Number of participating zones.
    messages : int
        Protocol messages exchanged (profiles + updates + bids +
        assignments) by the in-process driver; the networked driver
        reports its own (larger, loss-inflated) count.
    local_objective : float
        Sum of feasible zones' presolve objectives — the "no
        cross-zone lanes" baseline the price iterations improve on.
    coordinator_seconds : float
        Wall time spent in coordinator-side merge/pivot work.
    zone_seconds : dict of int to float
        Wall time per zone (presolve + all pricing calls).
    critical_path_seconds : float
        Modeled parallel wall-clock: coordinator time plus the slowest
        zone — zones price concurrently in a real deployment, the same
        reading as ``ZonedPlacementReport.max_zone_seconds``.
    """

    status: SolveStatus
    flow: np.ndarray
    objective: float
    gap: float
    rounds: int
    pivots: int
    bids_received: int
    zone_count: int
    messages: int
    local_objective: float = float("nan")
    coordinator_seconds: float = 0.0
    zone_seconds: Dict[int, float] = field(default_factory=dict)
    critical_path_seconds: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.status.is_optimal


# -- zone side ---------------------------------------------------------------------


class ZoneWorker:
    """One zone manager's side of the distributed solve.

    Owns the zone's busy rows — their supplies and *full-width* cost
    rows (every candidate column, so cross-zone lanes can be priced) —
    plus the capacities of the zone's own candidate columns. All the
    Θ(m_z·n) pricing work happens here; the coordinator never sees a
    cost matrix. The worker keeps nothing from one solve to the next:
    :meth:`profile` presolves the local block from ``cost_rows`` every
    time it is called.

    Parameters
    ----------
    zone_id : int
        Stable zone identifier.
    rows : sequence of int
        Global busy-row indices owned by this zone.
    cols : sequence of int
        Global candidate-column indices owned by this zone.
    cost_rows : numpy.ndarray
        ``(len(rows), n)`` costs of the zone's rows against *all*
        ``n`` global columns; ``inf`` marks forbidden lanes.
    supplies : sequence of float
        ``s_i`` per row (``rows`` order).
    capacities : sequence of float
        ``d_j`` per owned column (``cols`` order).
    """

    def __init__(
        self,
        zone_id: int,
        rows: Sequence[int],
        cols: Sequence[int],
        cost_rows: np.ndarray,
        supplies: Sequence[float],
        capacities: Sequence[float],
    ) -> None:
        self.zone_id = int(zone_id)
        self.rows = tuple(int(r) for r in rows)
        self.cols = tuple(int(c) for c in cols)
        self.cost_rows = np.asarray(cost_rows, dtype=float)
        self.supplies = np.asarray(supplies, dtype=float)
        self.capacities = np.asarray(capacities, dtype=float)
        if self.cost_rows.shape[0] != len(self.rows):
            raise SolverError(
                f"zone {zone_id}: cost_rows has {self.cost_rows.shape[0]} rows, "
                f"expected {len(self.rows)}"
            )
        if self.supplies.shape != (len(self.rows),):
            raise SolverError(f"zone {zone_id}: supplies shape mismatch")
        if self.capacities.shape != (len(self.cols),):
            raise SolverError(f"zone {zone_id}: capacities shape mismatch")
        self.seconds = 0.0
        self.final_flows: Tuple[Tuple[int, int, float], ...] = ()
        self.final_status: Optional[SolveStatus] = None

    # -- phase 1: local presolve ---------------------------------------------------
    def _local_presolve(self) -> Tuple[Tuple, float, bool]:
        """Solve the zone-local block (own rows × own cols) exactly.

        A zone whose load exceeds its own spare capacity solves a
        supply-clipped variant instead — the point of the presolve is a
        good starting *tree*, and the global iterations restore the
        full supplies immediately.
        """
        m_z, n_z = len(self.rows), len(self.cols)
        if m_z == 0 or n_z == 0 or float(self.supplies.sum()) <= _EPS:
            return (), float("nan"), n_z > 0 or m_z == 0
        local_cost = self.cost_rows[:, list(self.cols)]
        supplies = self.supplies
        total_s, total_d = float(supplies.sum()), float(self.capacities.sum())
        feasible_shape = total_s <= total_d + _EPS
        if not feasible_shape:
            if total_d <= _EPS:
                return (), float("nan"), False
            supplies = supplies * (total_d / total_s) * (1.0 - 1e-12)
        result = solve_transportation(
            TransportationProblem(supplies, self.capacities, local_cost)
        )
        if result.basis is None:
            return (), float("nan"), False
        cells: List[Tuple[int, int, float]] = []
        for i, j in result.basis.cells:
            if i >= m_z:  # local dummy row — coordinator has its own
                continue
            cells.append(
                (self.rows[i], self.cols[j], float(local_cost[i, j]))
            )
        feasible = feasible_shape and result.status.is_optimal
        objective = result.objective if result.status.is_optimal else float("nan")
        return tuple(cells), objective, feasible

    def profile(self) -> ZoneProfile:
        """Build the zone's :class:`ZoneProfile` (runs the presolve)."""
        start = time.perf_counter()
        cells, objective, feasible = self._local_presolve()
        finite = self.cost_rows[np.isfinite(self.cost_rows)]
        profile = ZoneProfile(
            zone_id=self.zone_id,
            rows=self.rows,
            cols=self.cols,
            supplies=tuple(float(s) for s in self.supplies),
            capacities=tuple(float(d) for d in self.capacities),
            max_finite_cost=float(finite.max()) if finite.size else 0.0,
            basis_cells=cells,
            local_objective=objective,
            local_feasible=feasible,
        )
        self.seconds += time.perf_counter() - start
        return profile

    # -- iteration: pricing ----------------------------------------------------------
    def price(self, update: PriceUpdate) -> LaneBids:
        """Price this zone's rows against broadcast duals; bid violations.

        Parameters
        ----------
        update : PriceUpdate
            The epoch's duals — ``u`` tailored to this zone's rows,
            ``v`` global.

        Returns
        -------
        LaneBids
            Up to ``update.max_bids`` most-violated lanes plus the
            zone's Lagrangian lower-bound share. Re-pricing the same
            epoch returns an identical answer (pure function of the
            update), which is what makes retransmission safe.
        """
        start = time.perf_counter()
        m_z = len(self.rows)
        if m_z == 0:
            return LaneBids(zone_id=self.zone_id, epoch=update.epoch)
        u = np.asarray(update.u, dtype=float)
        v = np.asarray(update.v, dtype=float)
        forbidden = ~np.isfinite(self.cost_rows)
        cost = np.where(forbidden, update.big_m, self.cost_rows)
        reduced = cost - u[:, None] - v[None, :]
        lam = np.maximum(0.0, -v)
        lower = float((self.supplies * (cost + lam[None, :]).min(axis=1)).sum())
        violating = reduced < -_OPT_TOL * (1.0 + np.abs(cost))
        bids: List[Tuple[int, int, float, bool]] = []
        best = 0.0
        if violating.any():
            flat = np.flatnonzero(violating.ravel())
            order = flat[np.argsort(reduced.ravel()[flat])]
            best = float(reduced.ravel()[order[0]])
            n = self.cost_rows.shape[1]
            for idx in order[: max(1, int(update.max_bids))]:
                a, b = divmod(int(idx), n)
                bids.append(
                    (self.rows[a], int(b), float(cost[a, b]), bool(forbidden[a, b]))
                )
        self.seconds += time.perf_counter() - start
        return LaneBids(
            zone_id=self.zone_id,
            epoch=update.epoch,
            bids=tuple(bids),
            best_reduced=best,
            lower_bound_term=lower,
        )

    def accept(self, assignment: FlowAssignment) -> None:
        """Record the final flows for this zone's rows (idempotent)."""
        self.final_flows = assignment.flows
        self.final_status = assignment.status


# -- coordinator -------------------------------------------------------------------


def _sparse_tree_flows(
    cells: Sequence[Tuple[int, int]],
    mb: int,
    nb: int,
    supply_b: np.ndarray,
    demand_b: np.ndarray,
) -> Optional[Dict[Tuple[int, int], float]]:
    """Leaf-elimination flows of a spanning tree, without a dense matrix.

    Returns ``None`` when the tree would need a negative flow (the
    merged zone bases don't fit the global balance), in which case the
    coordinator falls back to its trivial artificial basis.
    """
    N = mb + nb
    adjacency: List[List[int]] = [[] for _ in range(N)]
    for idx, (i, j) in enumerate(cells):
        adjacency[i].append(idx)
        adjacency[mb + j].append(idx)
    degree = np.fromiter((len(a) for a in adjacency), dtype=np.int64, count=N)
    remaining = np.concatenate([supply_b, demand_b]).astype(float)
    done = np.zeros(len(cells), dtype=bool)
    flow: Dict[Tuple[int, int], float] = {}
    leaves = deque(int(x) for x in np.flatnonzero(degree == 1))
    while leaves:
        node = leaves.popleft()
        if degree[node] != 1:
            continue
        edge = next((e for e in adjacency[node] if not done[e]), None)
        if edge is None:
            continue
        i, j = cells[edge]
        other = mb + j if node == i else i
        amount = remaining[node]
        if amount < -_FLOW_TOL:
            return None
        flow[(i, j)] = max(0.0, amount)
        remaining[node] = 0.0
        remaining[other] -= amount
        done[edge] = True
        degree[node] -= 1
        degree[other] -= 1
        if degree[other] == 1:
            leaves.append(int(other))
    if not done.all():
        return None
    if (np.abs(remaining) > _FLOW_TOL).any():
        return None
    return flow


class DistributedCoordinator:
    """The thin coordinator: basis tree, flows and duals — no costs.

    State is O(m + n): the balanced spanning tree (``m + n + 1``
    cells), the flow each basic cell carries, the cost of each *basic*
    cell (reported by the bidding zone), and the duals the tree
    implies. The dummy supply row ``m`` (cost 0) and the Big-M
    artificial column ``n`` are coordinator-owned, so it can price its
    own rows/columns without any zone traffic.

    Parameters
    ----------
    price_rule : str
        ``"block"`` (default): zones bid up to ``max_bids`` lanes per
        epoch and the coordinator applies every still-improving one —
        few rounds, slightly more speculative bids. ``"dantzig"``:
        classic most-negative single bid per zone per epoch.
    gap_tol : float, optional
        Early-termination bound on the certified relative duality gap.
        ``None`` (default) iterates to exact optimality (no zone can
        bid an improving lane).
    max_rounds : int
        Safety bound on price-exchange epochs.
    max_pivots : int
        Safety bound on total pivots (mirrors the centralized
        ``max_iter``).
    max_bids : int
        Block size under the ``block`` rule.
    """

    def __init__(
        self,
        price_rule: str = "block",
        gap_tol: Optional[float] = None,
        max_rounds: int = 10_000,
        max_pivots: int = 100_000,
        max_bids: int = 16,
    ) -> None:
        if price_rule not in PRICE_RULES:
            raise SolverError(
                f"unknown price_rule {price_rule!r}; expected one of {PRICE_RULES}"
            )
        self.price_rule = price_rule
        self.gap_tol = gap_tol
        self.max_rounds = max_rounds
        self.max_pivots = max_pivots
        self.max_bids = 1 if price_rule == "dantzig" else max_bids
        self._profiles: Dict[int, ZoneProfile] = {}
        self.epoch = -1
        self.rounds = 0
        self.pivots = 0
        self.bids_received = 0
        self.stale_bids = 0
        self.seconds = 0.0
        self.converged = False
        self.status: Optional[SolveStatus] = None
        self.upper_bound = float("nan")
        self.lower_bound = float("nan")
        self.gap = float("nan")
        self._epoch_bids: Dict[int, LaneBids] = {}
        self._tree: Optional[_BasisTree] = None
        self._flow: Dict[Tuple[int, int], float] = {}
        self._cost: Dict[Tuple[int, int], float] = {}
        self._forbidden: set = set()
        self._slot_cost: Optional[np.ndarray] = None
        self._u: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None
        self._epoch_v: Optional[np.ndarray] = None

    # -- setup ---------------------------------------------------------------------
    def register(self, profile: ZoneProfile) -> None:
        """Accept one zone's :class:`ZoneProfile` (idempotent per zone)."""
        self._profiles[profile.zone_id] = profile

    def initialize(self) -> None:
        """Assemble the global balanced instance from registered profiles.

        Validates that rows and columns partition across zones, derives
        the shared Big-M, merges the zones' presolve trees into the
        initial global basis (completed with coordinator-owned dummy /
        artificial cells), and computes the starting flows. Trivial and
        up-front-infeasible instances short-circuit here.
        """
        start = time.perf_counter()
        profiles = [self._profiles[z] for z in sorted(self._profiles)]
        rows: Dict[int, float] = {}
        cols: Dict[int, float] = {}
        for p in profiles:
            for r, s in zip(p.rows, p.supplies):
                if r in rows:
                    raise SolverError(f"row {r} owned by more than one zone")
                rows[r] = float(s)
            for c, d in zip(p.cols, p.capacities):
                if c in cols:
                    raise SolverError(f"column {c} owned by more than one zone")
                cols[c] = float(d)
        m, n = len(rows), len(cols)
        if sorted(rows) != list(range(m)) or sorted(cols) != list(range(n)):
            raise SolverError("zone rows/cols must partition 0..m-1 / 0..n-1")
        self.m, self.n = m, n
        self.supply = np.array([rows[i] for i in range(m)], dtype=float)
        self.demand = np.array([cols[j] for j in range(n)], dtype=float)
        total_s, total_d = float(self.supply.sum()), float(self.demand.sum())

        if m == 0 or total_s <= _EPS:
            self.converged, self.status = True, SolveStatus.OPTIMAL
            self.upper_bound = self.lower_bound = 0.0
            self.gap = 0.0
            self.seconds += time.perf_counter() - start
            return
        if n == 0 or total_s > total_d + _EPS:
            self.converged, self.status = True, SolveStatus.INFEASIBLE
            self.seconds += time.perf_counter() - start
            return

        base = max((p.max_finite_cost for p in profiles), default=1.0)
        self.big_m = (abs(base) + 1.0) * max(m, n) * 1e6
        self.art_cost = self.big_m
        self.mb, self.nb = m + 1, n + 1
        self.supply_b = np.concatenate([self.supply, [total_d]])
        self.demand_b = np.concatenate([self.demand, [total_s]])

        # Merge zone presolve trees; complete with coordinator cells.
        uf = _UnionFind(self.mb + self.nb)
        cells: List[Tuple[int, int]] = []
        for p in profiles:
            for i, j, cost in p.basis_cells:
                if 0 <= i < m and 0 <= j < n and uf.union(i, self.mb + j):
                    cells.append((i, j))
                    self._record_cost(i, j, cost)
        for j in range(n):  # dummy row reaches every real column
            if uf.union(m, self.mb + j):
                cells.append((m, j))
        for i in range(m):  # leftover rows hang off the artificial column
            if uf.union(i, self.mb + n):
                cells.append((i, n))
        if uf.union(m, self.mb + n):
            cells.append((m, n))
        flow = None
        if len(cells) == self.mb + self.nb - 1:
            flow = _sparse_tree_flows(
                cells, self.mb, self.nb, self.supply_b, self.demand_b
            )
        if flow is None:
            # Trivial artificial basis — always feasible, costs known.
            cells = [(i, n) for i in range(m)] + [(m, j) for j in range(n)]
            cells.append((m, n))
            flow = {(i, n): float(self.supply[i]) for i in range(m)}
            flow.update({(m, j): float(self.demand[j]) for j in range(n)})
            flow[(m, n)] = 0.0
        self._flow = flow
        self._tree = _BasisTree(cells, self.mb, self.nb)
        self._tree.refresh()
        self._slot_cost = np.array(
            [self._cell_cost(int(bi), int(bj))
             for bi, bj in zip(self._tree.bi, self._tree.bj)]
        )
        self._refresh_potentials()
        self.seconds += time.perf_counter() - start

    def _record_cost(self, i: int, j: int, cost: float) -> None:
        if np.isfinite(cost):
            self._cost[(i, j)] = float(cost)
        else:
            self._cost[(i, j)] = self.big_m
            self._forbidden.add((i, j))

    def _cell_cost(self, i: int, j: int) -> float:
        if i == self.m:
            return 0.0
        if j == self.n:
            return self.art_cost
        return self._cost[(i, j)]

    # -- duals ---------------------------------------------------------------------
    def _refresh_potentials(self) -> None:
        """Recompute ``u_i + v_j = c_ij`` over the tree (O(m + n))."""
        tree = self._tree
        u = np.empty(self.mb)
        v = np.empty(self.nb)
        u[0] = 0.0
        bi, bj, pcell, slot_cost = tree.bi, tree.bj, tree.pcell, self._slot_cost
        for node in tree.order[1:]:
            k = pcell[node]
            i, j = int(bi[k]), int(bj[k])
            if node < self.mb:
                u[i] = slot_cost[k] - v[j]
            else:
                v[j] = slot_cost[k] - u[i]
        # Normalize against the dummy row's zero-cost outside option:
        # reduced costs only see u_i + v_j (shift-invariant), but this
        # anchoring makes λ_j = max(0, -v_j) the true capacity dual, so
        # the Lagrangian gap closes to ~0 at optimality.
        shift = u[self.m]
        u -= shift
        v += shift
        self._u, self._v = u, v

    # -- iteration -----------------------------------------------------------------
    def price_updates(self) -> Dict[int, PriceUpdate]:
        """Open the next epoch: tailored :class:`PriceUpdate` per zone."""
        start = time.perf_counter()
        self.epoch += 1
        self.rounds += 1
        self._epoch_bids = {}
        u, v = self._u, self._v
        self._epoch_v = v.copy()
        updates = {
            p.zone_id: PriceUpdate(
                epoch=self.epoch,
                u=tuple(float(u[i]) for i in p.rows),
                v=tuple(float(x) for x in v[: self.n]),
                big_m=self.big_m,
                max_bids=self.max_bids,
            )
            for p in self._profiles.values()
        }
        self.seconds += time.perf_counter() - start
        return updates

    def submit(self, bids: LaneBids) -> bool:
        """Accept one zone's bids; stale or duplicate epochs are dropped.

        Returns
        -------
        bool
            True when the bids were accepted for the current epoch.
        """
        if bids.epoch != self.epoch or bids.zone_id in self._epoch_bids:
            self.stale_bids += 1
            return False
        self._epoch_bids[bids.zone_id] = bids
        self.bids_received += len(bids.bids)
        return True

    @property
    def epoch_complete(self) -> bool:
        """All zones answered the current epoch."""
        return len(self._epoch_bids) == len(self._profiles)

    def step(self) -> bool:
        """Close the epoch: apply pivots, update the certified gap.

        Every bid cell is re-checked against the *current* duals before
        entering (cells go stale as earlier pivots shift prices), and
        the coordinator scans its own dummy-row / artificial-column
        lanes the same way. Termination is decided here.

        Returns
        -------
        bool
            True while iteration must continue (another epoch is
            needed); False once converged or out of budget.
        """
        if self.converged:
            return False
        if not self.epoch_complete:
            raise SolverError("step() before every zone answered the epoch")
        start = time.perf_counter()
        bids = sorted(self._epoch_bids.values(), key=lambda b: b.zone_id)
        zone_improving = any(b.bids for b in bids)
        candidates: List[Tuple[int, int]] = []
        for b in bids:
            for i, j, cost, forbidden in b.bids:
                cell = (int(i), int(j))
                self._cost[cell] = float(cost)
                if forbidden:
                    self._forbidden.add(cell)
                candidates.append(cell)

        applied = 0
        while self.pivots < self.max_pivots:
            cell = self._best_entering(candidates)
            if cell is None:
                break
            self._pivot(*cell)
            applied += 1

        # Certified Lagrangian gap under this epoch's consensus prices
        # (the broadcast duals — the zones' lower-bound terms used the
        # same λ, so the bound stays valid after this round's pivots).
        lam = np.maximum(0.0, -self._epoch_v[: self.n])
        lower = sum(b.lower_bound_term for b in bids) - float(
            (lam * self.demand).sum()
        )
        upper, clean = self._objective()
        self.lower_bound = lower
        if clean:
            self.upper_bound = upper
            self.gap = max(0.0, upper - lower) / max(1.0, abs(upper))

        if not zone_improving and applied == 0:
            self.converged = True
            self.status = self._terminal_status()
        elif (
            self.gap_tol is not None
            and clean
            and np.isfinite(self.gap)
            and self.gap <= self.gap_tol
        ):
            self.converged = True
            self.status = self._terminal_status()
        elif self.rounds >= self.max_rounds or self.pivots >= self.max_pivots:
            self.converged = True
            self.status = SolveStatus.ITERATION_LIMIT
        self.seconds += time.perf_counter() - start
        return not self.converged

    def _best_entering(self, candidates: List[Tuple[int, int]]) -> Optional[Tuple[int, int]]:
        u, v = self._u, self._v
        best_cell, best_red = None, 0.0
        for cell in candidates:
            if cell in self._tree.slot:
                continue
            c = self._cost[cell]
            red = c - u[cell[0]] - v[cell[1]]
            if red < -_OPT_TOL * (1.0 + abs(c)) and red < best_red:
                best_cell, best_red = cell, red
        # Coordinator-owned lanes: dummy row (cost 0) and artificial column.
        dummy_red = -u[self.m] - v[: self.n]
        j = int(np.argmin(dummy_red))
        if dummy_red[j] < -_OPT_TOL and dummy_red[j] < best_red:
            if (self.m, j) not in self._tree.slot:
                best_cell, best_red = (self.m, j), float(dummy_red[j])
        art_red = self.art_cost - u[: self.m] - v[self.n]
        i = int(np.argmin(art_red))
        if art_red[i] < -_OPT_TOL * (1.0 + self.art_cost) and art_red[i] < best_red:
            if (i, self.n) not in self._tree.slot:
                best_cell, best_red = (i, self.n), float(art_red[i])
        # (dummy, artificial): cost-0 escape hatch that lets the dummy
        # absorb artificial flow — without it the solve can stall at a
        # fake optimum with load stranded on the Big-M column.
        corner_red = -u[self.m] - v[self.n]
        if corner_red < -_OPT_TOL and corner_red < best_red:
            if (self.m, self.n) not in self._tree.slot:
                best_cell, best_red = (self.m, self.n), float(corner_red)
        return best_cell

    def _pivot(self, ei: int, ej: int) -> None:
        cycle = self._tree.cycle(ei, ej)
        minus = cycle[1::2]
        theta = min(self._flow[c] for c in minus)
        leaving = min(
            (c for c in minus if abs(self._flow[c] - theta) <= _EPS),
            key=lambda c: (c[0], c[1]),
        )
        for pos, cell in enumerate(cycle):
            if pos % 2 == 0:
                self._flow[cell] = self._flow.get(cell, 0.0) + theta
            else:
                self._flow[cell] -= theta
        self._flow.pop(leaving, None)
        self._flow.setdefault((ei, ej), 0.0)
        self._tree.replace(leaving, (ei, ej))
        k = self._tree.slot[(ei, ej)]
        self._slot_cost[k] = self._cell_cost(ei, ej)
        self._refresh_potentials()
        self.pivots += 1

    def _objective(self) -> Tuple[float, bool]:
        """(objective over real lanes, flows-are-clean flag)."""
        total = 0.0
        clean = True
        for (i, j), amount in self._flow.items():
            if amount <= _FLOW_TOL:
                continue
            if i == self.m:
                continue  # dummy row: spare capacity, costless
            if j == self.n or (i, j) in self._forbidden:
                clean = False
                continue
            total += self._cost[(i, j)] * amount
        return total, clean

    def _terminal_status(self) -> SolveStatus:
        _, clean = self._objective()
        return SolveStatus.OPTIMAL if clean else SolveStatus.INFEASIBLE

    # -- drain ---------------------------------------------------------------------
    def assignments(self) -> Dict[int, FlowAssignment]:
        """Terminal :class:`FlowAssignment` per zone (idempotent)."""
        if not self.converged:
            raise SolverError("assignments() before convergence")
        status = self.status
        objective, _ = self._objective()
        if status is not SolveStatus.OPTIMAL:
            objective = float("nan")
        per_zone: Dict[int, List[Tuple[int, int, float]]] = {
            z: [] for z in self._profiles
        }
        if status is SolveStatus.OPTIMAL and self._tree is not None:
            owner = {}
            for p in self._profiles.values():
                for r in p.rows:
                    owner[r] = p.zone_id
            for (i, j), amount in self._flow.items():
                if i < self.m and j < self.n and amount > _FLOW_TOL:
                    per_zone[owner[i]].append((i, j, float(amount)))
        return {
            z: FlowAssignment(
                zone_id=z,
                epoch=self.epoch,
                status=status,
                flows=tuple(sorted(per_zone[z])),
                objective=objective,
                gap=self.gap if status is SolveStatus.OPTIMAL else float("nan"),
            )
            for z in self._profiles
        }

    def result(self) -> Tuple[SolveStatus, np.ndarray, float]:
        """(status, dense real flow, objective) of the converged solve."""
        if not self.converged:
            raise SolverError("result() before convergence")
        status = self.status
        flow = np.zeros((getattr(self, "m", 0), getattr(self, "n", 0)))
        objective = float("nan")
        if status is SolveStatus.OPTIMAL:
            if self._tree is not None:
                for (i, j), amount in self._flow.items():
                    if i < self.m and j < self.n and amount > _FLOW_TOL:
                        flow[i, j] = amount
            objective, _ = self._objective()
        return status, flow, objective


# -- drivers -----------------------------------------------------------------------


def extract_zone_subproblems(
    problem: TransportationProblem,
    zone_rows: Sequence[Sequence[int]],
    zone_cols: Sequence[Sequence[int]],
) -> List[ZoneWorker]:
    """Slice a global instance into per-zone :class:`ZoneWorker` objects.

    Parameters
    ----------
    problem : TransportationProblem
        The global instance (``inf`` marks forbidden lanes).
    zone_rows : sequence of sequences of int
        ``zone_rows[z]`` — global row indices owned by zone ``z``.
        Must partition ``0..m-1``.
    zone_cols : sequence of sequences of int
        ``zone_cols[z]`` — global column indices owned by zone ``z``.
        Must partition ``0..n-1``. Same length as ``zone_rows``.

    Returns
    -------
    list of ZoneWorker
        One worker per zone, each holding its full-width cost rows.
    """
    if len(zone_rows) != len(zone_cols):
        raise SolverError("zone_rows and zone_cols must have the same length")
    workers: List[ZoneWorker] = []
    for z, (rows, cols) in enumerate(zip(zone_rows, zone_cols)):
        rows = [int(r) for r in rows]
        cols = [int(c) for c in cols]
        workers.append(
            ZoneWorker(
                zone_id=z,
                rows=rows,
                cols=cols,
                cost_rows=problem.cost[rows, :],
                supplies=problem.supply[rows],
                capacities=problem.demand[cols],
            )
        )
    return workers


def solve_distributed(
    problem: TransportationProblem,
    zone_rows: Sequence[Sequence[int]],
    zone_cols: Sequence[Sequence[int]],
    price_rule: str = "block",
    gap_tol: Optional[float] = None,
    max_rounds: int = 10_000,
    max_bids: int = 16,
    workers: Optional[Sequence[ZoneWorker]] = None,
) -> DistributedSolveResult:
    """Solve a transportation instance with the distributed protocol.

    In-process driver: zones and coordinator run in one process with
    direct calls (the networked, fault-tolerant driver lives in
    :mod:`repro.simulation.distributed`). The converged objective
    equals :func:`~repro.lp.transportation.solve_transportation` on the
    same instance — the decomposition changes who does the work, not
    the optimum.

    Parameters
    ----------
    problem : TransportationProblem
        Global instance with equality supplies and capacity demands.
    zone_rows, zone_cols : sequence of sequences of int
        Row/column ownership per zone (partitions of ``0..m-1`` /
        ``0..n-1``; see :func:`extract_zone_subproblems`).
    price_rule : str
        ``"block"`` or ``"dantzig"`` — see
        :class:`DistributedCoordinator`.
    gap_tol : float, optional
        Early-termination bound on the certified relative duality gap;
        ``None`` iterates to exact optimality.
    max_rounds : int
        Safety bound on price-exchange epochs.
    max_bids : int
        Bids per zone per epoch under the ``block`` rule.
    workers : sequence of ZoneWorker, optional
        Pre-built zone workers; built from the problem slices when
        omitted.

    Returns
    -------
    DistributedSolveResult
        Converged status/flow/objective plus protocol statistics
        (rounds, pivots, certified gap, per-zone seconds). Also
        reports into the ``dsolve.*`` metrics.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.lp import TransportationProblem
    >>> from repro.lp.distributed import solve_distributed
    >>> problem = TransportationProblem(
    ...     supply=np.array([4.0, 2.0]),
    ...     demand=np.array([5.0, 5.0]),
    ...     cost=np.array([[1.0, 3.0], [2.0, 1.0]]),
    ... )
    >>> result = solve_distributed(problem, [[0], [1]], [[0], [1]])
    >>> result.status.name, round(result.objective, 6)
    ('OPTIMAL', 6.0)
    """
    with trace_span(
        "dsolve.solve",
        rows=problem.num_sources,
        cols=problem.num_destinations,
        zones=len(zone_rows),
    ):
        if workers is None:
            workers = extract_zone_subproblems(problem, zone_rows, zone_cols)
        return run_protocol(
            workers,
            price_rule=price_rule,
            gap_tol=gap_tol,
            max_rounds=max_rounds,
            max_bids=max_bids,
        )


def run_protocol(
    workers: Sequence[ZoneWorker],
    price_rule: str = "block",
    gap_tol: Optional[float] = None,
    max_rounds: int = 10_000,
    max_bids: int = 16,
) -> DistributedSolveResult:
    """Run the full protocol over pre-built zone workers, in-process.

    The loop :func:`solve_distributed` delegates to, exposed for
    callers that build their own :class:`ZoneWorker` objects (the core
    layer builds them from the Trmin rows each zone priced). Every
    worker presolves its local block here, through
    :meth:`ZoneWorker.profile`. Publishes the ``dsolve.*`` metrics.

    Parameters
    ----------
    workers : sequence of ZoneWorker
        One worker per zone; together they must own partitions of the
        global rows and columns.
    price_rule, gap_tol, max_rounds, max_bids
        As on :func:`solve_distributed`.

    Returns
    -------
    DistributedSolveResult
        Converged status/flow/objective plus protocol statistics.
    """
    coordinator = DistributedCoordinator(
        price_rule=price_rule,
        gap_tol=gap_tol,
        max_rounds=max_rounds,
        max_bids=max_bids,
    )
    messages = 0
    profiles = [w.profile() for w in workers]
    local_objective = float(
        sum(p.local_objective for p in profiles
            if p.local_feasible and np.isfinite(p.local_objective))
    )
    for p in profiles:
        coordinator.register(p)
        messages += 1
    coordinator.initialize()
    by_id = {w.zone_id: w for w in workers}
    while not coordinator.converged:
        updates = coordinator.price_updates()
        messages += len(updates)
        for zone_id, update in updates.items():
            coordinator.submit(by_id[zone_id].price(update))
            messages += 1
        if not coordinator.step():
            break
    for zone_id, assignment in coordinator.assignments().items():
        by_id[zone_id].accept(assignment)
        messages += 1
    status, flow, objective = coordinator.result()
    zone_seconds = {w.zone_id: w.seconds for w in workers}
    slowest = max(zone_seconds.values()) if zone_seconds else 0.0
    registry = get_registry()
    registry.counter("dsolve.solves").inc()
    registry.counter("dsolve.rounds").inc(coordinator.rounds)
    registry.counter("dsolve.pivots").inc(coordinator.pivots)
    registry.counter("dsolve.bids").inc(coordinator.bids_received)
    if np.isfinite(coordinator.gap):
        registry.gauge("dsolve.last_gap").set(coordinator.gap)
    registry.histogram("dsolve.solve_seconds").observe(
        coordinator.seconds + sum(zone_seconds.values())
    )
    return DistributedSolveResult(
        status=status,
        flow=flow,
        objective=objective,
        gap=coordinator.gap,
        rounds=coordinator.rounds,
        pivots=coordinator.pivots,
        bids_received=coordinator.bids_received,
        zone_count=len(workers),
        messages=messages,
        local_objective=local_objective,
        coordinator_seconds=coordinator.seconds,
        zone_seconds=zone_seconds,
        critical_path_seconds=coordinator.seconds + slowest,
    )
