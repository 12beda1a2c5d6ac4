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
  applies the winning pivots locally, and repeats until no zone bids
  and the coordinator finds no pivot of its own (exact optimum).

The coordination loop is exactly a transportation simplex with
distributed candidate-list pricing, so the converged objective equals
the centralized :func:`repro.lp.transportation.solve_transportation`
optimum — not approximately, but as the same LP optimum reached by a
different pivot order. Both solvers share one tree core: the
coordinator prices with :meth:`_BasisTree.potentials` and pivots with
:meth:`_BasisTree.pivot`, the same calls the centralized loop makes,
and stops on the same reduced-cost test.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.lp.result import SolveStatus
from repro.lp.transportation import (
    _EPS,
    _OPT_TOL,
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
    "finish_solve",
    "run_protocol",
    "solve_distributed",
]

#: Flow on a forbidden lane / the artificial column above this means
#: the real problem is infeasible (mirrors the centralized check).
_FLOW_TOL = 1e-6
#: Most-violated lanes a zone bids per epoch.
_BLOCK_BIDS = 16
#: Bounded-time guards: a solve still running after this many epochs
#: or pivots ends ``ITERATION_LIMIT``.
_MAX_ROUNDS = 10_000
_MAX_PIVOTS = 100_000


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
    """

    zone_id: int
    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    supplies: Tuple[float, ...]
    capacities: Tuple[float, ...]
    max_finite_cost: float
    basis_cells: Tuple[Tuple[int, int, float], ...] = ()


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
    big_m : float
        Global cost for forbidden (no-route) lanes, shared by every
        zone so reduced costs are comparable.
    """

    epoch: int
    u: Tuple[float, ...]
    v: Tuple[float, ...]
    big_m: float


@dataclass(frozen=True)
class LaneBids:
    """Zone → coordinator: the zone's most-violated lanes for an epoch.

    Parameters
    ----------
    zone_id, epoch : int
        Echo of the :class:`PriceUpdate` being answered.
    bids : tuple of (int, int, float, bool)
        Up to 16 cells ``(row, col, cost, forbidden)`` whose reduced
        cost ``c_ij - u_i - v_j`` is negative beyond tolerance, most
        negative first. Empty when the zone's rows are fully priced
        out — the zone votes "converged".
    """

    zone_id: int
    epoch: int
    bids: Tuple[Tuple[int, int, float, bool], ...] = ()


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
    """

    zone_id: int
    epoch: int
    status: SolveStatus
    flows: Tuple[Tuple[int, int, float], ...] = ()
    objective: float = float("nan")


# -- results -----------------------------------------------------------------------


@dataclass(frozen=True)
class DistributedSolveResult:
    """Outcome of one distributed transportation solve.

    Attributes
    ----------
    status : SolveStatus
        ``OPTIMAL`` (converged: no lane prices below zero),
        ``INFEASIBLE`` (load left on artificial/forbidden lanes) or
        ``ITERATION_LIMIT`` (round/pivot budget or deadline exhausted).
    flow : numpy.ndarray
        ``(m, n)`` optimal flow in the original coordinates (zeros
        when not optimal).
    objective : float
        Global objective; matches the centralized solver's optimum.
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
    rounds: int
    pivots: int
    bids_received: int
    zone_count: int
    messages: int
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
    def _local_presolve(self) -> Tuple[Tuple[int, int, float], ...]:
        """Solve the zone-local block (own rows × own cols) exactly and
        return its basis cells in global coordinates.

        A zone whose load exceeds its own spare capacity solves a
        supply-clipped variant instead — the point of the presolve is a
        good starting *tree*, and the global iterations restore the
        full supplies immediately.
        """
        m_z, n_z = len(self.rows), len(self.cols)
        if m_z == 0 or n_z == 0 or float(self.supplies.sum()) <= _EPS:
            return ()
        local_cost = self.cost_rows[:, list(self.cols)]
        supplies = self.supplies
        total_s, total_d = float(supplies.sum()), float(self.capacities.sum())
        if total_s > total_d + _EPS:
            if total_d <= _EPS:
                return ()
            supplies = supplies * (total_d / total_s) * (1.0 - 1e-12)
        result = solve_transportation(
            TransportationProblem(supplies, self.capacities, local_cost)
        )
        if result.basis is None:
            return ()
        return tuple(
            (self.rows[i], self.cols[j], float(local_cost[i, j]))
            for i, j in result.basis.cells
            if i < m_z  # local dummy row — coordinator has its own
        )

    def profile(self) -> ZoneProfile:
        """Build the zone's :class:`ZoneProfile` (runs the presolve)."""
        start = time.perf_counter()
        cells = self._local_presolve()
        finite = self.cost_rows[np.isfinite(self.cost_rows)]
        profile = ZoneProfile(
            zone_id=self.zone_id,
            rows=self.rows,
            cols=self.cols,
            supplies=tuple(float(s) for s in self.supplies),
            capacities=tuple(float(d) for d in self.capacities),
            max_finite_cost=float(finite.max()) if finite.size else 0.0,
            basis_cells=cells,
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
            Up to 16 most-violated lanes. Re-pricing the same epoch
            returns an identical answer (pure function of the update),
            which is what makes retransmission safe.
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
        violating = reduced < -_OPT_TOL * (1.0 + np.abs(cost))
        bids: List[Tuple[int, int, float, bool]] = []
        if violating.any():
            flat = np.flatnonzero(violating.ravel())
            order = flat[np.argsort(reduced.ravel()[flat])]
            n = self.cost_rows.shape[1]
            for idx in order[:_BLOCK_BIDS]:
                a, b = divmod(int(idx), n)
                bids.append(
                    (self.rows[a], int(b), float(cost[a, b]), bool(forbidden[a, b]))
                )
        self.seconds += time.perf_counter() - start
        return LaneBids(zone_id=self.zone_id, epoch=update.epoch, bids=tuple(bids))

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

    Each epoch, zones bid up to 16 lanes and the coordinator applies
    every still-improving one. The solve ends ``OPTIMAL`` (or
    ``INFEASIBLE``) on the first epoch with no zone bid and no
    coordinator pivot, or ``ITERATION_LIMIT`` after 10 000 epochs or
    100 000 pivots.

    Attributes
    ----------
    epoch : int
        Current epoch (``-1`` before the first :meth:`price_updates`).
    rounds, pivots, bids_received : int
        Epochs opened, pivots applied and bids accepted so far.
    seconds : float
        Wall time spent in coordinator work.
    converged : bool
        True once the solve has ended, with its verdict in ``status``.
    """

    def __init__(self) -> None:
        self._profiles: Dict[int, ZoneProfile] = {}
        self.epoch = -1
        self.rounds = 0
        self.pivots = 0
        self.bids_received = 0
        self.seconds = 0.0
        self.converged = False
        self.status: Optional[SolveStatus] = None
        self._epoch_bids: Dict[int, LaneBids] = {}
        self._tree: Optional[_BasisTree] = None
        self._flow: Dict[Tuple[int, int], float] = {}
        self._cost: Dict[Tuple[int, int], float] = {}
        self._forbidden: set = set()
        self._slot_cost: Optional[np.ndarray] = None
        self._u: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

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
        u, v = self._tree.potentials(self._slot_cost)
        # Anchor on the dummy row's zero-cost outside option, so -v_j
        # reads as column j's capacity price. Reduced costs only see
        # u_i + v_j, so the shift changes no pricing decision.
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
        updates = {
            p.zone_id: PriceUpdate(
                epoch=self.epoch,
                u=tuple(float(u[i]) for i in p.rows),
                v=tuple(float(x) for x in v[: self.n]),
                big_m=self.big_m,
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
            return False
        self._epoch_bids[bids.zone_id] = bids
        self.bids_received += len(bids.bids)
        return True

    @property
    def epoch_complete(self) -> bool:
        """All zones answered the current epoch."""
        return len(self._epoch_bids) == len(self._profiles)

    def step(self) -> bool:
        """Close the epoch: apply pivots, then test for termination.

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
        while self.pivots < _MAX_PIVOTS:
            cell = self._best_entering(candidates)
            if cell is None:
                break
            self._pivot(*cell)
            applied += 1

        if not zone_improving and applied == 0:
            self.converged = True
            self.status = self._terminal_status()
        elif self.rounds >= _MAX_ROUNDS or self.pivots >= _MAX_PIVOTS:
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
        self._flow[(ei, ej)] = 0.0
        del self._flow[self._tree.pivot(ei, ej, self._flow)]
        self._slot_cost[self._tree.slot[(ei, ej)]] = self._cell_cost(ei, ej)
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

    Returns
    -------
    DistributedSolveResult
        Converged status/flow/objective plus protocol statistics
        (rounds, pivots, per-zone seconds). Also reports into the
        ``dsolve.*`` metrics.

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
        return run_protocol(extract_zone_subproblems(problem, zone_rows, zone_cols))


def run_protocol(workers: Sequence[ZoneWorker]) -> DistributedSolveResult:
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

    Returns
    -------
    DistributedSolveResult
        Converged status/flow/objective plus protocol statistics.
    """
    coordinator = DistributedCoordinator()
    messages = 0
    for worker in workers:
        coordinator.register(worker.profile())
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
    return finish_solve(coordinator, workers, messages)


def finish_solve(
    coordinator: DistributedCoordinator,
    workers: Sequence[ZoneWorker],
    messages: int,
    gave_up: bool = False,
) -> DistributedSolveResult:
    """Publish one solve's ``dsolve.*`` metrics and build its result.

    Shared by the in-process and networked drivers.

    Parameters
    ----------
    coordinator : DistributedCoordinator
        The solve's coordinator, converged unless ``gave_up``.
    workers : sequence of ZoneWorker
        The solve's zones (their pricing seconds are reported).
    messages : int
        Protocol messages the driver exchanged.
    gave_up : bool
        The solve was abandoned before convergence (the networked
        driver's ``deadline_s``): report ``ITERATION_LIMIT`` with a
        zero flow.

    Returns
    -------
    DistributedSolveResult
    """
    if gave_up:
        m = sum(len(w.rows) for w in workers)
        n = max((w.cost_rows.shape[1] for w in workers), default=0)
        status, flow, objective = (
            SolveStatus.ITERATION_LIMIT, np.zeros((m, n)), float("nan")
        )
    else:
        status, flow, objective = coordinator.result()
    zone_seconds = {w.zone_id: w.seconds for w in workers}
    slowest = max(zone_seconds.values()) if zone_seconds else 0.0
    registry = get_registry()
    registry.counter("dsolve.solves").inc()
    registry.counter("dsolve.rounds").inc(coordinator.rounds)
    registry.counter("dsolve.pivots").inc(coordinator.pivots)
    registry.counter("dsolve.bids").inc(coordinator.bids_received)
    registry.histogram("dsolve.solve_seconds").observe(
        coordinator.seconds + sum(zone_seconds.values())
    )
    return DistributedSolveResult(
        status=status,
        flow=flow,
        objective=objective,
        rounds=coordinator.rounds,
        pivots=coordinator.pivots,
        bids_received=coordinator.bids_received,
        zone_count=len(workers),
        messages=messages,
        coordinator_seconds=coordinator.seconds,
        zone_seconds=zone_seconds,
        critical_path_seconds=coordinator.seconds + slowest,
    )
