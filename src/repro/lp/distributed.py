"""Distributed transportation solve: zone subproblems + a thin price coordinator.

DUST's zones (:mod:`repro.core.zoning`) already fan route pricing out;
this module also splits the Eq. 3 transportation solve across *zone
managers*, in the spirit of the distributed transportation simplex
(Coutinho et al.):

* each **zone** owns its busy rows (their supplies and full cost rows,
  i.e. the Trmin pricing work, which dominates wall-clock) and its
  candidate columns (their capacities). It solves its *local*
  subproblem — its busy rows against its own candidates — exactly,
  from the cost rows it holds, and afterwards only ever *prices* its
  rows against the coordinator's duals;
* a **thin coordinator** owns no cost matrix — just the global basis
  tree (``m + n + 1`` cells), the flows that tree carries, and the dual
  prices it implies. Each round it hands the duals ``(u, v)`` to every
  zone, collects each zone's most-violated lanes as *bids*, applies the
  winning pivots, and repeats until no zone bids and the coordinator
  finds no pivot of its own (exact optimum).

:func:`run_protocol` runs that loop in one process. It is exactly a
transportation simplex with candidate-list pricing split across zones,
so the converged objective equals the centralized
:func:`repro.lp.transportation.solve_transportation` optimum — not
approximately, but as the same LP optimum reached by a different pivot
order. Both solvers share one tree core and one pricing rule: zones bid
the lanes that pass the centralized improving-lane test, and the
coordinator enters the centralized solver's choice among the bids and
its own lanes, then pivots with the same :meth:`_BasisTree.pivot`.

Balanced coordinates: the real ``m × n`` problem gains a *dummy supply
row* ``m`` (absorbing spare capacity at zero cost) and an *artificial
column* ``n`` (absorbing unplaceable load at Big-M cost), both owned by
the coordinator — this guarantees a valid starting tree even before any
zone reports, and makes infeasibility show up as artificial flow, the
same post-hoc detection the centralized solver applies to forbidden
lanes. The protocol and a worked k=4 example live in
``docs/distributed_solve.md``.
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
    _FLOW_TOL,
    _MAX_PIVOTS,
    TransportationProblem,
    _BasisTree,
    _best_entering,
    _big_m,
    _check_instance,
    _improving,
    _UnionFind,
    solve_transportation,
)
from repro.obs import get_registry

__all__ = [
    "DistributedSolveResult",
    "ZoneProfile",
    "ZoneWorker",
    "DistributedCoordinator",
    "run_protocol",
]

#: Most-violated lanes a zone bids per round.
_BLOCK_BIDS = 16
#: A solve still running after this many rounds (or the centralized
#: solver's pivot cap) ends ``ITERATION_LIMIT``.
_MAX_ROUNDS = 10_000


# -- zone report -------------------------------------------------------------------


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


# -- results -----------------------------------------------------------------------


@dataclass(frozen=True)
class DistributedSolveResult:
    """Outcome of one distributed transportation solve.

    Attributes
    ----------
    status : SolveStatus
        ``OPTIMAL`` (converged: no lane prices below zero),
        ``INFEASIBLE`` (load left on artificial/forbidden lanes) or
        ``ITERATION_LIMIT`` (round/pivot budget exhausted).
    flow : numpy.ndarray
        ``(m, n)`` optimal flow in the original coordinates (zeros
        when not optimal).
    objective : float
        Global objective; matches the centralized solver's optimum.
    rounds : int
        Price-exchange rounds run.
    pivots : int
        Coordinator pivots applied across all rounds.
    bids_received : int
        Lane bids received from zones.
    zone_count : int
        Number of participating zones.
    messages : int
        Zone↔coordinator exchanges the protocol stands for: per zone a
        profile, a duals/bids pair per round and a final assignment,
        ``zone_count × (2 + 2·rounds)``.
    coordinator_seconds : float
        Wall time spent in coordinator-side merge/pivot work.
    zone_seconds : dict of int to float
        Wall time per zone (presolve + all pricing calls).
    u, v : numpy.ndarray or None
        The coordinator's final duals over the ``m`` real rows and
        ``n`` real columns when optimal (``None`` otherwise), anchored
        on the dummy row (with nothing to ship, each row's ``u`` comes
        from its zone): the same certificate as
        :class:`~repro.lp.transportation.TransportationResult`'s.
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
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None

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
        _check_instance(self.supplies, self.capacities, self.cost_rows)
        self.seconds = 0.0

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
    def price(
        self, u: np.ndarray, v: np.ndarray, big_m: float
    ) -> Tuple[Tuple[int, int, float, bool], ...]:
        """Price this zone's rows against the coordinator's duals: ``u``
        over its rows (``rows`` order), ``v`` over all ``n`` real columns,
        and ``big_m``, the cost of a forbidden lane shared by every zone.

        Returns up to 16 bids ``(row, col, cost, forbidden)`` that pass
        the centralized improving-lane test, most negative first; none
        once the zone's rows are priced out.
        """
        start = time.perf_counter()
        forbidden = ~np.isfinite(self.cost_rows)
        cost = np.where(forbidden, big_m, self.cost_rows)
        reduced = cost - u[:, None] - v[None, :]
        violating = _improving(reduced, cost)
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
        return tuple(bids)


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
    degree = [len(a) for a in adjacency]
    remaining = supply_b.tolist() + demand_b.tolist()
    done = [False] * len(cells)
    flow: Dict[Tuple[int, int], float] = {}
    leaves = deque(x for x in range(N) if degree[x] == 1)
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
            leaves.append(other)
    if not all(done):
        return None
    if any(abs(r) > _FLOW_TOL for r in remaining):
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

    Each round, zones bid up to 16 lanes each against :meth:`duals`
    and :meth:`step` applies every still-improving one. The solve ends
    ``OPTIMAL`` (or ``INFEASIBLE``) on the first round with no zone bid
    and no coordinator pivot, or ``ITERATION_LIMIT`` after 10 000
    rounds or 100 000 pivots.

    Attributes
    ----------
    rounds, pivots, bids_received : int
        Rounds stepped, pivots applied and bids received so far.
    big_m : float
        Cost of a forbidden lane, shared with every zone's pricing
        (set by :meth:`initialize` unless the solve ends there).
    seconds : float
        Wall time spent in coordinator work.
    converged : bool
        True once the solve has ended, with its verdict in ``status``.
    """

    def __init__(self) -> None:
        self._profiles: Dict[int, ZoneProfile] = {}
        self.rounds = 0
        self.pivots = 0
        self.bids_received = 0
        self.seconds = 0.0
        self.converged = False
        self.status: Optional[SolveStatus] = None
        self._tree: Optional[_BasisTree] = None
        self._flow: Dict[Tuple[int, int], float] = {}
        self._cost: Dict[Tuple[int, int], float] = {}
        self._forbidden: set = set()
        self._slot_cost: Optional[np.ndarray] = None
        self._u: Optional[np.ndarray] = None
        self._v: Optional[np.ndarray] = None

    # -- setup ---------------------------------------------------------------------
    def register(self, profile: ZoneProfile) -> None:
        """Accept one zone's :class:`ZoneProfile` (one per zone id)."""
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
            # Nothing to ship: free capacity is worth nothing (v = 0), and
            # run_protocol takes each row's u from the zone that owns it.
            self.converged, self.status = True, SolveStatus.OPTIMAL
            self._u, self._v = np.zeros(m + 1), np.zeros(n + 1)
            self.seconds += time.perf_counter() - start
            return
        if n == 0 or total_s > total_d + _EPS:
            self.converged, self.status = True, SolveStatus.INFEASIBLE
            self.seconds += time.perf_counter() - start
            return

        base = max((p.max_finite_cost for p in profiles), default=1.0)
        self.big_m = _big_m(base, m, n)
        self.mb, self.nb = m + 1, n + 1
        # Own lanes (row, col, cost), priced after the bids: the dummy row,
        # the artificial column, then the cost-0 (dummy, artificial) corner
        # that lets the dummy absorb load stranded on the Big-M column.
        self._own = np.array([
            np.r_[np.full(n, m), np.arange(m), m],
            np.r_[np.arange(n), np.full(m, n), n],
            np.r_[np.zeros(n), np.full(m, self.big_m), 0.0],
        ])
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
            return self.big_m
        return self._cost[(i, j)]

    # -- duals ---------------------------------------------------------------------
    def _refresh_potentials(self) -> None:
        """Re-derive ``u_i + v_j = c_ij`` for the nodes the last pivot
        re-hung (all of them after :meth:`initialize`)."""
        u, v = self._tree.potentials(self._slot_cost)
        # Anchor on the dummy row's zero-cost outside option, so -v_j
        # reads as column j's capacity price. Reduced costs only see
        # u_i + v_j, so the shift changes no pricing decision.
        shift = u[self.m]
        u -= shift
        v += shift
        self._u, self._v = u, v

    # -- iteration -----------------------------------------------------------------
    def duals(self) -> Tuple[np.ndarray, np.ndarray]:
        """The current potentials the zones price against: ``u`` over
        every row (a zone reads its own rows), ``v`` over the ``n`` real
        columns."""
        return self._u, self._v[: self.n]

    def step(self, bids: Sequence[Tuple[int, int, float, bool]]) -> bool:
        """Close one round: apply pivots, then test for termination.

        Before every pivot the bids and the coordinator's own lanes are
        priced against the *current* duals (earlier pivots shift prices)
        and the centralized rule picks the entering lane. Termination is
        decided here.

        Parameters
        ----------
        bids : sequence of (int, int, float, bool)
            Every zone's :meth:`ZoneWorker.price` answer to the current
            :meth:`duals`, concatenated in zone-id order.

        Returns
        -------
        bool
            True while iteration must continue (another round is
            needed); False once converged or out of budget.
        """
        if self.converged:
            return False
        start = time.perf_counter()
        self.rounds += 1
        self.bids_received += len(bids)
        for i, j, cost, forbidden in bids:
            cell = (int(i), int(j))
            self._cost[cell] = float(cost)
            if forbidden:
                self._forbidden.add(cell)
        bid = np.array([b[:3] for b in bids], dtype=float).reshape(-1, 3)
        lanes = np.concatenate([bid.T, self._own], axis=1)
        lane_i, lane_j = lanes[:2].astype(np.int64)
        lane_cost = lanes[2]

        applied = 0
        while self.pivots < _MAX_PIVOTS:
            reduced = lane_cost - self._u[lane_i] - self._v[lane_j]
            k = _best_entering(reduced, lane_cost)
            # A basic lane prices 0 but for rounding: pin it and choose again.
            while k >= 0 and (int(lane_i[k]), int(lane_j[k])) in self._tree.slot:
                reduced[k] = 0.0
                k = _best_entering(reduced, lane_cost)
            if k < 0:
                break
            self._pivot(int(lane_i[k]), int(lane_j[k]))
            applied += 1

        if not bids and applied == 0:
            self.converged = True
            self.status = self._terminal_status()
        elif self.rounds >= _MAX_ROUNDS or self.pivots >= _MAX_PIVOTS:
            self.converged = True
            self.status = SolveStatus.ITERATION_LIMIT
        self.seconds += time.perf_counter() - start
        return not self.converged

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

    def result(self) -> Tuple[SolveStatus, np.ndarray, float]:
        """(status, dense real flow, objective) of the converged solve."""
        if not self.converged:
            raise SolverError("result() before convergence")
        status = self.status
        flow = np.zeros((self.m, self.n))
        objective = float("nan")
        if status is SolveStatus.OPTIMAL:
            for (i, j), amount in self._flow.items():
                if i < self.m and j < self.n and amount > _FLOW_TOL:
                    flow[i, j] = amount
            objective, _ = self._objective()
        return status, flow, objective


# -- drivers -----------------------------------------------------------------------


def run_protocol(workers: Sequence[ZoneWorker]) -> DistributedSolveResult:
    """Run the distributed solve over pre-built zone workers, in-process.

    Every worker presolves its local block (:meth:`ZoneWorker.profile`)
    and the coordinator merges the profiles into one basis. Each round
    then hands the coordinator's duals to every zone's
    :meth:`ZoneWorker.price` in zone-id order and the concatenated bids
    to :meth:`DistributedCoordinator.step`, until it converges or runs
    out of budget. Publishes the ``dsolve.*`` metrics.

    Parameters
    ----------
    workers : sequence of ZoneWorker
        One worker per zone; together they must own partitions of the
        global rows and columns (the core layer builds them from the
        Trmin rows each zone priced).

    Returns
    -------
    DistributedSolveResult
        Converged status/flow/objective plus protocol statistics.
    """
    coordinator = DistributedCoordinator()
    for worker in workers:
        coordinator.register(worker.profile())
    coordinator.initialize()
    zones = sorted(workers, key=lambda w: w.zone_id)
    while not coordinator.converged:
        u, v = coordinator.duals()
        bids = [
            bid
            for worker in zones
            for bid in worker.price(u[list(worker.rows)], v, coordinator.big_m)
        ]
        coordinator.step(bids)
    status, flow, objective = coordinator.result()
    u = v = None
    if status is SolveStatus.OPTIMAL:
        u, v = coordinator.duals()
        u = u[: coordinator.m].copy()
        if not coordinator.rounds:  # nothing shipped: u as the centralized solver's
            for worker in workers:
                cheapest = worker.cost_rows.min(axis=1, initial=np.inf)
                u[list(worker.rows)] = np.minimum(cheapest, 0.0)
    zone_seconds = {w.zone_id: w.seconds for w in workers}
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
        messages=len(workers) * (2 + 2 * coordinator.rounds),
        coordinator_seconds=coordinator.seconds,
        zone_seconds=zone_seconds,
        u=u,
        v=v,
    )
