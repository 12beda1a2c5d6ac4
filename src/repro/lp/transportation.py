"""Exact transportation-problem solver (Vogel + array-tree MODI).

The DUST placement program (paper Eq. 3) is a *transportation problem*:

    minimize   sum_ij  c_ij x_ij          (c_ij = Trmin_ij)
    subject to sum_j   x_ij  = s_i        (ship all of Busy node i's Cs_i)
               sum_i   x_ij <= d_j        (candidate j's spare capacity Cd_j)
               x_ij >= 0

This module solves it directly: the demand inequality is balanced with a
dummy supply row that absorbs leftover destination capacity at zero
cost, the initial basic feasible solution comes from Vogel's
approximation (far fewer pivots than the north-west corner it
replaced), and optimality is reached with MODI (u/v multiplier)
iterations — the network-simplex specialization for bipartite
transportation graphs. Pairs with no admissible route (hop-bounded path
absent) are modeled with a Big-M cost and rejected post-hoc if they
carry flow.

The basis is a spanning tree of the bipartite supply/demand graph and
is represented with flat index arrays (``parent``/``depth``/per-node
basic cell) rather than per-iteration ``defaultdict`` BFS: reduced-cost
pricing is one vectorized matrix expression over the whole cost matrix,
and the pivot cycle is traced in O(tree depth) by walking parent
pointers from the entering cell's endpoints to their lowest common
ancestor.

Every solve is a pure function of its instance: the start is always
Vogel's, and nothing is carried from one call to the next. An optimal
solve also returns its final basis tree as a
:class:`TransportationBasis`; the zone presolve of
:mod:`repro.lp.distributed` reads its cells to seed the coordinator's
global tree.

Complexity per MODI iteration is Θ(m·n) for pricing plus O(m+n) for the
tree walk and O(depth) for the cycle pivot, far below the general dense
simplex — this is one of the repo's ablation axes
(``benchmarks/bench_ablation_lp.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.lp.result import Solution, SolveStatus
from repro.obs import get_registry, trace_span

_EPS = 1e-9
#: Relative optimality tolerance on reduced costs.
_OPT_TOL = 1e-7


@dataclass(frozen=True)
class TransportationProblem:
    """A (possibly unbalanced) transportation instance.

    Attributes
    ----------
    supply:
        ``s_i >= 0`` — amount each source must ship (equality).
    demand:
        ``d_j >= 0`` — capacity of each destination (inequality).
    cost:
        ``(m, n)`` unit shipping costs; ``np.inf`` marks forbidden lanes.
    """

    supply: np.ndarray
    demand: np.ndarray
    cost: np.ndarray

    def __post_init__(self) -> None:
        supply = np.asarray(self.supply, dtype=float)
        demand = np.asarray(self.demand, dtype=float)
        cost = np.asarray(self.cost, dtype=float)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "cost", cost)
        if cost.shape != (supply.size, demand.size):
            raise SolverError(
                f"cost shape {cost.shape} does not match "
                f"{supply.size} supplies x {demand.size} demands"
            )
        if (supply < -_EPS).any() or (demand < -_EPS).any():
            raise SolverError("supplies and demands must be non-negative")

    @property
    def num_sources(self) -> int:
        return self.supply.size

    @property
    def num_destinations(self) -> int:
        return self.demand.size


@dataclass(frozen=True)
class TransportationBasis:
    """The spanning tree an optimal solve ended on.

    ``cells`` live in *balanced* coordinates: row ``m`` (when ``dummy``)
    is the slack supply row absorbing spare destination capacity.
    """

    shape: Tuple[int, int]  # (m, n) of the real problem
    dummy: bool  # balanced instance carried a dummy supply row
    cells: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class TransportationResult:
    """Optimal flow for a :class:`TransportationProblem`."""

    status: SolveStatus
    flow: np.ndarray  # (m, n); zeros when not optimal
    objective: float
    iterations: int  # MODI pivots performed
    solve_time: float
    #: Final basis tree when optimal.
    basis: Optional[TransportationBasis] = None

    def to_solution(self, name_of: Optional[Sequence[Sequence[str]]] = None) -> Solution:
        """Convert to the generic :class:`~repro.lp.result.Solution`.

        ``name_of[i][j]`` supplies the variable name for lane (i, j);
        defaults to ``x_{i}_{j}``. The final basis rides along in
        ``Solution.basis``.
        """
        values: Dict[str, float] = {}
        if self.status.is_optimal:
            m, n = self.flow.shape
            for i in range(m):
                for j in range(n):
                    name = name_of[i][j] if name_of is not None else f"x_{i}_{j}"
                    values[name] = float(self.flow[i, j])
        return Solution(
            status=self.status,
            objective=self.objective if self.status.is_optimal else float("nan"),
            values=values,
            backend="transportation",
            iterations=self.iterations,
            solve_time=self.solve_time,
            basis=self.basis,
            total_pivots=self.iterations,
        )


# -- initial basis: Vogel's approximation ------------------------------------------


def _vogel_basis(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Vogel initial BFS on a *balanced* instance.

    Classic crossing-out scheme: each step commits the cheapest cell of
    the line (row or column) with the largest regret (gap between its
    two cheapest costs) and crosses out exactly one exhausted line, so
    the chosen cells always number ``m + n - 1`` and form a spanning
    tree — degenerate zero-flow cells included.
    """
    m, n = cost.shape
    s = supply.astype(float).copy()
    d = demand.astype(float).copy()
    work = cost.astype(float).copy()  # inf marks crossed-out lines
    row_active = np.ones(m, dtype=bool)
    col_active = np.ones(n, dtype=bool)
    flow = np.zeros((m, n))
    cells: List[Tuple[int, int]] = []

    def _penalties(matrix: np.ndarray, axis: int) -> np.ndarray:
        """Gap between the two smallest entries along ``axis`` (inf when
        fewer than two finite entries remain — such lines are forced)."""
        k = matrix.shape[axis]
        if k == 1:
            return matrix.min(axis=axis)
        two = np.partition(matrix, 1, axis=axis).take([0, 1], axis=axis)
        with np.errstate(invalid="ignore"):  # inf - inf on crossed-out lines
            return two.take(1, axis=axis) - two.take(0, axis=axis)

    for _ in range(m + n - 1):
        rows_left = int(row_active.sum())
        cols_left = int(col_active.sum())
        if rows_left == 0 or cols_left == 0:  # pragma: no cover - balance guard
            raise SolverError("Vogel crossed out all lines before spanning")
        row_pen = _penalties(work, axis=1)
        col_pen = _penalties(work, axis=0)
        row_pen = np.where(row_active, row_pen, -np.inf)
        col_pen = np.where(col_active, col_pen, -np.inf)
        # inf - inf from a fully crossed-out line would poison argmax.
        row_pen = np.nan_to_num(row_pen, nan=-np.inf)
        col_pen = np.nan_to_num(col_pen, nan=-np.inf)
        br, bc = int(np.argmax(row_pen)), int(np.argmax(col_pen))
        if row_pen[br] >= col_pen[bc]:
            i = br
            j = int(np.argmin(work[i]))
        else:
            j = bc
            i = int(np.argmin(work[:, j]))
        moved = min(s[i], d[j])
        flow[i, j] = moved
        cells.append((i, j))
        s[i] -= moved
        d[j] -= moved
        # Cross out exactly one line; `min` returns one operand bit-exact
        # so at least one side reaches 0.0 exactly.
        if s[i] <= _EPS and d[j] <= _EPS:
            if rows_left > 1:
                row_active[i] = False
                work[i, :] = np.inf
            else:
                col_active[j] = False
                work[:, j] = np.inf
        elif s[i] <= _EPS:
            if rows_left > 1:
                row_active[i] = False
                work[i, :] = np.inf
            else:  # last row must survive until every column is closed
                col_active[j] = False
                work[:, j] = np.inf
        else:
            if cols_left > 1:
                col_active[j] = False
                work[:, j] = np.inf
            else:
                row_active[i] = False
                work[i, :] = np.inf
    return flow, cells


# -- the basis tree ---------------------------------------------------------------


class _UnionFind:
    """Disjoint sets over tree nodes — how the distributed coordinator
    merges zone trees into one spanning tree without closing a cycle."""

    __slots__ = ("parent",)

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


class _BasisTree:
    """Spanning-tree basis over the bipartite supply/demand graph.

    Nodes are flat indices: row ``i`` is node ``i``, column ``j`` is
    node ``mb + j``. The tree is kept as parallel index arrays
    (``parent``, ``depth``, ``parent_cell``) refreshed with one O(m+n)
    pass per pivot; the pivot cycle itself is traced in O(depth) by
    climbing parent pointers. The centralized loop below and the
    distributed coordinator (:mod:`repro.lp.distributed`) both price
    with :meth:`potentials` and pivot with :meth:`pivot`.
    """

    __slots__ = ("mb", "n", "bi", "bj", "slot", "parent", "depth", "pcell", "order")

    def __init__(self, cells: Sequence[Tuple[int, int]], mb: int, n: int) -> None:
        if len(cells) != mb + n - 1:
            raise SolverError(
                f"basis has {len(cells)} cells, expected {mb + n - 1}"
            )
        self.mb = mb
        self.n = n
        self.bi = np.fromiter((c[0] for c in cells), dtype=np.int64, count=len(cells))
        self.bj = np.fromiter((c[1] for c in cells), dtype=np.int64, count=len(cells))
        self.slot = {cell: k for k, cell in enumerate(cells)}
        if len(self.slot) != len(cells):
            raise SolverError("duplicate cells in transportation basis")
        N = mb + n
        self.parent = np.empty(N, dtype=np.int64)
        self.depth = np.empty(N, dtype=np.int64)
        self.pcell = np.empty(N, dtype=np.int64)  # basis slot linking to parent
        self.order = np.empty(N, dtype=np.int64)  # BFS visit order (parents first)

    def refresh(self) -> None:
        """Rebuild parent/depth arrays from the current cell set (one
        O(m+n) BFS from row node 0)."""
        mb, n = self.mb, self.n
        N = mb + n
        adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(N)]
        for k in range(len(self.bi)):
            i, j = int(self.bi[k]), mb + int(self.bj[k])
            adjacency[i].append((j, k))
            adjacency[j].append((i, k))
        parent, depth, pcell, order = self.parent, self.depth, self.pcell, self.order
        parent.fill(-2)  # -2 = unvisited, -1 = root
        parent[0] = -1
        depth[0] = 0
        pcell[0] = -1
        order[0] = 0
        head, tail = 0, 1
        while head < tail:
            node = int(order[head])
            head += 1
            for nxt, k in adjacency[node]:
                if parent[nxt] == -2:
                    parent[nxt] = node
                    depth[nxt] = depth[node] + 1
                    pcell[nxt] = k
                    order[tail] = nxt
                    tail += 1
        if tail != N:
            raise SolverError("transportation basis is not a spanning tree")

    def potentials(self, slot_cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Solve ``u_i + v_j = c_ij`` over the tree in visit order, from
        ``slot_cost[k]`` — the cost of the cell in basis slot ``k``."""
        mb = self.mb
        u = np.empty(mb)
        v = np.empty(self.n)
        u[0] = 0.0
        bi, bj, pcell = self.bi, self.bj, self.pcell
        for node in self.order[1:]:
            k = pcell[node]
            i, j = int(bi[k]), int(bj[k])
            if node < mb:  # row node hangs off its column parent
                u[i] = slot_cost[k] - v[j]
            else:
                v[j] = slot_cost[k] - u[i]
        return u, v

    def cycle(self, ei: int, ej: int) -> List[Tuple[int, int]]:
        """Cells of the unique cycle closed by entering cell ``(ei, ej)``,
        in adjacency order starting at the entering cell (even positions
        gain flow, odd positions lose it). O(tree depth)."""
        mb = self.mb
        parent, depth, pcell = self.parent, self.depth, self.pcell
        a, b = ei, mb + ej
        side_a: List[int] = []  # basis slots from row endpoint up
        side_b: List[int] = []  # basis slots from column endpoint up
        while depth[a] > depth[b]:
            side_a.append(int(pcell[a]))
            a = int(parent[a])
        while depth[b] > depth[a]:
            side_b.append(int(pcell[b]))
            b = int(parent[b])
        while a != b:
            side_a.append(int(pcell[a]))
            a = int(parent[a])
            side_b.append(int(pcell[b]))
            b = int(parent[b])
        bi, bj = self.bi, self.bj
        path = [(int(bi[k]), int(bj[k])) for k in side_b]
        path.extend((int(bi[k]), int(bj[k])) for k in reversed(side_a))
        return [(ei, ej)] + path

    def pivot(self, ei: int, ej: int, flow) -> Tuple[int, int]:
        """Enter cell ``(ei, ej)`` and return the cell that leaves.

        ``flow`` maps cells to amounts — a dense matrix, or a dict
        holding every basic cell and the entering one. θ, the smallest
        flow on the cycle's losing cells, moves round the cycle; among
        the losing cells left at θ the ``(row, col)``-smallest leaves,
        with its flow set to 0.
        """
        cycle = self.cycle(ei, ej)
        minus = cycle[1::2]
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if abs(flow[c] - theta) <= _EPS)
        for pos, cell in enumerate(cycle):
            if pos % 2 == 0:
                flow[cell] += theta
            else:
                flow[cell] -= theta
        flow[leaving] = 0.0
        self.replace(leaving, (ei, ej))
        return leaving

    def replace(self, leaving: Tuple[int, int], entering: Tuple[int, int]) -> None:
        k = self.slot.pop(leaving)
        self.slot[entering] = k
        self.bi[k], self.bj[k] = entering
        self.refresh()

    def cells(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(zip(self.bi.tolist(), self.bj.tolist())))


# -- solver ------------------------------------------------------------------------


def solve_transportation(
    problem: TransportationProblem,
    max_iter: int = 100_000,
    big_m: Optional[float] = None,
) -> TransportationResult:
    """Solve to optimality with a Vogel start + MODI pivots.

    Parameters
    ----------
    problem : TransportationProblem
        Instance with equality supplies and ``<=`` demand capacities.
    max_iter : int, optional
        Safety bound on MODI pivots.
    big_m : float, optional
        Cost used for forbidden (infinite-cost) lanes; auto-scaled from
        the finite costs when omitted.

    Returns
    -------
    TransportationResult
        Optimal flow, objective, pivot count and solve time. Each solve
        also reports into the ``lp.transportation.*`` metrics and (when
        tracing is on) records an ``lp.transportation.solve`` span.
    """
    with trace_span(
        "lp.transportation.solve",
        rows=problem.num_sources,
        cols=problem.num_destinations,
    ):
        result = _solve_transportation_impl(problem, max_iter, big_m)
    registry = get_registry()
    registry.counter("lp.transportation.solves").inc()
    if result.iterations:
        registry.counter("lp.transportation.pivots").inc(result.iterations)
    registry.histogram("lp.transportation.solve_seconds").observe(result.solve_time)
    return result


def _solve_transportation_impl(
    problem: TransportationProblem,
    max_iter: int = 100_000,
    big_m: Optional[float] = None,
) -> TransportationResult:
    start = time.perf_counter()
    supply = problem.supply
    demand = problem.demand
    m, n = problem.num_sources, problem.num_destinations

    total_supply = float(supply.sum())
    total_demand = float(demand.sum())
    if m == 0 or total_supply <= _EPS:
        # Nothing to ship: trivially optimal zero flow.
        return TransportationResult(
            status=SolveStatus.OPTIMAL,
            flow=np.zeros((m, n)),
            objective=0.0,
            iterations=0,
            solve_time=time.perf_counter() - start,
        )
    if n == 0 or total_supply > total_demand + _EPS:
        return TransportationResult(
            status=SolveStatus.INFEASIBLE,
            flow=np.zeros((m, n)),
            objective=float("nan"),
            iterations=0,
            solve_time=time.perf_counter() - start,
        )

    cost = problem.cost.copy()
    forbidden = ~np.isfinite(cost)
    if big_m is None:
        finite = cost[~forbidden]
        base = float(finite.max()) if finite.size else 1.0
        big_m = (abs(base) + 1.0) * max(m, n) * 1e6
    cost[forbidden] = big_m

    # Balance with a dummy supply row absorbing spare destination capacity.
    slack = total_demand - total_supply
    if slack > _EPS:
        supply_b = np.concatenate([supply, [slack]])
        cost_b = np.vstack([cost, np.zeros((1, n))])
        forbidden_b = np.vstack([forbidden, np.zeros((1, n), dtype=bool)])
    else:
        supply_b = supply
        cost_b = cost
        forbidden_b = forbidden
    mb = supply_b.size

    flow_mat, cells = _vogel_basis(supply_b, demand, cost_b)
    tree = _BasisTree(cells, mb, n)
    tree.refresh()

    pivots = 0
    while True:
        u, v = tree.potentials(cost_b[tree.bi, tree.bj])
        reduced = cost_b - u[:, None] - v[None, :]
        # Basic cells price to 0 by construction; pin them so numerical
        # noise cannot re-select one as entering.
        reduced[tree.bi, tree.bj] = 0.0
        entering_flat = int(np.argmin(reduced))
        ei, ej = divmod(entering_flat, n)
        if reduced[ei, ej] >= -_OPT_TOL * (1.0 + abs(cost_b[ei, ej])):
            break  # optimal
        if pivots >= max_iter:
            return TransportationResult(
                status=SolveStatus.ITERATION_LIMIT,
                flow=np.zeros((m, n)),
                objective=float("nan"),
                iterations=pivots,
                solve_time=time.perf_counter() - start,
            )

        tree.pivot(ei, ej, flow_mat)
        pivots += 1

    solve_time = time.perf_counter() - start
    basis = TransportationBasis(shape=(m, n), dummy=slack > _EPS, cells=tree.cells())

    # Any flow on a forbidden lane means the real problem is infeasible.
    if (flow_mat[forbidden_b] > 1e-6).any():
        return TransportationResult(
            status=SolveStatus.INFEASIBLE,
            flow=np.zeros((m, n)),
            objective=float("nan"),
            iterations=pivots,
            solve_time=solve_time,
        )

    real_flow = np.maximum(flow_mat[:m], 0.0)
    objective = float((problem.cost[~forbidden] * real_flow[~forbidden]).sum())
    return TransportationResult(
        status=SolveStatus.OPTIMAL,
        flow=real_flow,
        objective=objective,
        iterations=pivots,
        solve_time=solve_time,
        basis=basis,
    )
