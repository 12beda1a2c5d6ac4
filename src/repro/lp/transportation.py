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
tree walk and O(depth) for the cycle pivot. The Vogel start sorts each row
once (O(m·n log n)); after that a step costs O(m) scalar work, each of
the at most m row crossings O(m·n + n log n) to re-rank the columns,
and all pointer walks together O(m·n) — no step rescans the matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.lp.result import SolveStatus
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
        # Written as `>=` so that NaN, which compares False, is rejected too.
        if not ((supply >= -_EPS).all() and (demand >= -_EPS).all()):
            raise SolverError("supplies and demands must be non-negative numbers")

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


# -- initial basis: Vogel's approximation ------------------------------------------


def _vogel_basis(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """Vogel initial BFS on a *balanced* instance with finite costs.

    Classic crossing-out scheme: each step commits the cheapest cell of
    the line (row or column) with the largest regret (gap between its
    two cheapest active costs) and crosses out exactly one exhausted
    line, so the chosen cells always number ``m + n - 1`` and form a
    spanning tree — degenerate zero-flow cells included. Ties go to the
    lowest index, and to a row over a column; with a single column
    (row) a row's (column's) regret is its one cost.

    Regrets are kept, not recomputed: a line's regret changes only when
    a line crossing it is crossed out. Each row is sorted once (stably,
    so its first active entry is the lowest-index cheapest); ``p1`` and
    ``p2`` point at its two cheapest active columns and only move
    forward. Column regrets span at most ``m`` entries and change only
    when a row is crossed out, so they are recomputed then and ranked
    once, and a pointer walks that ranking past crossed-out columns.

    The crossing rule never removes the last row or column, so until
    one row (of several) or one column (of several) is left every
    active line has two active cells and a finite regret. From then on
    every crossing line has one active cell — it is *forced* — and the
    remaining cells follow in index order (see the tail below).
    """
    m, n = cost.shape
    s, d = supply.tolist(), demand.tolist()
    flow = np.zeros((m, n))
    cells: List[Tuple[int, int]] = []

    def commit(i: int, j: int) -> None:
        moved = min(s[i], d[j])
        flow[i, j] = moved
        cells.append((i, j))
        s[i] -= moved
        d[j] -= moved

    order = np.argsort(cost, axis=1, kind="stable")
    rank = order.argsort(axis=1)  # rank[r][c]: position of column c in order[r]
    ranked = np.take_along_axis(cost, order, axis=1).tolist()
    order, rank = order.tolist(), rank.tolist()
    p1, p2 = [0] * m, [1] * m
    row_active, col_active = [True] * m, [True] * n

    def row_regret(r: int) -> float:
        if n == 1:
            return ranked[r][0]
        if p2[r] == n:  # forced: one column left, the tail takes over
            return np.inf
        return ranked[r][p2[r]] - ranked[r][p1[r]]

    cols = cost.T.copy()  # (n, m); inf marks crossed-out rows

    def rank_columns() -> Tuple[List[float], List[int], List[int]]:
        """Column regrets, columns by regret (descending, lowest index
        first on ties) and each column's cheapest active row."""
        if m == 1:
            regret = cols[:, 0]
        else:
            two = np.partition(cols, 1, axis=1)
            regret = two[:, 1] - two[:, 0]
        by_regret = np.argsort(-regret, kind="stable")
        return regret.tolist(), by_regret.tolist(), cols.argmin(axis=1).tolist()

    row_key = [row_regret(r) for r in range(m)]
    col_key, by_regret, col_best = rank_columns()
    top = 0  # by_regret[top] is the active column with the largest regret
    rows_left, cols_left = m, n
    steps = m + n - 1
    while len(cells) < steps and not (rows_left == 1 < m or cols_left == 1 < n):
        while not col_active[by_regret[top]]:
            top += 1
        bc = by_regret[top]
        br = max(range(m), key=row_key.__getitem__)
        if row_key[br] >= col_key[bc]:
            i, j = br, order[br][p1[br]]
        else:
            i, j = col_best[bc], bc
        commit(i, j)
        # Cross out exactly one line; `min` returns one operand bit-exact
        # so at least one side reaches 0.0 exactly. The last row survives
        # until every column is closed, and vice versa.
        if s[i] <= _EPS:
            cross_row = rows_left > 1
        else:
            cross_row = cols_left == 1
        if cross_row:
            rows_left -= 1
            row_active[i] = False
            row_key[i] = -np.inf
            cols[:, i] = np.inf
            col_key, by_regret, col_best = rank_columns()
            top = 0
            continue
        cols_left -= 1
        col_active[j] = False
        for r in range(m):
            q = rank[r][j]
            if row_active[r] and q <= p2[r]:  # j was one of r's two cheapest
                if q == p1[r]:
                    p1[r] = p2[r]
                b = p2[r] + 1
                while b < n and not col_active[order[r][b]]:
                    b += 1
                p2[r] = b
                row_key[r] = row_regret(r)
    # Tail. With one row left (m > 1) every active column is forced and
    # outranks the row's finite regret, so the lowest-index column is
    # taken and crossed out; with one column left (n > 1) every active
    # row is forced and rows win ties, so the lowest-index row is taken
    # and crossed out. Either way the rest is the active cells in order.
    for i in range(m):
        if row_active[i]:
            for j in range(n):
                if col_active[j]:
                    commit(i, j)
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
