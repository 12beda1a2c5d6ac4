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
absent) are modeled with a Big-M cost, scaled by the largest |c_ij| over
the finite lanes, and rejected post-hoc if they carry flow.

Both Eq.-3 solvers share the rules written here once: the improving-lane
test, the entering choice, the Big-M cost, the pivot cap and the
forbidden-flow tolerance.

The basis is a spanning tree of the bipartite supply/demand graph,
hung from row 0 and kept as flat lists (``parent``/``depth``/per-node
basic cell plus an adjacency) that each pivot updates in place:
reduced-cost pricing is one vectorized matrix expression over the whole
cost matrix, the pivot cycle is traced in O(tree depth) by walking
parent pointers from the entering cell's endpoints to their lowest
common ancestor, and only the subtree the leaving cell cuts off is
re-hung and re-priced.

Every solve is a pure function of its instance: the start is always
Vogel's, and nothing is carried from one call to the next. An optimal
solve also returns its final basis tree as a
:class:`TransportationBasis` and the tree's potentials as the optimal
duals ``u`` / ``v``.

Complexity per MODI iteration is Θ(m·n) for pricing (two vectorized
subtractions into one preallocated buffer, then the basic cells pinned
to 0), O(depth) for the cycle, and O(s) interpreted steps to re-hang
the s nodes below the leaving cell and re-derive their potentials,
plus one O(m+n) array copy of the potentials. Pivots move flow on a
dict of the m + n − 1 basic cells; the dense flow matrix is built once,
after the last pivot. Only the first iteration walks the whole tree;
on fat-tree placement instances s averages about a quarter of m + n.
The Vogel start sorts every row and every column once
(O(m·n·log(m + n))); after that a step costs O(log(m + n)) heap work
plus its crossing, which re-keys only the lines whose two cheapest
entries included the line crossed out, and all pointer walks together
are O(m·n) — no step rescans a line or the matrix.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.lp.result import SolveStatus
from repro.obs import get_registry, trace_span

_EPS = 1e-9
#: Relative optimality tolerance on reduced costs.
_OPT_TOL = 1e-7
#: Flow above this on a forbidden lane means the real problem is infeasible.
_FLOW_TOL = 1e-6
#: A solve still pivoting after this many pivots ends ``ITERATION_LIMIT``.
_MAX_PIVOTS = 100_000


def _cost_scale(max_abs_cost: float) -> float:
    """The instance's own cost unit: its largest ``|c_ij|`` over the
    finite lanes, capped at 1 (1 when no finite lane costs anything).

    It is the floor of the improving-lane test and the unit of the
    Big-M. A floor of 1 is absolute on costs far below 1 (Eq. 3's Trmin
    in seconds, ~1e-3), where it read a lane whose reduced cost was a
    few percent of its own cost as optimal. ``scale + |c|`` is the
    ``1 + |c|`` test on the costs divided by their largest one, so both
    solvers stop at the optimum of the instance's own scale, and an
    instance whose costs reach 1 keeps the test it had. The Big-M
    shrinks with the floor: potentials that carry it carry its rounding
    noise, which must stay below the floor or a degenerate lane prices
    as improving and the solve cycles.
    """
    return min(max_abs_cost, 1.0) if max_abs_cost > 0.0 else 1.0


def _big_m(max_abs_cost: float, m: int, n: int) -> float:
    """Cost of a forbidden lane, far above any mix of real lanes:
    ``max_abs_cost`` is the largest ``|c_ij|`` over the finite lanes,
    in units of :func:`_cost_scale`."""
    return (max_abs_cost + _cost_scale(max_abs_cost)) * max(m, n) * 1e6


def _improving(reduced, cost, scale):
    """The one improving-lane test: ``reduced < −_OPT_TOL·(scale + |cost|)``,
    judged against the lane's own cost (scalars or arrays) and the
    instance's :func:`_cost_scale`."""
    return reduced < -_OPT_TOL * (scale + np.abs(cost))


def _best_entering(reduced: np.ndarray, cost: np.ndarray, scale: float) -> int:
    """The first most-negative lane among those that improve, or -1.

    One entry per lane, basic lanes pinned to 0: the centralized loop's
    balanced matrix in row-major order, or the coordinator's bids in
    zone-id order, then its dummy row, artificial column and corner.
    """
    k = int(reduced.argmin())
    if not _improving(reduced[k], cost[k], scale):  # e.g. a Big-M lane: filter, then pick
        improving = _improving(reduced, cost, scale)
        if not improving.any():
            return -1
        k = int(np.where(improving, reduced, np.inf).argmin())
    return k


def _check_instance(supply: np.ndarray, demand: np.ndarray, cost: np.ndarray) -> None:
    """Reject what no solve can read: a negative or non-finite supply or
    capacity, and a NaN or ``-inf`` cost (only ``+inf`` marks a
    forbidden lane). Both solvers' entry points call it: a
    :class:`TransportationProblem` and a
    :class:`~repro.lp.distributed.ZoneWorker`."""
    # Comparisons are False for NaN, so each test rejects it too.
    for values in (supply, demand):
        if not ((values >= -_EPS) & (values < np.inf)).all():
            raise SolverError("supplies and capacities must be finite and non-negative")
    if not (cost > -np.inf).all():
        raise SolverError("costs must not be NaN or -inf; +inf marks a forbidden lane")


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
        _check_instance(supply, demand, cost)

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
    """Optimal flow for a :class:`TransportationProblem`.

    ``u`` (one per source) and ``v`` (one per destination) are an
    optimal dual when the solve is optimal, ``None`` otherwise:
    ``c_ij - u_i - v_j >= 0`` on every finite lane, ``= 0`` on every
    basic one, ``v <= 0`` and ``supply @ u + demand @ v`` is the
    objective. ``-v_j`` is what one more unit of capacity at ``j``
    saves (HiGHS's sign for a ``<=`` row).
    """

    status: SolveStatus
    flow: np.ndarray  # (m, n); zeros when not optimal
    objective: float
    iterations: int  # MODI pivots performed
    solve_time: float
    #: Final basis tree when optimal.
    basis: Optional[TransportationBasis] = None
    u: Optional[np.ndarray] = None
    v: Optional[np.ndarray] = None


# -- initial basis: Vogel's approximation ------------------------------------------


def _vogel_basis(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> Dict[Tuple[int, int], float]:
    """Vogel initial BFS on a *balanced* instance with finite costs.

    Returns the basic cells, in the order they were committed, each
    mapped to the flow it carries.

    Classic crossing-out scheme: each step commits the cheapest cell of
    the line (row or column) with the largest regret (gap between its
    two cheapest active costs) and crosses out exactly one exhausted
    line, so the chosen cells always number ``m + n - 1`` and form a
    spanning tree — degenerate zero-flow cells included. Ties go to the
    lowest index, and to a row over a column; with a single column
    (row) a row's (column's) regret is its one cost.

    Regrets are kept, not recomputed: a line's regret changes only when
    a line crossing it is crossed out. Every row and every column is
    sorted once (stably, so its first active entry is the lowest-index
    cheapest); two pointers per line point at its two cheapest active
    entries and only move forward. Each line keeps a watch list of the
    crossing lines whose pointers sit on it, so crossing a line out
    touches only its watchers. Both "largest regret" choices are lazy
    heaps keyed ``(-regret, index)``: an entry whose line is crossed
    out or whose regret has moved on is dropped when it reaches the top.

    The crossing rule never removes the last row or column, so until
    one row (of several) or one column (of several) is left every
    active line has two active cells and a finite regret. From then on
    every crossing line has one active cell — it is *forced* — and the
    remaining cells follow in index order (see the tail below).
    """
    m, n = cost.shape
    s, d = supply.tolist(), demand.tolist()
    flow: Dict[Tuple[int, int], float] = {}

    def commit(i: int, j: int) -> None:
        moved = min(s[i], d[j])
        flow[(i, j)] = moved
        s[i] -= moved
        d[j] -= moved

    def sort_lines(matrix: np.ndarray) -> Tuple[List[List[int]], List[List[float]]]:
        order = np.argsort(matrix, axis=1, kind="stable")
        return order.tolist(), np.sort(matrix, axis=1).tolist()

    # Rows over columns and columns over rows; `first`/`second` point
    # into a line's sorted entries, `watch[x]` lists the crossing lines
    # whose pointers sit on line x.
    row_order, row_ranked = sort_lines(cost)
    col_order, col_ranked = sort_lines(cost.T)
    row_first, row_second = [0] * m, [1] * m
    col_first, col_second = [0] * n, [1] * n
    row_active, col_active = [True] * m, [True] * n
    row_watch: List[List[int]] = [[] for _ in range(m)]
    col_watch: List[List[int]] = [[] for _ in range(n)]
    for r in range(m):
        for c in row_order[r][:2]:
            col_watch[c].append(r)
    for c in range(n):
        for r in col_order[c][:2]:
            row_watch[r].append(c)

    def cross_out(x, watch, alive, order, ranked, first, second, active, keys, heap, k):
        """Line ``x`` of one family is crossed out (``alive[x]`` is
        already False): move the pointers of every active crossing line
        ``y`` watching it past it, and re-key ``y``. A regret that did
        not change keeps its heap entry."""
        for y in watch[x]:
            if not active[y]:
                continue
            if order[y][first[y]] == x:
                first[y] = second[y]
            b = second[y] + 1
            while b < k and not alive[order[y][b]]:
                b += 1
            second[y] = b
            if b < k:
                watch[order[y][b]].append(y)
                key = ranked[y][b] - ranked[y][first[y]]
            else:
                key = np.inf  # forced: one entry left, the tail takes over
            if key != keys[y]:
                keys[y] = key
                heapq.heappush(heap, (-key, y))

    # A line's regret: the gap between its two cheapest entries, or the
    # one entry of a single-entry line.
    row_key = [x[0] if n == 1 else x[1] - x[0] for x in row_ranked]
    col_key = [x[0] if m == 1 else x[1] - x[0] for x in col_ranked]
    row_heap = [(-key, r) for r, key in enumerate(row_key)]
    col_heap = [(-key, c) for c, key in enumerate(col_key)]
    heapq.heapify(row_heap)
    heapq.heapify(col_heap)
    rows_left, cols_left = m, n
    steps = m + n - 1
    while len(flow) < steps and not (rows_left == 1 < m or cols_left == 1 < n):
        # The top entry of each heap that is still current.
        key, br = row_heap[0]
        while not row_active[br] or -key != row_key[br]:
            heapq.heappop(row_heap)
            key, br = row_heap[0]
        key, bc = col_heap[0]
        while not col_active[bc] or -key != col_key[bc]:
            heapq.heappop(col_heap)
            key, bc = col_heap[0]
        if row_key[br] >= col_key[bc]:
            i, j = br, row_order[br][row_first[br]]
        else:
            i, j = col_order[bc][col_first[bc]], bc
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
            cross_out(i, row_watch, row_active, col_order, col_ranked, col_first,
                      col_second, col_active, col_key, col_heap, m)
        else:
            cols_left -= 1
            col_active[j] = False
            cross_out(j, col_watch, col_active, row_order, row_ranked, row_first,
                      row_second, row_active, row_key, row_heap, n)
    # Tail. With one row left (m > 1) every active column is forced and
    # outranks the row's finite regret, so the lowest-index column is
    # taken and crossed out; with one column left (n > 1) every active
    # row is forced and rows win ties, so the lowest-index row is taken
    # and crossed out. Either way the rest is the active cells in order.
    live = [j for j in range(n) if col_active[j]]
    for i in range(m):
        if row_active[i]:
            for j in live:
                commit(i, j)
    return flow


# -- the basis tree ---------------------------------------------------------------


class _BasisTree:
    """Spanning-tree basis over the bipartite supply/demand graph.

    Nodes are flat indices: row ``i`` is node ``i``, column ``j`` is
    node ``mb + j``. The tree hangs from row node 0 and is kept as
    plain lists — ``parent``, ``depth``, ``pcell`` (the basis slot
    linking a node to its parent) and a per-node ``{neighbour: slot}``
    adjacency — built once by :meth:`refresh`. A pivot moves only the
    subtree its leaving cell cuts off: :meth:`replace` re-hangs that
    subtree from the entering cell's endpoint inside it, with one BFS
    over the subtree, and :meth:`potentials` re-derives ``u`` / ``v``
    only for the nodes re-hung since its last call. Everything else
    keeps its path to the root, so its potential stands. The pivot
    cycle is traced in O(depth) by climbing parent pointers. The
    centralized loop below and the distributed coordinator
    (:mod:`repro.lp.distributed`) both price with :meth:`potentials`
    and pivot with :meth:`pivot`.
    """

    __slots__ = (
        "mb", "n", "bi", "bj", "slot", "parent", "depth", "pcell", "adj",
        "_pot", "_stale",
    )

    def __init__(self, cells: Sequence[Tuple[int, int]], mb: int, n: int) -> None:
        if len(cells) != mb + n - 1:
            raise SolverError(
                f"basis has {len(cells)} cells, expected {mb + n - 1}"
            )
        for i, j in cells:
            if not (0 <= i < mb and 0 <= j < n):
                raise SolverError(
                    f"basis cell {(i, j)} outside the {mb} x {n} balanced instance"
                )
        self.mb = mb
        self.n = n
        self.bi = np.fromiter((c[0] for c in cells), dtype=np.int64, count=len(cells))
        self.bj = np.fromiter((c[1] for c in cells), dtype=np.int64, count=len(cells))
        self.slot = {cell: k for k, cell in enumerate(cells)}
        if len(self.slot) != len(cells):
            raise SolverError("duplicate cells in transportation basis")

    def refresh(self) -> None:
        """Build the rooted tree from the current cell set (one O(m+n)
        BFS from row node 0); every potential is stale afterwards."""
        mb = self.mb
        N = mb + self.n
        adj: List[Dict[int, int]] = [{} for _ in range(N)]
        for (i, j), k in self.slot.items():
            adj[i][mb + j] = k
            adj[mb + j][i] = k
        parent = [-2] * N  # -2 = unvisited, -1 = root
        depth = [0] * N
        pcell = [-1] * N
        parent[0] = -1
        order = [0]
        for node in order:  # grows while it is walked: a BFS queue
            for nxt, k in adj[node].items():
                if parent[nxt] == -2:
                    parent[nxt] = node
                    depth[nxt] = depth[node] + 1
                    pcell[nxt] = k
                    order.append(nxt)
        if len(order) != N:
            raise SolverError("transportation basis is not a spanning tree")
        self.adj, self.parent, self.depth, self.pcell = adj, parent, depth, pcell
        self._pot = [0.0] * N  # u over row nodes, v over column nodes
        self._stale = [order[1:]]  # re-hung node lists, each parents first

    def potentials(self, slot_cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Solve ``u_i + v_j = c_ij`` from ``slot_cost[k]`` — the cost of
        the cell in basis slot ``k``; a slot's cost may change only when
        its cell does.

        Only nodes re-hung since the last call are re-derived, each as
        one subtraction from its parent's potential — the same bits as a
        whole-tree pass. Each pivot's batch lists its nodes parents
        first, and batches run in pivot order: a node whose parent a
        later pivot re-hung was re-hung with it, so it is re-derived
        after its parent again. Returns two views of one fresh array,
        which the caller may modify.
        """
        pot, parent, pcell = self._pot, self.parent, self.pcell
        cost = slot_cost.tolist()
        for batch in self._stale:
            for node in batch:
                pot[node] = cost[pcell[node]] - pot[parent[node]]
        self._stale = []
        both = np.array(pot)
        return both[: self.mb], both[self.mb :]

    def cycle(self, ei: int, ej: int) -> List[Tuple[int, int]]:
        """Cells of the unique cycle closed by entering cell ``(ei, ej)``,
        in adjacency order starting at the entering cell (even positions
        gain flow, odd positions lose it). O(tree depth)."""
        mb = self.mb
        parent, depth = self.parent, self.depth
        a, b = ei, mb + ej
        side_a: List[int] = []  # nodes climbed from the row endpoint
        side_b: List[int] = []  # nodes climbed from the column endpoint
        while depth[a] > depth[b]:
            side_a.append(a)
            a = parent[a]
        while depth[b] > depth[a]:
            side_b.append(b)
            b = parent[b]
        while a != b:
            side_a.append(a)
            a = parent[a]
            side_b.append(b)
            b = parent[b]
        # The cell linking node x to its parent.
        path = [
            (x, parent[x] - mb) if x < mb else (parent[x], x - mb)
            for x in side_b + side_a[::-1]
        ]
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
        """Swap basic cell ``leaving`` for ``entering`` in its slot.

        Removing ``leaving`` cuts the subtree below it off the root; the
        entering cell has exactly one endpoint in that subtree, which
        becomes the subtree's new top, and one BFS over the subtree
        re-hangs the rest beneath it. O(depth + subtree size).
        """
        mb = self.mb
        parent, depth, pcell, adj = self.parent, self.depth, self.pcell, self.adj
        a, b = leaving[0], mb + leaving[1]
        cut = a if parent[a] == b else b  # top of the subtree cut off
        top, under = entering[0], mb + entering[1]

        def below_cut(x: int) -> bool:
            while depth[x] > depth[cut]:
                x = parent[x]
            return x == cut

        inside = below_cut(top)
        if inside == below_cut(under):
            raise SolverError(
                f"entering cell {entering} does not close a cycle through {leaving}"
            )
        if not inside:
            top, under = under, top
        k = self.slot.pop(leaving)
        self.slot[entering] = k
        self.bi[k], self.bj[k] = entering
        del adj[a][b], adj[b][a]
        adj[top][under] = k
        adj[under][top] = k
        parent[top] = under
        depth[top] = depth[under] + 1
        pcell[top] = k
        moved = [top]
        for node in moved:  # grows while it is walked: a BFS queue
            up, down = parent[node], depth[node] + 1
            for nxt, s in adj[node].items():
                if nxt != up:
                    parent[nxt] = node
                    depth[nxt] = down
                    pcell[nxt] = s
                    moved.append(nxt)
        self._stale.append(moved)

    def cells(self) -> Tuple[Tuple[int, int], ...]:
        """The basic cells in ``(row, col)`` order."""
        flat = np.sort(self.bi * self.n + self.bj)  # row-major = (row, col) order
        return tuple(zip(*(part.tolist() for part in np.divmod(flat, self.n))))


# -- solver ------------------------------------------------------------------------


def solve_transportation(problem: TransportationProblem) -> TransportationResult:
    """Solve to optimality with a Vogel start + MODI pivots.

    Returns the optimal flow, objective, pivot count and solve time.
    Each solve also reports into the ``lp.transportation.*`` metrics and
    (when tracing is on) records an ``lp.transportation.solve`` span.
    """
    with trace_span(
        "lp.transportation.solve",
        rows=problem.num_sources,
        cols=problem.num_destinations,
    ):
        result = _solve_transportation_impl(problem)
    registry = get_registry()
    registry.counter("lp.transportation.solves").inc()
    if result.iterations:
        registry.counter("lp.transportation.pivots").inc(result.iterations)
    registry.histogram("lp.transportation.solve_seconds").observe(result.solve_time)
    return result


def _solve_transportation_impl(problem: TransportationProblem) -> TransportationResult:
    start = time.perf_counter()
    supply = problem.supply
    demand = problem.demand
    m, n = problem.num_sources, problem.num_destinations

    total_supply = float(supply.sum())
    total_demand = float(demand.sum())
    if m == 0 or total_supply <= _EPS:
        # Nothing to ship: trivially optimal zero flow. Free capacity is
        # worth nothing, and u_i = min(0, cheapest lane) is feasible.
        cheapest = problem.cost.min(axis=1, initial=np.inf)
        return TransportationResult(
            status=SolveStatus.OPTIMAL,
            flow=np.zeros((m, n)),
            objective=0.0,
            iterations=0,
            solve_time=time.perf_counter() - start,
            u=np.minimum(cheapest, 0.0),
            v=np.zeros(n),
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
    finite = cost[~forbidden]
    max_abs_cost = float(np.abs(finite).max()) if finite.size else 1.0
    cost[forbidden] = _big_m(max_abs_cost, m, n)
    scale = _cost_scale(max_abs_cost)

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

    flow = _vogel_basis(supply_b, demand, cost_b)  # basic cell -> flow
    tree = _BasisTree(list(flow), mb, n)
    tree.refresh()
    # Per basis slot: the cell's cost and its row-major index, updated
    # at the entering slot after each pivot.
    slot_cost = cost_b[tree.bi, tree.bj]
    slot_flat = tree.bi * n + tree.bj
    cost_flat = cost_b.ravel()
    reduced = np.empty((mb, n))
    reduced_flat = reduced.ravel()

    pivots = 0
    while True:
        u, v = tree.potentials(slot_cost)
        np.subtract(cost_b, u[:, None], out=reduced)
        np.subtract(reduced, v, out=reduced)
        # Basic cells price to 0 by construction; pin them so numerical
        # noise cannot re-select one as entering.
        reduced_flat[slot_flat] = 0.0
        entering = _best_entering(reduced_flat, cost_flat, scale)
        if entering < 0:
            break  # optimal
        if pivots >= _MAX_PIVOTS:
            return TransportationResult(
                status=SolveStatus.ITERATION_LIMIT,
                flow=np.zeros((m, n)),
                objective=float("nan"),
                iterations=pivots,
                solve_time=time.perf_counter() - start,
            )

        cell = divmod(entering, n)
        flow[cell] = 0.0
        del flow[tree.pivot(*cell, flow)]
        k = tree.slot[cell]
        slot_cost[k] = cost_flat[entering]
        slot_flat[k] = entering
        pivots += 1

    solve_time = time.perf_counter() - start
    cells = tree.cells()
    basis = TransportationBasis(shape=(m, n), dummy=slack > _EPS, cells=cells)
    flow_mat = np.zeros((mb, n))
    flow_mat.ravel()[np.sort(slot_flat)] = [flow[cell] for cell in cells]

    # Any flow on a forbidden lane means the real problem is infeasible.
    if (flow_mat[forbidden_b] > _FLOW_TOL).any():
        return TransportationResult(
            status=SolveStatus.INFEASIBLE,
            flow=np.zeros((m, n)),
            objective=float("nan"),
            iterations=pivots,
            solve_time=solve_time,
        )

    # The potentials of the final basis are the duals, up to a shift
    # u + t, v - t that no reduced cost sees. Anchor on the dummy row's
    # zero-cost outside option (u = 0 there, as the distributed
    # coordinator does); without one the shift only moves the dual
    # objective by t times the (zero) imbalance, so take max(v) = 0.
    shift = u[m] if slack > _EPS else -v.max()
    real_flow = np.maximum(flow_mat[:m], 0.0)
    objective = float((problem.cost[~forbidden] * real_flow[~forbidden]).sum())
    return TransportationResult(
        status=SolveStatus.OPTIMAL,
        flow=real_flow,
        objective=objective,
        iterations=pivots,
        solve_time=solve_time,
        basis=basis,
        u=u[:m] - shift,
        v=v + shift,
    )
