"""Slow, readable oracles the kernels in ``src/`` are held bit-equal to.

``src/`` has one pricing pipeline (matrix DP, enumeration kernel), one
Algorithm-1 pipeline and one Vogel start; the implementations they
replaced live on here, composed from primitives that stay public, so
the suites compare ``==`` / ``array_equal`` against them instead of
against a runtime-selectable second engine. The enumeration judge,
:func:`_fold_raw_paths`, lives only here: the kernel applies its rule
to pruned survivors, and :func:`enum_best_route` applies it to the full
DFS stream. The soak's per-arrival event scheduling lives in
:mod:`tests.oracles.soak`, the HiGHS LP parity oracle in
:mod:`tests.oracles.highs`, the helper that
slices a transportation instance into distributed-solve zones in
:mod:`tests.oracles.dsolve`, and the transportation basis tree that
rebuilds itself and all its potentials on every pivot in
:mod:`tests.oracles.basis_tree`. :func:`effective_bandwidths` is the
per-link ``Lu_e`` loop the topology's array expression replaced, and
:func:`dp_witness_planes` relaxes the matrix DP's layers cell by cell to
pin its tie witnesses.
"""

import itertools
import time
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.heuristic import HeuristicReport
from repro.core.placement import PlacementAssignment, PlacementProblem
from repro.errors import PlacementError, RoutingError, SolverError
from repro.lp.transportation import _EPS
from repro.routing import PathEngine, ResponseTimeModel, hop_constrained_shortest
from repro.routing.matrix import matrix_hop_constrained
from repro.routing.routes import _TIE_TOL, Path, RouteChoice
from repro.topology.links import BandwidthConvention

_TOL = 1e-9

#: Paths priced per ``reduceat`` call of :func:`_fold_raw_paths`.
_PRICE_BATCH = 512

RawPath = Tuple[Tuple[int, ...], Tuple[int, ...]]


def iter_simple_paths_raw(
    topology, source: int, destination: int, max_hops: Optional[int] = None
) -> Iterator[RawPath]:
    """Every simple path from ``source`` to ``destination`` with at most
    ``max_hops`` edges (unbounded when ``None``), as raw ``(nodes,
    edges)`` tuples in DFS order — the exhaustive enumeration the
    paper's optimizer "accounts for all feasible paths" with.

    Iterative DFS over ``topology.incident()`` with an explicit stack;
    ``source == destination`` yields the trivial zero-hop path.
    """
    topology.node(source)
    topology.node(destination)
    if max_hops is not None and max_hops < 0:
        raise RoutingError(f"max_hops must be non-negative, got {max_hops}")
    if source == destination:
        yield (source,), ()
        return
    if max_hops == 0:
        return

    limit = max_hops if max_hops is not None else topology.num_nodes - 1
    node_stack: List[int] = [source]
    edge_stack: List[int] = []
    on_path = [False] * topology.num_nodes
    on_path[source] = True
    # Per-depth iterator over incident (neighbor, edge) pairs.
    iter_stack: List[Iterator] = [iter(topology.incident(source))]

    while iter_stack:
        try:
            nbr, edge_id = next(iter_stack[-1])
        except StopIteration:
            iter_stack.pop()
            on_path[node_stack.pop()] = False
            if edge_stack:
                edge_stack.pop()
            continue
        if on_path[nbr]:
            continue
        if nbr == destination:
            yield tuple(node_stack) + (destination,), tuple(edge_stack) + (edge_id,)
            continue
        if len(edge_stack) + 1 >= limit:
            continue  # extending through nbr could never reach in budget
        node_stack.append(nbr)
        edge_stack.append(edge_id)
        on_path[nbr] = True
        iter_stack.append(iter(topology.incident(nbr)))


def iter_simple_paths(topology, source, destination, max_hops=None) -> Iterator[Path]:
    """:func:`iter_simple_paths_raw` as validated :class:`Path` objects."""
    for nodes, edges in iter_simple_paths_raw(topology, source, destination, max_hops):
        yield Path(nodes=nodes, edges=edges)


def enumerate_paths(topology, source, destination, max_hops=None, limit=None) -> List[Path]:
    """The first ``limit`` paths (all when ``None``) of
    :func:`iter_simple_paths`, in DFS order."""
    return list(
        itertools.islice(iter_simple_paths(topology, source, destination, max_hops), limit)
    )


def _fold_raw_paths(
    stream: Iterable[RawPath], edge_weights: np.ndarray
) -> Tuple[float, int, Optional[RawPath]]:
    """The judge: a sequential fold over a DFS-ordered raw path stream.

    Returns ``(resistance, hops, (nodes, edges))`` — or
    ``(inf, -1, None)`` on an empty stream. Paths are priced in
    batches: the edge ids of up to ``_PRICE_BATCH`` paths are
    concatenated and summed with one fancy-index + ``np.add.reduceat``;
    only candidates within ``_TIE_TOL`` of the running minimum are then
    examined in DFS order, keeping the serial scan's
    resistance-then-fewer-hops tie-break. The enumeration kernel
    (:func:`repro.routing.enumkernel.best_routes_matrix`) applies this
    rule to its pruned survivors and is held ``==`` to it.
    """
    best_res = np.inf
    best_hops = -1
    best_raw: Optional[RawPath] = None
    buf_edges: List[Tuple[int, ...]] = []
    buf_raw: List[RawPath] = []

    def _flush() -> None:
        nonlocal best_res, best_hops, best_raw
        if not buf_edges:
            return
        count = len(buf_edges)
        lens = np.fromiter(map(len, buf_edges), dtype=np.int64, count=count)
        flat = np.fromiter(
            (e for edges in buf_edges for e in edges),
            dtype=np.int64,
            count=int(lens.sum()),
        )
        starts = np.zeros(count, dtype=np.int64)
        np.cumsum(lens[:-1], out=starts[1:])
        res = np.add.reduceat(edge_weights[flat], starts)
        # Only paths at or below the running minimum (+ tie tolerance)
        # can change the outcome; visit those few in DFS order.
        cut = min(float(res.min()), best_res) + _TIE_TOL
        for idx in np.flatnonzero(res <= cut):
            r = float(res[idx])
            h = int(lens[idx])
            if r < best_res - _TIE_TOL or (
                abs(r - best_res) <= _TIE_TOL and h < best_hops
            ):
                best_res, best_hops, best_raw = r, h, buf_raw[idx]
        buf_edges.clear()
        buf_raw.clear()

    for nodes, edges in stream:
        if not edges:  # zero-hop path: source == destination
            return 0.0, 0, (nodes, edges)
        buf_edges.append(edges)
        buf_raw.append((nodes, edges))
        if len(buf_edges) >= _PRICE_BATCH:
            _flush()
    _flush()
    return best_res, best_hops, best_raw


def enum_best_route(topology, source, destination, max_hops, edge_weights):
    """``(resistance, hops, (nodes, edges))`` by folding *every*
    hop-bounded simple path in DFS order — no kernel, no pruning."""
    return _fold_raw_paths(
        iter_simple_paths_raw(topology, source, destination, max_hops), edge_weights
    )


def best_route(model, topology, source, destination) -> Optional[RouteChoice]:
    """One pair's optimal route for a unit data volume, or ``None``.

    ``response_time_s`` is the resistance ``sum 1/Lu_e``: the DFS fold
    of :func:`enum_best_route` for an enumeration model, and for a dp
    model the left fold along :func:`hop_constrained_shortest`'s route —
    the order the DP accumulates its ``R``.
    """
    weights = model.edge_weights(topology)
    if model.engine is PathEngine.DP:
        path = hop_constrained_shortest(
            topology, source, model.max_hops, weights
        ).path_to(destination)
        if path is None:
            return None
        total = 0.0
        for e in path.edges:
            total += weights[e]
        return RouteChoice(path=path, response_time_s=float(total))
    res, _, raw = enum_best_route(topology, source, destination, model.max_hops, weights)
    if raw is None:
        return None
    return RouteChoice(path=Path(nodes=raw[0], edges=raw[1]), response_time_s=res)


def effective_bandwidths(
    links, convention: BandwidthConvention = BandwidthConvention.AVAILABLE
) -> np.ndarray:
    """The per-edge ``Lu_e`` vector one :class:`~repro.topology.links.Link`
    at a time — what ``Topology.effective_bandwidths`` computed before
    link state lived in arrays. ``links`` is any iterable of links (a
    topology's ``links``, or standalone ones)."""
    return np.array([link.effective_mbps(convention) for link in links], dtype=float)


def to_networkx(topology):
    """``topology`` as a ``networkx.Graph`` (node ids kept, link state
    on the edges) for comparisons against networkx's algorithms."""
    import networkx as nx

    g = nx.Graph(name=topology.name)
    g.add_nodes_from(range(topology.num_nodes))
    for edge_id, (u, v) in enumerate(topology.edges):
        link = topology.link(edge_id)
        g.add_edge(
            u,
            v,
            capacity_mbps=link.capacity_mbps,
            utilization=link.utilization,
            latency_ms=link.latency_ms,
        )
    return g


def dp_matrix(topology, sources, max_hops, edge_weights):
    """``(best, hops)`` over all nodes, one
    :func:`hop_constrained_shortest` per source."""
    results = [
        hop_constrained_shortest(topology, int(s), max_hops, edge_weights)
        for s in sources
    ]
    n = topology.num_nodes
    best = np.array([r.best for r in results]).reshape(len(results), n)
    hops = np.array([r.best_hops() for r in results], dtype=np.int64)
    return best, hops.reshape(len(results), n)


def dp_witness_planes(topology, sources, max_hops, edge_weights):
    """The matrix DP's per-layer planes, relaxed cell by cell.

    Layer ``h`` gives node ``v`` (for source ``a``) the minimum of its
    carry and ``prev[u, a] + w_e`` over its lanes ``(u, e)`` in
    ``topology.incident(v)`` order, which is the CSR lane order. When
    that improves the cell, its witness is the *last* lane reaching the
    new minimum; otherwise it has none (``-1``). Layers stop before the
    first one that improves no cell. Returns ``(layer_dist, parent_node,
    parent_edge)``, lists of node-major ``(n, S)`` planes shaped as
    :class:`~repro.routing.matrix.MatrixDPResult` stores them."""
    weights = np.asarray(edge_weights, dtype=float)
    n, S = topology.num_nodes, len(sources)
    H = n - 1 if max_hops is None else max_hops
    prev = np.full((n, S), np.inf)
    prev[[int(s) for s in sources], np.arange(S)] = 0.0
    layer_dist = [prev]
    parent_node = [np.full((n, S), -1, dtype=np.int64)]
    parent_edge = [np.full((n, S), -1, dtype=np.int64)]
    lanes = [topology.incident(v) for v in range(n)]
    for _ in range(H if topology.num_edges else 0):
        new = prev.copy()
        node = np.full((n, S), -1, dtype=np.int64)
        edge = np.full((n, S), -1, dtype=np.int64)
        for v in range(n):
            for a in range(S):
                cands = [prev[u, a] + weights[e] for u, e in lanes[v]]
                if not cands or min(cands) >= prev[v, a]:
                    continue
                low = min(cands)
                last = max(j for j, c in enumerate(cands) if c == low)
                new[v, a] = low
                node[v, a], edge[v, a] = lanes[v][last]
        if np.array_equal(new, prev):
            break
        layer_dist.append(new)
        parent_node.append(node)
        parent_edge.append(edge)
        prev = new
    return layer_dist, parent_node, parent_edge


def dp_paths(topology, sources, destinations, max_hops, edge_weights):
    """Every reachable pair's route walked up front from one matrix DP's
    predecessor planes, later source indices overwriting earlier ones.

    The tie witnesses are the matrix kernel's own (no slower DP picks
    the same ones), so this is the eager materialization the lazy dp
    route view is held ``==`` to, not an independent derivation; price
    consistency is checked separately."""
    result = matrix_hop_constrained(
        topology, sources, max_hops, edge_weights, with_parents=True
    )
    paths = {}
    for a, s in enumerate(sources):
        for d in destinations:
            if np.isfinite(result.best[a, d]):
                paths[(int(s), int(d))] = result.path_to(a, int(d))
    return paths


def resistance_matrix(model, topology, sources, destinations):
    """What ``model.resistance_matrix(..., with_paths=True)`` must equal.

    For a dp model ``(R, hops)`` come from the per-source DP loop and
    ``paths`` from :func:`dp_paths`.
    """
    weights = model.edge_weights(topology)
    if model.engine is PathEngine.DP:
        best, hops = dp_matrix(topology, sources, model.max_hops, weights)
        cols = np.asarray(destinations, dtype=int)
        paths = dp_paths(topology, sources, destinations, model.max_hops, weights)
        return best[:, cols], hops[:, cols], paths
    R = np.full((len(sources), len(destinations)), np.inf)
    hops = np.full(R.shape, -1, dtype=np.int64)
    paths = {}
    for a, s in enumerate(sources):
        for b, d in enumerate(destinations):
            res, nh, raw = enum_best_route(topology, s, d, model.max_hops, weights)
            if raw is not None:
                R[a, b], hops[a, b] = res, nh
                paths[(s, d)] = Path(nodes=raw[0], edges=raw[1])
    return R, hops, paths


def solve_heuristic_reference(
    problem: PlacementProblem,
    hop_radius: int = 1,
    convention: BandwidthConvention = BandwidthConvention.AVAILABLE,
) -> HeuristicReport:
    """The per-node Python loop — Algorithm 1 as the paper writes it.

    The executable specification ``repro.core.solve_heuristic`` is
    tested against at every radius. Radius 1 walks
    ``topology.incident()``; wider radii price each busy node with its
    own :func:`hop_constrained_shortest`, never through the pricing
    pipeline the kernel uses. The candidate index and the shared
    residual-capacity array are hoisted out of the per-busy loop;
    residual capacity is consumed across busy nodes (never reset) so
    successors see what predecessors took.
    """
    if hop_radius < 1:
        raise PlacementError(f"hop_radius must be >= 1, got {hop_radius}")
    start = time.perf_counter()
    topology = problem.topology
    candidate_index = {node: b for b, node in enumerate(problem.candidates)}
    candidate_items = tuple(candidate_index.items())
    remaining_cd = problem.cd.copy()

    model = ResponseTimeModel(
        convention=convention, engine=PathEngine.DP, max_hops=hop_radius
    )
    weights = model.edge_weights(topology)

    assignments: List[PlacementAssignment] = []
    offloaded: Dict[int, float] = {}
    failed: Dict[int, float] = {}

    for a, busy in enumerate(problem.busy):
        need = float(problem.cs[a])
        offloaded[busy] = 0.0
        failed[busy] = 0.0
        if need <= _TOL:
            continue
        # Candidate lanes within the radius, priced per Eq. 1.
        lanes: List[Tuple[float, int, int, object]] = []  # (cost, hops, cand, path)
        if hop_radius == 1:
            for nbr, edge_id in topology.incident(busy):
                b = candidate_index.get(nbr)
                if b is None or remaining_cd[b] <= _TOL:
                    continue
                cost = float(problem.data_mb[a] * weights[edge_id])
                path = Path(nodes=(busy, nbr), edges=(edge_id,))
                lanes.append((cost, 1, b, path))
        else:
            result = hop_constrained_shortest(topology, busy, hop_radius, weights)
            best = result.best
            for node, b in candidate_items:
                if node == busy or remaining_cd[b] <= _TOL:
                    continue
                if not np.isfinite(best[node]):
                    continue
                path = result.path_to(node)
                cost = float(problem.data_mb[a] * best[node])
                lanes.append((cost, path.num_hops if path else hop_radius, b, path))

        # Cheapest-first fill (optimal for a single supply).
        lanes.sort(key=lambda lane: (lane[0], lane[1]))
        for cost, hops, b, path in lanes:
            if need <= _TOL:
                break
            take = min(need, float(remaining_cd[b]))
            if take <= _TOL:
                continue
            remaining_cd[b] -= take
            need -= take
            offloaded[busy] += take
            assignments.append(
                PlacementAssignment(
                    busy=busy,
                    candidate=problem.candidates[b],
                    amount_pct=take,
                    response_time_s=cost,
                    hops=hops,
                    route=path,
                )
            )
        failed[busy] = max(0.0, need)

    return HeuristicReport(
        assignments=tuple(assignments),
        offloaded_per_busy=offloaded,
        failed_per_busy=failed,
        total_seconds=time.perf_counter() - start,
        hop_radius=hop_radius,
    )


def vogel_basis(
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


def vogel_start(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> Dict[Tuple[int, int], float]:
    """:func:`vogel_basis` in the start's return format: each cell, in
    commit order, mapped to the flow it carries. Every cell is committed
    once, so its dense entry is the amount it was given."""
    flow, cells = vogel_basis(supply, demand, cost)
    return {cell: float(flow[cell]) for cell in cells}
