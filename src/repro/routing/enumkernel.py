"""Vectorized frontier-expansion path-enumeration kernel.

The faithful route engine (:mod:`repro.routing.paths`) walks a
pure-Python DFS — one ``next()`` call per incident edge, one tuple per
path. This module replaces that hot loop with a breadth-layered
*frontier expansion*: every partial path of depth ``L`` is one row of a
small set of parallel arrays —

* ``(P, L+1)`` int64 node matrix (the partial path's node sequence),
* ``(P, W)``   uint64 visited-bitset matrix (``W = ceil(n / 64)``),
* ``(P,)``     float64 running-resistance vector,

and one hop is added to *all* partial paths at once with dense CSR
gathers over the degree-class lane tables of
:func:`repro.routing.matrix._degree_classes` — the same regrouping the
matrix Trmin DP uses, so rows of equal end-degree expand as one
``(rows, d)`` block instead of a ragged Python loop.

Two entry points share the expansion core:

:func:`count_paths_kernel`
    Exhaustive hop-bounded simple-path counting. **No pruning of any
    kind** — no weights are even passed in — so counts are unchanged
    from the reference DFS by construction (the complexity plots of
    Figs. 8/10 depend on this).

:func:`pruned_candidates`
    Best-route candidate production for Trmin pricing, with
    **admissible lower-bound pruning**: a frontier row ending at node
    ``v`` with ``hops_left`` budget is dropped when

    ``partial_resistance + dist[hops_left, v] > opt + margin``

    where ``dist`` is the hop-layered Bellman–Ford plane of
    :func:`repro.routing.shortest.hop_constrained_shortest` run *from
    the destination* (the graph is undirected, so ``d -> v`` bounds
    ``v -> d``), and ``opt = dist[H, source]`` is the DP optimum
    itself. The DP relaxes over walks, a superset of simple paths, so
    ``dist`` is a true lower bound and the cut is sound for
    minimization.

Bit-identity with the exhaustive DFS
-----------------------------------
The kernel never *selects* the best route itself. It returns the
surviving complete paths as raw ``(nodes, edges)`` tuples in exact DFS
order, and :func:`repro.routing.response_time._best_enum_route` feeds
them through the same canonical sequential fold a full DFS stream
would go through, so the resistance-then-fewer-hops-then-DFS-order
tie-break is reproduced update for update. Two properties make that
exact:

* *DFS order is recoverable.* The reference DFS visits neighbors in
  CSR lane order, so paths are emitted in lexicographic order of their
  per-hop lane sequences. The kernel carries a ``(P, L)`` lane matrix
  alongside each partial path and ``np.lexsort``s the survivors; no
  complete path's lane sequence is a proper prefix of another's (both
  end at the destination, which is never extended through), so the
  ``-1`` padding never decides a comparison.
* *The prune margin covers every influential path.* The canonical
  fold's final best resistance is at most ``gm + (H+1) * _TIE_TOL``
  above the true minimum ``gm`` (each tolerance-tie update moves the
  running best up by at most ``_TIE_TOL`` and strictly decreases the
  hop count, so chains are bounded by ``H``), and every update
  accepted after the optimum arrives prices at or below that. The
  fixed threshold ``opt + (H+3) * _TIE_TOL + rel`` — ``rel`` a
  relative-epsilon cushion for the DP's different summation order —
  therefore retains every path the reference fold could ever accept.
  Distinct (non-equal) resistances straddling the same ~1e-12 window
  could in principle still order differently; exact ties (the
  uniform-cost meshes of the property suite) compare equal bit for bit
  and are reproduced exactly.

The kernel is the only route behind ``PathEngine.ENUMERATION`` and
:func:`repro.routing.paths.count_paths`; the pure-Python DFS
(:func:`repro.routing.paths.iter_simple_paths_raw`) stays as public
enumeration API and as the oracle the test suite compares against.
Counter totals are kept as plain local ints in the hot loop and
mirrored into the metrics registry once per call, per the repo's
hot-loop observability convention.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.routing.matrix import _degree_classes
from repro.routing.routes import _TIE_TOL
from repro.routing.shortest import hop_constrained_shortest
from repro.topology.graph import Topology

__all__ = ["count_paths_kernel", "pruned_candidates"]

#: Frontier rows expanded per dense gather pass; bounds the size of the
#: per-chunk child temporaries to ``_CHUNK_ROWS * max_degree`` entries.
_CHUNK_ROWS = 1 << 16


def _flush_counters(calls: int, frontier: int, pruned: int, cutoffs: int) -> None:
    from repro.obs import get_registry

    reg = get_registry()
    reg.counter("routing.enum_kernel_calls").inc(calls)
    if frontier:
        reg.counter("routing.enum_frontier_rows").inc(frontier)
    if pruned:
        reg.counter("routing.enum_pruned_rows").inc(pruned)
    if cutoffs:
        reg.counter("routing.enum_bound_cutoffs").inc(cutoffs)


def _validate(
    topology: Topology, source: int, destination: int, max_hops: Optional[int]
) -> int:
    """Mirror the reference iterator's validation; return the hop limit."""
    topology.node(source)
    topology.node(destination)
    if max_hops is not None and max_hops < 0:
        raise RoutingError(f"max_hops must be non-negative, got {max_hops}")
    return max_hops if max_hops is not None else topology.num_nodes - 1


class _ClassMap:
    """Per-call degree-class expansion tables.

    Wraps :func:`repro.routing.matrix._degree_classes` with an inverse
    node -> (class, row) map so a frontier's end nodes can be expanded
    class by class as dense ``(rows, d)`` lane-table gathers.
    """

    __slots__ = ("children", "lane_edges", "lane_within", "class_of", "row_of")

    def __init__(self, topology: Topology) -> None:
        indices, edge_ids, classes = _degree_classes(topology)
        n = topology.num_nodes
        self.class_of = np.full(n, -1, dtype=np.int64)
        self.row_of = np.zeros(n, dtype=np.int64)
        self.children: List[np.ndarray] = []
        self.lane_edges: List[np.ndarray] = []
        self.lane_within: List[np.ndarray] = []
        for ci, (nodes_d, lane_table) in enumerate(classes):
            self.class_of[nodes_d] = ci
            self.row_of[nodes_d] = np.arange(nodes_d.size)
            self.children.append(indices[lane_table])
            self.lane_edges.append(edge_ids[lane_table])
            self.lane_within.append(
                np.arange(lane_table.shape[1], dtype=np.int64)
            )

    def expand(
        self, ends: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """All (child, edge) continuations of the chunk's end nodes.

        Returns ``(row_idx, within, child, edge)`` flat arrays, one
        entry per incident lane of every row: ``row_idx`` indexes back
        into ``ends``, ``within`` is the adjacency-lane offset at the
        end node (the DFS ordering key for this hop).
        """
        cls = self.class_of[ends]
        parts_row: List[np.ndarray] = []
        parts_within: List[np.ndarray] = []
        parts_child: List[np.ndarray] = []
        parts_edge: List[np.ndarray] = []
        for ci in np.unique(cls):
            if ci < 0:  # isolated end node: nothing incident
                continue
            sel = np.flatnonzero(cls == ci)
            rows = self.row_of[ends[sel]]
            child = self.children[ci][rows]  # (S, d) dense gather
            edge = self.lane_edges[ci][rows]
            d = child.shape[1]
            parts_row.append(np.repeat(sel, d))
            parts_within.append(np.tile(self.lane_within[ci], sel.size))
            parts_child.append(child.ravel())
            parts_edge.append(edge.ravel())
        if not parts_row:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty
        return (
            np.concatenate(parts_row),
            np.concatenate(parts_within),
            np.concatenate(parts_child),
            np.concatenate(parts_edge),
        )


def _seen_mask(visited: np.ndarray, row_idx: np.ndarray, child: np.ndarray):
    """Bit-test ``child`` against each row's visited bitset."""
    word = child >> 6
    bit = np.uint64(1) << (child & np.int64(63)).astype(np.uint64)
    return (visited[row_idx, word] & bit) != 0, word, bit


def _mark_visited(
    visited: np.ndarray, row_idx: np.ndarray, word: np.ndarray, bit: np.ndarray
) -> np.ndarray:
    """New bitset rows for the extended paths (parent rows + one bit)."""
    nv = visited[row_idx].copy()
    nv[np.arange(row_idx.size), word] |= bit
    return nv


def count_paths_kernel(
    topology: Topology,
    source: int,
    destination: int,
    max_hops: Optional[int] = None,
) -> int:
    """Hop-bounded simple-path count via frontier expansion.

    Exhaustive by construction — the expansion applies only the simple
    path (visited-bitset) and hop-budget constraints, exactly the two
    the reference DFS applies; no weights and no bound ever enter, so
    the count equals ``sum(1 for _ in iter_simple_paths_raw(...))``.
    """
    limit = _validate(topology, source, destination, max_hops)
    if source == destination:
        _flush_counters(1, 0, 0, 0)
        return 1
    if limit == 0:
        _flush_counters(1, 0, 0, 0)
        return 0

    n = topology.num_nodes
    words = (n + 63) // 64
    cmap = _ClassMap(topology)

    ends = np.array([source], dtype=np.int64)
    visited = np.zeros((1, words), dtype=np.uint64)
    visited[0, source >> 6] = np.uint64(1) << np.uint64(source & 63)

    count = 0
    frontier_rows = 0
    for depth in range(limit):  # rows currently hold `depth`-edge paths
        if ends.size == 0:
            break
        frontier_rows += int(ends.size)
        extend = depth + 1 < limit
        next_ends: List[np.ndarray] = []
        next_visited: List[np.ndarray] = []
        for lo in range(0, ends.size, _CHUNK_ROWS):
            chunk = slice(lo, min(lo + _CHUNK_ROWS, ends.size))
            e_chunk = ends[chunk]
            v_chunk = visited[chunk]
            row_idx, _, child, _ = cmap.expand(e_chunk)
            if row_idx.size == 0:
                continue
            seen, word, bit = _seen_mask(v_chunk, row_idx, child)
            fresh = ~seen
            hit = fresh & (child == destination)
            count += int(np.count_nonzero(hit))
            if not extend:
                continue
            grow = np.flatnonzero(fresh & ~hit)
            if grow.size == 0:
                continue
            next_ends.append(child[grow])
            next_visited.append(
                _mark_visited(v_chunk, row_idx[grow], word[grow], bit[grow])
            )
        if not extend or not next_ends:
            break
        ends = np.concatenate(next_ends)
        visited = np.concatenate(next_visited, axis=0)

    _flush_counters(1, frontier_rows, 0, 0)
    return count


def _bound_plane(
    topology: Topology,
    destination: int,
    limit: int,
    edge_weights: np.ndarray,
    bound_cache: Optional[Dict[int, np.ndarray]],
) -> np.ndarray:
    """``(H+1, n)`` remaining-resistance lower bounds from ``destination``.

    One backward layered DP per destination; ``bound_cache`` (keyed by
    destination node id) amortizes it across the source rows of a
    matrix build, where weights, hop budget and topology version are
    fixed for the whole call.
    """
    if bound_cache is not None:
        plane = bound_cache.get(destination)
        if plane is not None:
            return plane
    plane = hop_constrained_shortest(topology, destination, limit, edge_weights).dist
    if bound_cache is not None:
        bound_cache[destination] = plane
    return plane


def pruned_candidates(
    topology: Topology,
    source: int,
    destination: int,
    max_hops: Optional[int],
    edge_weights: np.ndarray,
    bound_cache: Optional[Dict[int, np.ndarray]] = None,
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Complete hop-bounded paths that can influence the best route.

    Expands the frontier with the admissible lower-bound cut described
    in the module docstring and returns the surviving complete paths as
    raw ``(nodes, edges)`` tuples **in exact DFS order**, ready for the
    canonical sequential fold. Unreachable pairs return ``[]``;
    ``source == destination`` returns the trivial zero-hop path.
    """
    limit = _validate(topology, source, destination, max_hops)
    if source == destination:
        _flush_counters(1, 0, 0, 0)
        return [((source,), ())]
    if limit == 0:
        _flush_counters(1, 0, 0, 0)
        return []

    weights = np.asarray(edge_weights, dtype=float)
    plane = _bound_plane(topology, destination, limit, weights, bound_cache)
    opt = float(plane[limit, source])
    if not np.isfinite(opt):
        # The DP relaxes a superset of the simple paths: unreachable in
        # budget for walks means unreachable for the enumeration too.
        _flush_counters(1, 0, 0, 0)
        return []
    # Fixed, order-independent prune threshold: the DP optimum plus a
    # margin covering (a) every tolerance-tie update the canonical fold
    # can accept — at most (H+1) * _TIE_TOL above the true minimum —
    # and (b) summation-order rounding between the DP's scatter-min
    # sums and the fold's sequential sums (relative-epsilon term).
    threshold = (
        opt
        + (limit + 3) * _TIE_TOL
        + 64.0 * np.finfo(float).eps * (limit + 1) * abs(opt)
    )

    n = topology.num_nodes
    words = (n + 63) // 64
    cmap = _ClassMap(topology)

    ends = np.array([source], dtype=np.int64)
    visited = np.zeros((1, words), dtype=np.uint64)
    visited[0, source >> 6] = np.uint64(1) << np.uint64(source & 63)
    res = np.zeros(1, dtype=np.float64)
    lanes = np.empty((1, 0), dtype=np.int64)  # per-hop adjacency offsets
    nodes_m = np.array([[source]], dtype=np.int64)
    edges_m = np.empty((1, 0), dtype=np.int64)

    # Survivor batches per completion depth: (hops, nodes, edges, lanes).
    batches: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
    frontier_rows = 0
    pruned_rows = 0
    bound_cutoffs = 0

    for depth in range(limit):
        if ends.size == 0:
            break
        frontier_rows += int(ends.size)
        extend = depth + 1 < limit
        hops_left = limit - (depth + 1)
        lb = plane[hops_left]
        n_ends: List[np.ndarray] = []
        n_visited: List[np.ndarray] = []
        n_res: List[np.ndarray] = []
        n_lanes: List[np.ndarray] = []
        n_nodes: List[np.ndarray] = []
        n_edges: List[np.ndarray] = []
        for lo in range(0, ends.size, _CHUNK_ROWS):
            chunk = slice(lo, min(lo + _CHUNK_ROWS, ends.size))
            e_chunk = ends[chunk]
            v_chunk = visited[chunk]
            row_idx, within, child, edge = cmap.expand(e_chunk)
            if row_idx.size == 0:
                continue
            seen, word, bit = _seen_mask(v_chunk, row_idx, child)
            fresh = ~seen
            # Running resistance after this hop: one more term of the
            # same left fold the canonical pricing performs.
            child_res = res[chunk][row_idx] + weights[edge]

            hit = np.flatnonzero(fresh & (child == destination))
            if hit.size:
                keep = child_res[hit] <= threshold
                bound_cutoffs += int(hit.size - np.count_nonzero(keep))
                hit = hit[keep]
            if hit.size:
                rows = row_idx[hit]
                batches.append(
                    (
                        depth + 1,
                        np.concatenate(
                            [nodes_m[chunk][rows], child[hit, None]], axis=1
                        ),
                        np.concatenate(
                            [edges_m[chunk][rows], edge[hit, None]], axis=1
                        ),
                        np.concatenate(
                            [lanes[chunk][rows], within[hit, None]], axis=1
                        ),
                    )
                )
            if not extend:
                continue
            grow_mask = fresh & (child != destination)
            cut = grow_mask & (child_res + lb[child] > threshold)
            pruned_rows += int(np.count_nonzero(cut))
            grow = np.flatnonzero(grow_mask & ~cut)
            if grow.size == 0:
                continue
            rows = row_idx[grow]
            n_ends.append(child[grow])
            n_visited.append(_mark_visited(v_chunk, rows, word[grow], bit[grow]))
            n_res.append(child_res[grow])
            n_lanes.append(
                np.concatenate([lanes[chunk][rows], within[grow, None]], axis=1)
            )
            n_nodes.append(
                np.concatenate([nodes_m[chunk][rows], child[grow, None]], axis=1)
            )
            n_edges.append(
                np.concatenate([edges_m[chunk][rows], edge[grow, None]], axis=1)
            )
        if not extend or not n_ends:
            break
        ends = np.concatenate(n_ends)
        visited = np.concatenate(n_visited, axis=0)
        res = np.concatenate(n_res)
        lanes = np.concatenate(n_lanes, axis=0)
        nodes_m = np.concatenate(n_nodes, axis=0)
        edges_m = np.concatenate(n_edges, axis=0)

    _flush_counters(1, frontier_rows, pruned_rows, bound_cutoffs)
    if not batches:
        return []

    # Restore DFS order: lexicographic on the per-hop lane offsets,
    # -1-padded to the hop budget (padding never decides — see module
    # docstring).
    total = sum(b[3].shape[0] for b in batches)
    lane_pad = np.full((total, limit), -1, dtype=np.int64)
    raw: List[Tuple[Tuple[int, ...], Tuple[int, ...]]] = []
    row = 0
    for _, b_nodes, b_edges, b_lanes in batches:
        count = b_lanes.shape[0]
        lane_pad[row : row + count, : b_lanes.shape[1]] = b_lanes
        raw.extend(
            zip(
                (tuple(r) for r in b_nodes.tolist()),
                (tuple(r) for r in b_edges.tolist()),
            )
        )
        row += count
    order = np.lexsort(tuple(lane_pad[:, i] for i in range(limit - 1, -1, -1)))
    return [raw[i] for i in order]
