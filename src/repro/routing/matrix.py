"""All-sources hop-constrained DP over the CSR adjacency (the matrix
Trmin kernel).

One hop-layered Bellman–Ford relaxation carries a whole
``(num_nodes, num_sources)`` distance plane per layer instead of one
row per :func:`~repro.routing.shortest.hop_constrained_shortest` call.
A layer is a segmented min over each node's CSR lanes; rather than
``np.minimum.reduceat`` (whose generic segment loop profiles ~5×
slower here), the segments are realized as dense *degree-class* blocks.
CSR rows of equal degree ``d`` form one class, held **lane-major**:
the class's neighbor ids and edge ids are ``(d, count)`` tables, row
``j`` holding every class node's ``j``-th CSR lane. One layer per class
is a row-gather ``np.take(dist, nbr, axis=0)`` reshaped to
``(d, count, S)``, plus the lane weights, min-reduced over axis 0 —
``d - 1`` elementwise minima of contiguous ``(count, S)`` slabs, so the
reduction stays contiguous at every source count (a node-major
``(count, d, S)`` block strides its lane axis, which costs ~20× at the
3–30 sources a churn round prices). Fat-trees have ≤ 2 distinct
degrees, so a layer is ~2 fused gather+reduce calls for *all* sources
at once. The distance planes are node-major (``(n, S)``) so the gathers
copy whole rows. The Python loop runs over layers (≤ hop budget, early
exit at convergence) and degree classes, never over sources or edges.

The class tables depend on the wiring alone, so they are built once per
wiring and kept with it (:meth:`Topology.csr_memo
<repro.topology.graph.Topology.csr_memo>`): they live as long as the
topology and are rebuilt exactly when its CSR structure is, after a
node or edge is added. A call only gathers its edge weights into the
``(d, count)`` lane shape.

Bit-identity with the per-source DP is by construction, not tolerance:
for every ``(source, node)`` cell a layer takes the IEEE minimum over
*exactly* the same operand set the per-source scatter formulation
produces (``prev[u] + w_e`` per incident lane, plus the carry
``prev[v]``), and a minimum over one operand set is
evaluation-order-independent for floats without NaNs (weights are
validated strictly positive). Distances accumulate as the same
left-fold along the same layer sequence, so ``best``/``hops`` match
:func:`hop_constrained_shortest` bit for bit — the property suite
asserts exact equality.

The relaxation loop itself is one private generator, :func:`_relax`.
:func:`matrix_hop_constrained` consumes it for ``best``/``hops`` (and
parents); :func:`_hop_layers` consumes it for every layer of the
planes, which the enumeration kernel's admissible bound reads.

Predecessor planes are optional (``with_parents=True``): per layer the
kernel recovers one witness lane per improved cell — the last CSR lane
achieving the new minimum, mirroring the per-source recovery's
later-writes-win (``tests.oracles.dp_witness_planes`` pins it plane for
plane) — and :meth:`MatrixDPResult.path_to` replays the per-source
reconstruction walk over the stored planes. Witness *choice* among ties
may differ from the per-source engine's (lane order differs from its
candidate order), so materialized paths are guaranteed optimal and
price-consistent, not identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.routing.routes import Path
from repro.topology.graph import Topology

#: Soft cap on the per-layer gather temporary (elements of the
#: ``(lanes, block)`` plane); source blocks are sized to stay under it.
_GATHER_BUDGET = 8_000_000


@dataclass(frozen=True)
class MatrixDPResult:
    """All-sources result of the matrix DP.

    ``best[a, v]`` is the minimum hop-bounded path weight from
    ``sources[a]`` to ``v`` (``inf`` if unreachable in budget) and
    ``hops[a, v]`` the fewest hops achieving it (``-1`` unreachable).
    When parents were kept, ``layer_dist``/``parent_node``/
    ``parent_edge`` hold one node-major ``(n, S)`` plane per relaxation
    layer (truncated at convergence — later layers are identical), and
    :meth:`path_to` reconstructs optimal routes from them.
    """

    sources: Tuple[int, ...]
    max_hops: int
    best: np.ndarray
    hops: np.ndarray
    layer_dist: Optional[List[np.ndarray]] = None
    parent_node: Optional[List[np.ndarray]] = None
    parent_edge: Optional[List[np.ndarray]] = None

    def path_to(self, source_index: int, destination: int) -> Optional[Path]:
        """One optimal (weight-minimal, then hop-minimal) path from
        ``sources[source_index]`` to ``destination``; ``None`` when
        unreachable within the hop budget."""
        if self.layer_dist is None:
            raise RoutingError(
                "matrix DP ran without parents; pass with_parents=True "
                "to materialize paths"
            )
        a = source_index
        h = int(self.hops[a, destination])
        if h < 0:
            return None
        source = self.sources[a]
        nodes: List[int] = [destination]
        edges: List[int] = []
        v = destination
        while v != source or h > 0:
            if h > 0 and self.layer_dist[h][v, a] < self.layer_dist[h - 1][v, a]:
                u = int(self.parent_node[h][v, a])
                e = int(self.parent_edge[h][v, a])
                edges.append(e)
                nodes.append(u)
                v = u
                h -= 1
            else:
                h -= 1
                if h < 0:  # pragma: no cover - DP invariant guards this
                    raise RoutingError("path reconstruction walked past layer 0")
        nodes.reverse()
        edges.reverse()
        return Path(nodes=tuple(nodes), edges=tuple(edges))


def _validate(
    topology: Topology, max_hops: Optional[int], edge_weights: np.ndarray
) -> Tuple[np.ndarray, int]:
    """Shared input validation, byte-compatible with the per-source DP
    (same checks, same messages) so rejection behavior is identical."""
    m = topology.num_edges
    weights = np.asarray(edge_weights, dtype=float)
    if weights.shape != (m,):
        raise RoutingError(f"expected {m} edge weights, got shape {weights.shape}")
    if m and weights.min() <= 0:
        raise RoutingError("edge weights must be strictly positive")
    if max_hops is None:
        max_hops = max(topology.num_nodes - 1, 0)
    if max_hops < 0:
        raise RoutingError(f"max_hops must be non-negative, got {max_hops}")
    return weights, int(max_hops)


class _DegreeClass(NamedTuple):
    """The ``count`` CSR rows of one degree ``d``, lane-major and
    read-only: entry ``[j, r]`` of a table is lane ``j`` of node
    ``nodes[r]``, in CSR order."""

    #: ``(count,)`` node ids.
    nodes: np.ndarray
    #: ``(d, count)`` neighbor ids.
    nbr: np.ndarray
    #: ``(d, count)`` edge ids.
    lane_edges: np.ndarray


def _build_degree_classes(topology: Topology) -> Tuple[_DegreeClass, ...]:
    indptr, indices, edge_ids = topology.csr_structure()
    degrees = np.diff(indptr)
    classes = []
    for d in np.unique(degrees):
        d = int(d)
        if d == 0:
            continue
        nodes_d = np.flatnonzero(degrees == d)
        lanes = indptr[nodes_d][None, :] + np.arange(d)[:, None]
        cls = _DegreeClass(nodes_d, indices[lanes], edge_ids[lanes])
        for arr in cls:
            arr.setflags(write=False)
        classes.append(cls)
    return tuple(classes)


def _degree_classes(topology: Topology) -> Tuple[_DegreeClass, ...]:
    """The CSR wiring regrouped into one :class:`_DegreeClass` per
    distinct nonzero degree, cached with the wiring. Zero-degree nodes
    form no class (their distance row can only hold the source's own
    0.0)."""
    return topology.csr_memo("degree_classes", _build_degree_classes)


def _gather_tables(
    topology: Topology, weights: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per degree class, ``(nodes, nbr, lane_edges, w)``: the cached
    class tables and this call's lane weights ``w``, lane-major
    ``(d, count)`` like ``nbr``."""
    return [(*cls, weights[cls.lane_edges]) for cls in _degree_classes(topology)]


def _relax(
    gather: List[Tuple[np.ndarray, ...]],
    prev: np.ndarray,
    H: int,
    witness: bool = False,
) -> Iterator[Tuple[int, np.ndarray, List[tuple]]]:
    """The degree-class relaxation: every matrix DP runs this one loop.

    From the node-major layer-0 plane ``prev`` (``(n, B)``), yields
    ``(h, plane, steps)`` for each layer ``h = 1..H`` that improves a
    cell, and stops at the first layer that improves none (every later
    layer would equal the last one yielded). ``plane`` is a fresh array
    the loop never writes again. ``steps`` holds ``(nodes, improved,
    parents)`` per class with an improved cell: ``improved`` is the
    class's ``(count, B)`` mask, and ``parents`` is ``None`` unless
    ``witness``, then ``(rows, cols, node, edge)`` — per improved cell
    the neighbor and edge of the last CSR lane achieving the new minimum
    (mirroring the per-source recovery's later-writes-win; any witness
    achieves the min).
    """
    for h in range(1, H + 1):
        new = prev.copy()
        steps = []
        for nodes_d, nbr, lane_edges, w in gather:
            d, count = nbr.shape
            # (d, count, B): weight of reaching each class node through
            # its j-th lane in slab j; the min over slabs is the
            # segmented CSR minimum, reduced over contiguous slabs.
            cand = np.take(prev, nbr.ravel(), axis=0).reshape(d, count, -1)
            cand = cand + w[:, :, None]
            seg_min = cand.min(axis=0)
            cur = prev[nodes_d]
            upd = np.minimum(cur, seg_min)
            improved = upd < cur
            if not improved.any():
                continue
            new[nodes_d] = upd
            parents = None
            if witness:
                # Lane j's 1-based position where it reaches the minimum,
                # else 0; the max over slabs is the last such lane.
                pos = np.arange(1, d + 1, dtype=np.int64)
                win = np.where(cand <= upd[None], pos[:, None, None], 0).max(axis=0)
                rows, cols = np.nonzero(improved)
                lane = win[rows, cols] - 1
                parents = (rows, cols, nbr[lane, rows], lane_edges[lane, rows])
            steps.append((nodes_d, improved, parents))
        if not steps:
            return
        yield h, new, steps
        prev = new


def _hop_layers(
    topology: Topology,
    sources: Sequence[int],
    max_hops: Optional[int],
    edge_weights: np.ndarray,
) -> np.ndarray:
    """Every layer of the relaxation from ``sources``, ``(S, H+1, n)``.

    ``[a, h, v]`` is the minimum weight of a walk of at most ``h`` edges
    between ``sources[a]`` and ``v``: the ``dist`` plane of
    :func:`~repro.routing.shortest.hop_constrained_shortest` from each
    source, bit for bit (same operand sets per layer), padded past
    convergence with the last layer. On an edgeless graph every layer
    is layer 0. The result is a transposed view of one node-major
    ``(H+1, n, S)`` stack.
    """
    weights, H = _validate(topology, max_hops, edge_weights)
    src = np.array([int(s) for s in sources], dtype=np.int64)
    layers = np.full((H + 1, topology.num_nodes, src.size), np.inf)
    layers[0, src, np.arange(src.size)] = 0.0
    last = 0
    if topology.num_edges and src.size:
        gather = _gather_tables(topology, weights)
        for last, plane, _ in _relax(gather, layers[0], H):
            layers[last] = plane
    layers[last + 1 :] = layers[last]
    return layers.transpose(2, 0, 1)


def matrix_hop_constrained(
    topology: Topology,
    sources: Sequence[int],
    max_hops: Optional[int],
    edge_weights: np.ndarray,
    with_parents: bool = False,
    source_block: Optional[int] = None,
) -> MatrixDPResult:
    """Relax all ``sources`` simultaneously over the cached CSR wiring.

    Without parents, sources are processed in blocks sized so the
    per-layer ``(lanes, block)`` gather stays within a fixed element
    budget (``source_block`` overrides); block boundaries cannot change
    any result — source columns are independent. With parents the whole
    source set runs as one block, since the reconstruction planes span
    all sources per layer anyway.
    """
    weights, H = _validate(topology, max_hops, edge_weights)
    n = topology.num_nodes
    src = [int(s) for s in sources]
    for s in src:
        topology.node(s)
    S = len(src)

    # Node-major working planes: dist[v, a] = best weight source a -> v.
    dist = np.full((n, S), np.inf)
    hops = np.full((n, S), -1, dtype=np.int64)
    if S:
        dist[src, np.arange(S)] = 0.0
        hops[src, np.arange(S)] = 0

    def _export(
        layer_dist: Optional[List[np.ndarray]],
        parent_node: Optional[List[np.ndarray]],
        parent_edge: Optional[List[np.ndarray]],
    ) -> MatrixDPResult:
        return MatrixDPResult(
            sources=tuple(src),
            max_hops=H,
            best=np.ascontiguousarray(dist.T),
            hops=np.ascontiguousarray(hops.T),
            layer_dist=layer_dist,
            parent_node=parent_node,
            parent_edge=parent_edge,
        )

    if topology.num_edges == 0 or H == 0 or S == 0:
        if with_parents:
            minus_one = np.full((n, S), -1, dtype=np.int64)
            return _export([dist.copy()], [minus_one], [minus_one.copy()])
        return _export(None, None, None)

    gather = _gather_tables(topology, weights)
    lanes = 2 * topology.num_edges  # CSR lanes run both directions

    if with_parents:
        col_blocks = [np.arange(S)]
    elif source_block is not None:
        step = int(source_block)
        col_blocks = [np.arange(i, min(i + step, S)) for i in range(0, S, step)]
    else:
        step = max(1, _GATHER_BUDGET // max(lanes, 1))
        col_blocks = [np.arange(i, min(i + step, S)) for i in range(0, S, step)]

    layer_dist: Optional[List[np.ndarray]] = None
    parent_node: Optional[List[np.ndarray]] = None
    parent_edge: Optional[List[np.ndarray]] = None
    if with_parents:
        layer_dist = [dist.copy()]
        parent_node = [np.full((n, S), -1, dtype=np.int64)]
        parent_edge = [np.full((n, S), -1, dtype=np.int64)]

    for cols in col_blocks:
        prev = dist[:, cols] if len(col_blocks) > 1 else dist
        block_hops = hops[:, cols] if len(col_blocks) > 1 else hops
        for h, plane, steps in _relax(gather, prev, H, witness=with_parents):
            if with_parents:
                layer_dist.append(plane)
                parent_node.append(np.full((n, S), -1, dtype=np.int64))
                parent_edge.append(np.full((n, S), -1, dtype=np.int64))
            for nodes_d, improved, parents in steps:
                block_hops[nodes_d] = np.where(improved, h, block_hops[nodes_d])
                if parents is not None:
                    rows, bcols, node, edge = parents
                    parent_node[h][nodes_d[rows], bcols] = node
                    parent_edge[h][nodes_d[rows], bcols] = edge
            prev = plane
        if len(col_blocks) > 1:
            dist[:, cols] = prev
            hops[:, cols] = block_hops
        else:
            dist = prev
            hops = block_hops

    return _export(layer_dist, parent_node, parent_edge)
