"""Hop-constrained shortest paths (layered Bellman–Ford DP).

The minimum response time ``Trmin_{i,j}`` of Eq. 2 is, for positive
edge weights ``D_i / Lu_e``, a *hop-bounded shortest path* — the
minimum over all paths with at most ``max_hops`` edges of the path
weight. Because ``D_i`` multiplies every edge equally, the DP runs on
the data-independent "resistance" ``1 / Lu_e`` and the caller scales by
``D_i`` afterwards.

The layered relaxation is vectorized over the whole edge set with
``np.minimum.at`` (scatter-min), i.e. each layer costs O(E) numpy work
instead of a Python loop per edge: this is the polynomial engine that
the ablation bench compares against the faithful exponential
enumeration in :mod:`repro.routing.enumkernel`.

With positive weights an optimal hop-bounded *walk* is always simple,
so the DP's optimum equals the enumeration's optimum — the test suite
asserts exactly this equivalence property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import RoutingError
from repro.routing.routes import Path
from repro.topology.graph import Topology


@dataclass(frozen=True)
class HopConstrainedResult:
    """All-destination result of one source's layered DP.

    Attributes
    ----------
    source:
        Source node id.
    max_hops:
        Hop budget ``H`` used by the DP.
    dist:
        ``(H+1, V)`` array; ``dist[h, v]`` is the minimum path weight
        from source to ``v`` using at most ``h`` edges (``inf`` when
        unreachable in budget). ``dist[0, source] == 0``.
    parent_node / parent_edge:
        ``(H+1, V)`` predecessor arrays for path reconstruction; entry
        ``[h, v]`` is valid only where layer ``h`` strictly improved
        ``v``.
    """

    source: int
    max_hops: int
    dist: np.ndarray
    parent_node: np.ndarray
    parent_edge: np.ndarray

    @property
    def best(self) -> np.ndarray:
        """Minimum weight to each node within the hop budget."""
        return self.dist[-1]

    def best_hops(self, tol: float = 0.0) -> np.ndarray:
        """Fewest hops achieving the best weight per node (paper's
        tie-break: "minimal hops distance priority whenever minimum
        response time is achieved"). ``-1`` for unreachable nodes."""
        final = self.dist[-1]
        reachable = np.isfinite(final)
        # First layer h where dist[h, v] <= best + tol.
        hits = self.dist <= final[None, :] + tol
        first = np.argmax(hits, axis=0)
        return np.where(reachable, first, -1)

    def path_to(self, destination: int) -> Optional[Path]:
        """Reconstruct one optimal (weight-minimal, then hop-minimal)
        path to ``destination``; ``None`` if unreachable in budget."""
        final = self.dist[-1, destination]
        if not np.isfinite(final):
            return None
        h = int(self.best_hops()[destination])
        nodes: List[int] = [destination]
        edges: List[int] = []
        v = destination
        while v != self.source or h > 0:
            if h > 0 and self.dist[h, v] < self.dist[h - 1, v]:
                u = int(self.parent_node[h, v])
                e = int(self.parent_edge[h, v])
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


def hop_constrained_shortest(
    topology: Topology,
    source: int,
    max_hops: Optional[int],
    edge_weights: np.ndarray,
) -> HopConstrainedResult:
    """Run the layered DP from ``source``.

    Parameters
    ----------
    topology:
        Graph to route on.
    source:
        Source node id.
    max_hops:
        Hop budget; ``None`` means ``num_nodes - 1`` (unbounded for
        simple paths).
    edge_weights:
        Positive per-edge weights indexed by edge id (typically
        ``1 / Lu_e``).
    """
    topology.node(source)
    n = topology.num_nodes
    m = topology.num_edges
    weights = np.asarray(edge_weights, dtype=float)
    if weights.shape != (m,):
        raise RoutingError(f"expected {m} edge weights, got shape {weights.shape}")
    if m and weights.min() <= 0:
        raise RoutingError("edge weights must be strictly positive")
    if max_hops is None:
        max_hops = max(n - 1, 0)
    if max_hops < 0:
        raise RoutingError(f"max_hops must be non-negative, got {max_hops}")

    H = int(max_hops)
    dist = np.full((H + 1, n), np.inf)
    parent_node = np.full((H + 1, n), -1, dtype=np.int64)
    parent_edge = np.full((H + 1, n), -1, dtype=np.int64)
    dist[0, source] = 0.0

    if m == 0 or H == 0:
        return HopConstrainedResult(source, H, dist, parent_node, parent_edge)

    us, vs = topology.edge_endpoint_arrays()
    eids = np.arange(m)
    # Both directions of every undirected edge.
    cand_from = np.concatenate([us, vs])
    cand_to = np.concatenate([vs, us])
    cand_eid = np.concatenate([eids, eids])
    cand_w = np.concatenate([weights, weights])

    prev = dist[0]
    for h in range(1, H + 1):
        vals = prev[cand_from] + cand_w
        new = prev.copy()
        np.minimum.at(new, cand_to, vals)
        improved = new < prev
        if improved.any():
            # Recover one argmin witness per improved target.
            hit = improved[cand_to] & (vals <= new[cand_to])
            idx = np.flatnonzero(hit)
            # Later writes win; all witnesses achieve the min, so any is fine.
            parent_node[h, cand_to[idx]] = cand_from[idx]
            parent_edge[h, cand_to[idx]] = cand_eid[idx]
        dist[h] = new
        if not improved.any():
            # Converged: remaining layers equal this one.
            dist[h + 1 :] = new
            break
        prev = new

    return HopConstrainedResult(source, H, dist, parent_node, parent_edge)


def shortest_path(
    topology: Topology,
    source: int,
    destination: int,
    edge_weights: np.ndarray,
    max_hops: Optional[int] = None,
) -> Optional[Path]:
    """Convenience wrapper: one optimal hop-bounded path or ``None``."""
    result = hop_constrained_shortest(topology, source, max_hops, edge_weights)
    return result.path_to(destination)
