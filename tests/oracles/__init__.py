"""Slow, readable oracles the routing kernels are held bit-equal to.

``src/`` has one pricing pipeline (matrix DP, enumeration kernel); the
implementations it replaced live on here, composed from primitives that
stay public, so the suites compare ``==`` / ``array_equal`` against
them instead of against a runtime-selectable second engine.
"""

import numpy as np

from repro.routing import PathEngine, hop_constrained_shortest, iter_simple_paths_raw
from repro.routing.response_time import _fold_raw_paths
from repro.routing.routes import Path


def enum_best_route(topology, source, destination, max_hops, edge_weights):
    """``(resistance, hops, (nodes, edges))`` by folding *every*
    hop-bounded simple path in DFS order — no kernel, no pruning."""
    return _fold_raw_paths(
        iter_simple_paths_raw(topology, source, destination, max_hops), edge_weights
    )


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


def resistance_matrix(model, topology, sources, destinations):
    """What ``model.resistance_matrix(..., with_paths=True)`` must equal.

    ``paths`` is ``None`` for a dp model: the matrix kernel's tie
    witnesses are its own, so dp paths are checked for price
    consistency rather than identity.
    """
    weights = model.edge_weights(topology)
    if model.engine is PathEngine.DP:
        best, hops = dp_matrix(topology, sources, model.max_hops, weights)
        cols = np.asarray(destinations, dtype=int)
        return best[:, cols], hops[:, cols], None
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
