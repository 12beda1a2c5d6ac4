"""Exhaustive hop-bounded simple-path enumeration.

This is the *faithful* route engine: the paper's optimizer "accounts
for all feasible paths between a Busy node and an Offload-candidate
node" and its complexity analysis (Section IV-D) prices the ILP at
``~k^6`` in a k-port fat-tree precisely because of this enumeration.
The exponential growth of enumerated paths with ``max_hops`` is what
Figures 8 and 10 measure, so the engine deliberately materializes each
path.

For the polynomial alternative see :mod:`repro.routing.shortest`; for
the vectorized frontier-expansion form of this same enumeration (what
counting and Trmin pricing run on) see :mod:`repro.routing.enumkernel`
— this module remains the readable form it is property-tested
against.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import RoutingError
from repro.routing.routes import Path
from repro.topology.graph import Topology


def iter_simple_paths_raw(
    topology: Topology,
    source: int,
    destination: int,
    max_hops: Optional[int] = None,
) -> Iterator[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Yield every simple path as a raw ``(nodes, edges)`` tuple pair.

    Identical traversal to :func:`iter_simple_paths` but skips the
    :class:`Path` dataclass construction (and its validation) per path —
    the matrix hot loop prices thousands of paths per pair and only
    materializes the winner.
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
            popped = node_stack.pop()
            on_path[popped] = False
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


def iter_simple_paths(
    topology: Topology,
    source: int,
    destination: int,
    max_hops: Optional[int] = None,
) -> Iterator[Path]:
    """Yield every simple path from ``source`` to ``destination`` with at
    most ``max_hops`` edges (unbounded when ``None``).

    Iterative DFS with an explicit stack; paths are yielded in DFS
    order. ``source == destination`` yields the trivial zero-hop path.
    """
    for nodes, edges in iter_simple_paths_raw(topology, source, destination, max_hops):
        yield Path(nodes=nodes, edges=edges)


def enumerate_paths(
    topology: Topology,
    source: int,
    destination: int,
    max_hops: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[Path]:
    """Materialize :func:`iter_simple_paths` (optionally capped at
    ``limit`` paths — a cap makes the faithful engine usable on
    topologies where full enumeration would exhaust memory).

    With a ``limit`` the raw iterator is consumed directly and paths
    are built with the trusted constructor (the DFS's on-path array
    already guarantees every invariant ``Path`` would re-check), since
    capped enumeration exists precisely for topologies where per-path
    overhead dominates. The cap keeps DFS-prefix semantics: the first
    ``limit`` paths in DFS order, identical to the uncapped prefix.
    """
    if limit is not None:
        out: List[Path] = []
        for nodes, edges in iter_simple_paths_raw(
            topology, source, destination, max_hops
        ):
            out.append(Path.trusted(nodes, edges))
            if len(out) >= limit:
                break
        return out
    return list(iter_simple_paths(topology, source, destination, max_hops))

