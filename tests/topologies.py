"""Small non-fat-tree fixture topologies for the unit and property suites.

Every experiment runs on a k-port fat-tree
(:func:`repro.topology.build_fat_tree`); these rings, lines, stars and
connected random graphs exist only so the tests can hit routing and
placement corner cases a fat-tree never produces.
"""

from typing import Optional

import numpy as np

from repro.errors import TopologyError
from repro.topology import Link, NodeKind, Topology


def _link(capacity_mbps: float, latency_ms: float) -> Link:
    return Link(capacity_mbps=capacity_mbps, utilization=0.0, latency_ms=latency_ms)


def build_ring(num_nodes: int, capacity_mbps: float = 10_000.0, latency_ms: float = 0.1) -> Topology:
    """A cycle of ``num_nodes`` switches (num_nodes >= 3)."""
    if num_nodes < 3:
        raise TopologyError(f"ring needs >= 3 nodes, got {num_nodes}")
    topo = Topology(name=f"ring-{num_nodes}")
    nodes = [topo.add_node(kind=NodeKind.SWITCH) for _ in range(num_nodes)]
    for i in range(num_nodes):
        topo.add_edge(nodes[i], nodes[(i + 1) % num_nodes], _link(capacity_mbps, latency_ms))
    return topo


def build_line(num_nodes: int, capacity_mbps: float = 10_000.0, latency_ms: float = 0.1) -> Topology:
    """A path graph — the worst case for one-hop heuristic offloading."""
    if num_nodes < 2:
        raise TopologyError(f"line needs >= 2 nodes, got {num_nodes}")
    topo = Topology(name=f"line-{num_nodes}")
    nodes = [topo.add_node(kind=NodeKind.SWITCH) for _ in range(num_nodes)]
    for i in range(num_nodes - 1):
        topo.add_edge(nodes[i], nodes[i + 1], _link(capacity_mbps, latency_ms))
    return topo


def build_star(num_leaves: int, capacity_mbps: float = 10_000.0, latency_ms: float = 0.05) -> Topology:
    """One hub connected to ``num_leaves`` leaves (node 0 is the hub)."""
    if num_leaves < 1:
        raise TopologyError(f"star needs >= 1 leaf, got {num_leaves}")
    topo = Topology(name=f"star-{num_leaves}")
    hub = topo.add_node(name="hub", kind=NodeKind.AGG_SWITCH)
    for _ in range(num_leaves):
        leaf = topo.add_node(kind=NodeKind.EDGE_SWITCH)
        topo.add_edge(hub, leaf, _link(capacity_mbps, latency_ms))
    return topo


def build_random_connected(
    num_nodes: int,
    edge_probability: float = 0.15,
    seed: Optional[int] = None,
    capacity_mbps: float = 10_000.0,
    latency_ms: float = 0.1,
) -> Topology:
    """Connected Erdős–Rényi graph: a random spanning tree first (so
    even sparse probabilities stay connected), then independent extra
    edges."""
    if num_nodes < 2:
        raise TopologyError(f"random graph needs >= 2 nodes, got {num_nodes}")
    if not 0.0 <= edge_probability <= 1.0:
        raise TopologyError(f"edge probability must be in [0, 1], got {edge_probability}")
    rng = np.random.default_rng(seed)
    topo = Topology(name=f"random-{num_nodes}")
    for _ in range(num_nodes):
        topo.add_node(kind=NodeKind.SWITCH)
    # Random spanning tree via random attachment order.
    order = rng.permutation(num_nodes)
    for idx in range(1, num_nodes):
        u = int(order[idx])
        v = int(order[rng.integers(0, idx)])
        topo.add_edge(u, v, _link(capacity_mbps, latency_ms))
    for u in range(num_nodes):
        for v in range(u + 1, num_nodes):
            if not topo.has_edge(u, v) and rng.random() < edge_probability:
                topo.add_edge(u, v, _link(capacity_mbps, latency_ms))
    return topo


def is_connected(topology: Topology) -> bool:
    """DFS connectivity check (an empty graph counts as connected)."""
    if topology.num_nodes == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        for v in topology.neighbors(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == topology.num_nodes
