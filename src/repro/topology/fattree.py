"""Three-level k-port fat-tree builder (Al-Fares et al., SIGCOMM'08).

The paper's scalability testbeds are switch-level fat-trees:

===== ======= ======= =========
k     nodes   edges   paper class
===== ======= ======= =========
4     20      32      small-scale
8     80      256     large-scale
16    320     2048    large-scale
64    5120    131072  large-scale
===== ======= ======= =========

Node/edge counts follow from the standard construction with k pods,
``k/2`` edge and ``k/2`` aggregation switches per pod and ``(k/2)^2``
core switches: ``5k^2/4`` switches, ``k^3/2`` switch-to-switch links
(``k^3/4`` edge-agg + ``k^3/4`` agg-core). Servers are *not*
materialized by default (the paper counts only network nodes) but can
be attached with ``with_servers=True`` for testbed-style scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from repro.errors import TopologyError
from repro.topology.graph import NodeKind, Topology, TopologyArrays
from repro.topology.links import Link


@dataclass(frozen=True)
class FatTreeLayout:
    """Index bookkeeping for a built fat-tree."""

    k: int
    core: List[int]
    aggregation: List[int]
    edge: List[int]
    servers: List[int]

    @property
    def switches(self) -> List[int]:
        return self.core + self.aggregation + self.edge


def fat_tree_node_count(k: int) -> int:
    """Number of switches in a k-port 3-level fat-tree: ``5k^2/4``."""
    return 5 * k * k // 4


def fat_tree_edge_count(k: int) -> int:
    """Number of switch-to-switch links: ``k^3/2``."""
    return k**3 // 2


def build_fat_tree(
    k: int,
    capacity_mbps: float = 10_000.0,
    latency_ms: float = 0.05,
    with_servers: bool = False,
    name: str = "",
) -> Topology:
    """Build a k-port fat-tree. ``k`` must be even and ≥ 2.

    Wiring follows the canonical scheme: core switch ``(i, j)`` (for
    ``i, j in range(k/2)``) connects to aggregation switch ``i`` of
    every pod; within a pod, aggregation and edge layers form a
    complete bipartite graph. With ``with_servers=True``, each edge
    switch additionally hosts ``k/2`` server nodes.
    """
    topo, _ = build_fat_tree_with_layout(
        k,
        capacity_mbps=capacity_mbps,
        latency_ms=latency_ms,
        with_servers=with_servers,
        name=name,
    )
    return topo


def build_fat_tree_with_layout(
    k: int,
    capacity_mbps: float = 10_000.0,
    latency_ms: float = 0.05,
    with_servers: bool = False,
    name: str = "",
):
    """Like :func:`build_fat_tree` but also returns the
    :class:`FatTreeLayout` index map.

    Construction is memoized per parameter tuple: the O(k^3) wiring
    runs once, is cached as a plain-array blueprint, and every call
    materializes a fresh, independently mutable :class:`Topology` from
    it (so mutating one build — and its ``version`` counter — never
    leaks into another).
    """
    arrays, layout = _fat_tree_blueprint(
        k, float(capacity_mbps), float(latency_ms), bool(with_servers), str(name)
    )
    topo = Topology.from_arrays(arrays)
    return topo, FatTreeLayout(
        k=layout.k,
        core=list(layout.core),
        aggregation=list(layout.aggregation),
        edge=list(layout.edge),
        servers=list(layout.servers),
    )


def fat_tree_arrays(
    k: int,
    capacity_mbps: float = 10_000.0,
    latency_ms: float = 0.05,
    with_servers: bool = False,
    name: str = "",
) -> TopologyArrays:
    """The cached array blueprint of a fat-tree, without materializing
    a :class:`Topology` — the snapshot every :func:`build_fat_tree`
    call materializes from."""
    arrays, _ = _fat_tree_blueprint(
        k, float(capacity_mbps), float(latency_ms), bool(with_servers), str(name)
    )
    return arrays


def fat_tree_cache_info():
    """``functools.lru_cache`` statistics of the blueprint memo."""
    return _fat_tree_blueprint.cache_info()


def fat_tree_cache_clear() -> None:
    """Drop every memoized blueprint (mostly for tests)."""
    _fat_tree_blueprint.cache_clear()


@lru_cache(maxsize=16)
def _fat_tree_blueprint(
    k: int,
    capacity_mbps: float,
    latency_ms: float,
    with_servers: bool,
    name: str,
) -> Tuple[TopologyArrays, FatTreeLayout]:
    topo, layout = _build_fat_tree_uncached(
        k,
        capacity_mbps=capacity_mbps,
        latency_ms=latency_ms,
        with_servers=with_servers,
        name=name,
    )
    return topo.to_arrays(), layout


def _build_fat_tree_uncached(
    k: int,
    capacity_mbps: float = 10_000.0,
    latency_ms: float = 0.05,
    with_servers: bool = False,
    name: str = "",
):
    if k < 2 or k % 2 != 0:
        raise TopologyError(f"fat-tree requires an even k >= 2, got {k}")
    half = k // 2
    topo = Topology(name=name or f"fat-tree-{k}")

    core = [
        topo.add_node(name=f"core-{i}-{j}", kind=NodeKind.CORE_SWITCH)
        for i in range(half)
        for j in range(half)
    ]
    aggregation: List[int] = []
    edge: List[int] = []
    servers: List[int] = []

    # add_edge copies a link's state into the topology's arrays, so one
    # Link serves every edge.
    link = Link(capacity_mbps=capacity_mbps, utilization=0.0, latency_ms=latency_ms)

    for pod in range(k):
        pod_agg = [
            topo.add_node(name=f"agg-{pod}-{a}", kind=NodeKind.AGG_SWITCH, pod=pod)
            for a in range(half)
        ]
        pod_edge = [
            topo.add_node(name=f"edge-{pod}-{e}", kind=NodeKind.EDGE_SWITCH, pod=pod)
            for e in range(half)
        ]
        aggregation.extend(pod_agg)
        edge.extend(pod_edge)
        # Pod-internal complete bipartite agg <-> edge.
        for agg_node in pod_agg:
            for edge_node in pod_edge:
                topo.add_edge(agg_node, edge_node, link)
        # Core uplinks: agg switch a of the pod reaches core row a.
        for a, agg_node in enumerate(pod_agg):
            for j in range(half):
                topo.add_edge(core[a * half + j], agg_node, link)
        if with_servers:
            for e, edge_node in enumerate(pod_edge):
                for s in range(half):
                    server = topo.add_node(
                        name=f"srv-{pod}-{e}-{s}", kind=NodeKind.SERVER, pod=pod
                    )
                    servers.append(server)
                    topo.add_edge(edge_node, server, link)

    layout = FatTreeLayout(k=k, core=core, aggregation=aggregation, edge=edge, servers=servers)
    return topo, layout


#: Fat-tree sizes evaluated in the paper, keyed by its own labels.
PAPER_FAT_TREE_SIZES = {
    "small-scale (4-k)": 4,
    "large-scale (8-k)": 8,
    "large-scale (16-k)": 16,
    "large-scale (64-k)": 64,
}
