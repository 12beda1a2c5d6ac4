"""Network topology substrate: graphs, the fat-tree builder, links, capacities."""

from __future__ import annotations

from repro.topology.capacity import CapacityDistribution, CapacityModel
from repro.topology.fattree import (
    PAPER_FAT_TREE_SIZES,
    FatTreeLayout,
    build_fat_tree,
    build_fat_tree_with_layout,
    fat_tree_cache_clear,
    fat_tree_cache_info,
    fat_tree_edge_count,
    fat_tree_node_count,
)
from repro.topology.graph import CSRAdjacency, Node, NodeKind, Topology, TopologyArrays
from repro.topology.links import (
    MIN_EFFECTIVE_BANDWIDTH_MBPS,
    BandwidthConvention,
    Link,
    LinkUtilizationModel,
)

__all__ = [
    "BandwidthConvention",
    "CSRAdjacency",
    "CapacityDistribution",
    "CapacityModel",
    "FatTreeLayout",
    "TopologyArrays",
    "Link",
    "LinkUtilizationModel",
    "MIN_EFFECTIVE_BANDWIDTH_MBPS",
    "Node",
    "NodeKind",
    "PAPER_FAT_TREE_SIZES",
    "Topology",
    "build_fat_tree",
    "build_fat_tree_with_layout",
    "fat_tree_cache_clear",
    "fat_tree_cache_info",
    "fat_tree_edge_count",
    "fat_tree_node_count",
]
