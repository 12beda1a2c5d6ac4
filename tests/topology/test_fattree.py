"""Tests for the fat-tree builder — counts must match the paper."""

import pytest

from repro.errors import TopologyError
from repro.topology import (
    NodeKind,
    build_fat_tree,
    build_fat_tree_with_layout,
    fat_tree_edge_count,
    fat_tree_node_count,
)
from tests.topologies import is_connected


@pytest.mark.parametrize(
    "k,nodes,edges",
    [(4, 20, 32), (8, 80, 256), (16, 320, 2048)],
)
def test_paper_sizes(k, nodes, edges):
    """The paper's table: 4-k => 20/32, 8-k => 80/256, 16-k => 320/2048."""
    topo = build_fat_tree(k)
    assert topo.num_nodes == nodes == fat_tree_node_count(k)
    assert topo.num_edges == edges == fat_tree_edge_count(k)


def test_64k_formulas():
    """5120 nodes / 131072 edges claimed for 64-k (formula check only —
    building it is exercised in the scalability experiment)."""
    assert fat_tree_node_count(64) == 5120
    assert fat_tree_edge_count(64) == 131072


def test_layer_populations():
    topo, layout = build_fat_tree_with_layout(4)
    assert len(layout.core) == 4
    assert len(layout.aggregation) == 8
    assert len(layout.edge) == 8
    assert not layout.servers
    assert set(layout.switches) == set(range(20))


def test_connected():
    assert is_connected(build_fat_tree(4))
    assert is_connected(build_fat_tree(8))


def test_degrees():
    """Core switches have degree k; agg degree k; edge degree k/2
    (switch-only graph)."""
    k = 4
    topo, layout = build_fat_tree_with_layout(k)
    for c in layout.core:
        assert topo.degree(c) == k
    for a in layout.aggregation:
        assert topo.degree(a) == k
    for e in layout.edge:
        assert topo.degree(e) == k // 2


def test_kinds_assigned():
    topo = build_fat_tree(4)
    assert len(topo.nodes_of_kind(NodeKind.CORE_SWITCH)) == 4
    assert len(topo.nodes_of_kind(NodeKind.AGG_SWITCH)) == 8
    assert len(topo.nodes_of_kind(NodeKind.EDGE_SWITCH)) == 8


def test_pods_annotated():
    topo, layout = build_fat_tree_with_layout(4)
    pods = {topo.node(a).pod for a in layout.aggregation}
    assert pods == set(range(4))
    for c in layout.core:
        assert topo.node(c).pod is None


def test_with_servers():
    topo, layout = build_fat_tree_with_layout(4, with_servers=True)
    # k^3/4 = 16 servers, each edge switch hosts k/2 = 2.
    assert len(layout.servers) == 16
    assert topo.num_nodes == 36
    for s in layout.servers:
        assert topo.degree(s) == 1
        assert topo.node(s).kind is NodeKind.SERVER


def test_odd_k_rejected():
    with pytest.raises(TopologyError, match="even"):
        build_fat_tree(3)
    with pytest.raises(TopologyError):
        build_fat_tree(0)


def test_custom_link_parameters():
    topo = build_fat_tree(4, capacity_mbps=40_000.0, latency_ms=0.2)
    assert topo.links[0].capacity_mbps == 40_000.0
    assert topo.links[0].latency_ms == 0.2


def test_intra_pod_bipartite_wiring():
    """Within a pod every agg connects to every edge switch."""
    topo, layout = build_fat_tree_with_layout(4)
    pod0_agg = [a for a in layout.aggregation if topo.node(a).pod == 0]
    pod0_edge = [e for e in layout.edge if topo.node(e).pod == 0]
    for a in pod0_agg:
        for e in pod0_edge:
            assert topo.has_edge(a, e)
