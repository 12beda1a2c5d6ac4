"""Tests for the Topology graph type."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import BandwidthConvention, Link, NodeKind, Topology
from tests.topologies import is_connected


def triangle():
    topo = Topology("tri")
    a = topo.add_node(kind=NodeKind.CORE_SWITCH)
    b = topo.add_node(kind=NodeKind.SERVER)
    c = topo.add_node()
    topo.add_edge(a, b, Link(capacity_mbps=100.0, utilization=0.5))
    topo.add_edge(b, c, Link(capacity_mbps=200.0, utilization=0.25))
    topo.add_edge(a, c)
    return topo, (a, b, c)


class TestConstruction:
    def test_nodes_get_dense_ids(self):
        topo = Topology()
        assert [topo.add_node() for _ in range(3)] == [0, 1, 2]

    def test_default_names(self):
        topo = Topology()
        nid = topo.add_node()
        assert topo.node(nid).name == "n0"

    def test_self_loop_rejected(self):
        topo = Topology()
        a = topo.add_node()
        with pytest.raises(TopologyError, match="self-loop"):
            topo.add_edge(a, a)

    def test_duplicate_edge_rejected(self):
        topo, (a, b, _) = triangle()
        with pytest.raises(TopologyError, match="duplicate"):
            topo.add_edge(b, a)

    def test_unknown_node_rejected(self):
        topo = Topology()
        topo.add_node()
        with pytest.raises(TopologyError):
            topo.add_edge(0, 5)
        with pytest.raises(TopologyError):
            topo.node(9)


class TestQueries:
    def test_counts(self):
        topo, _ = triangle()
        assert topo.num_nodes == 3
        assert topo.num_edges == 3

    def test_neighbors_and_degree(self):
        topo, (a, b, c) = triangle()
        assert sorted(topo.neighbors(a)) == [b, c]
        assert topo.degree(b) == 2

    def test_edge_id_is_order_insensitive(self):
        topo, (a, b, _) = triangle()
        assert topo.edge_id(a, b) == topo.edge_id(b, a)

    def test_link_between(self):
        topo, (a, b, _) = triangle()
        assert topo.link_between(a, b).capacity_mbps == 100.0

    def test_missing_edge_raises(self):
        topo = Topology()
        a, b = topo.add_node(), topo.add_node()
        with pytest.raises(TopologyError, match="no edge"):
            topo.edge_id(a, b)

    def test_has_edge(self):
        topo, (a, b, c) = triangle()
        assert topo.has_edge(a, b)
        assert topo.has_edge(b, a)

    def test_nodes_of_kind(self):
        topo, (a, b, _) = triangle()
        assert topo.nodes_of_kind(NodeKind.CORE_SWITCH) == [a]
        assert topo.nodes_of_kind(NodeKind.SERVER) == [b]

    def test_incident_pairs(self):
        topo, (a, b, _) = triangle()
        incident = dict(topo.incident(a))
        assert b in incident

    def test_iteration_yields_nodes(self):
        topo, _ = triangle()
        assert len(list(topo)) == 3


class TestVectorizedViews:
    def test_effective_bandwidths_available(self):
        topo, _ = triangle()
        lus = topo.effective_bandwidths(BandwidthConvention.AVAILABLE)
        assert lus[0] == pytest.approx(50.0)
        assert lus[1] == pytest.approx(150.0)

    def test_effective_bandwidths_literal(self):
        topo, _ = triangle()
        lus = topo.effective_bandwidths(BandwidthConvention.UTILIZED_LITERAL)
        assert lus[0] == pytest.approx(50.0)
        assert lus[1] == pytest.approx(50.0)

    def test_edge_endpoint_arrays(self):
        topo, _ = triangle()
        us, vs = topo.edge_endpoint_arrays()
        assert us.shape == (3,)
        assert (us < vs).all()

    def test_edge_endpoint_arrays_follow_growth(self):
        """Cached with the CSR wiring, so an edge added after a call
        shows in the next; callers get read-only views."""
        topo, _ = triangle()
        us, vs = topo.edge_endpoint_arrays()
        assert topo.edge_endpoint_arrays()[0] is us  # served from the cache
        assert not us.flags.writeable and not vs.flags.writeable
        d = topo.add_node()
        topo.add_edge(0, d, Link(capacity_mbps=100.0))
        us2, vs2 = topo.edge_endpoint_arrays()
        assert us2.shape == vs2.shape == (4,)
        assert (us2[-1], vs2[-1]) == (0, d)
        assert list(zip(us2.tolist(), vs2.tolist())) == list(topo.edges)

    def test_empty_graph_arrays(self):
        topo = Topology()
        us, vs = topo.edge_endpoint_arrays()
        assert us.size == 0 and vs.size == 0


class TestConnectivity:
    def test_connected_triangle(self):
        topo, _ = triangle()
        assert is_connected(topo)

    def test_disconnected_detected(self):
        topo = Topology()
        topo.add_node()
        topo.add_node()
        assert not is_connected(topo)

    def test_empty_graph_counts_as_connected(self):
        assert is_connected(Topology())
