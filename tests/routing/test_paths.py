"""Tests for the path type, kernel path counts and the reference DFS
(:func:`tests.oracles.iter_simple_paths`)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import Path, count_paths_kernel
from repro.topology import Topology, build_fat_tree
from tests.oracles import enumerate_paths, iter_simple_paths, to_networkx
from tests.topologies import build_random_connected, build_ring


class TestPathType:
    def test_valid_path(self):
        p = Path(nodes=(0, 1, 2), edges=(0, 1))
        assert p.source == 0
        assert p.destination == 2
        assert p.num_hops == 2
        assert p.relay_nodes == (1,)

    def test_trivial_path(self):
        p = Path(nodes=(3,), edges=())
        assert p.num_hops == 0
        assert p.relay_nodes == ()

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(RoutingError):
            Path(nodes=(0, 1), edges=())

    def test_revisit_rejected(self):
        with pytest.raises(RoutingError, match="revisits"):
            Path(nodes=(0, 1, 0), edges=(0, 1))

    def test_empty_path_rejected(self):
        with pytest.raises(RoutingError):
            Path(nodes=(), edges=())


class TestEnumeration:
    def test_ring_has_two_paths(self):
        topo = build_ring(6)
        paths = enumerate_paths(topo, 0, 3)
        assert len(paths) == 2
        assert {p.num_hops for p in paths} == {3}

    def test_hop_bound_prunes(self):
        topo = build_ring(6)
        assert count_paths_kernel(topo, 0, 3, max_hops=2) == 0
        assert count_paths_kernel(topo, 0, 3, max_hops=3) == 2
        assert count_paths_kernel(topo, 0, 1, max_hops=1) == 1

    def test_source_equals_destination(self):
        topo = build_ring(4)
        paths = enumerate_paths(topo, 2, 2)
        assert len(paths) == 1
        assert paths[0].num_hops == 0

    def test_max_hops_zero(self):
        topo = build_ring(4)
        assert count_paths_kernel(topo, 0, 1, max_hops=0) == 0
        assert count_paths_kernel(topo, 0, 0, max_hops=0) == 1

    def test_disconnected_pair_yields_nothing(self):
        topo = Topology()
        a = topo.add_node()
        b = topo.add_node()
        assert count_paths_kernel(topo, a, b) == 0

    def test_limit_caps_enumeration(self):
        topo = build_fat_tree(4)
        paths = enumerate_paths(topo, 8, 19, limit=5)
        assert len(paths) == 5

    def test_negative_max_hops_rejected(self):
        topo = build_ring(4)
        with pytest.raises(RoutingError):
            list(iter_simple_paths(topo, 0, 1, max_hops=-1))

    def test_paths_are_valid_and_unique(self):
        topo = build_fat_tree(4)
        paths = enumerate_paths(topo, 8, 14, max_hops=6)
        seen = set()
        for p in paths:
            assert p.source == 8 and p.destination == 14
            assert p.num_hops <= 6
            # Edges actually connect consecutive nodes.
            for (u, v), e in zip(zip(p.nodes, p.nodes[1:]), p.edges):
                assert topo.edge_id(u, v) == e
            assert p.nodes not in seen
            seen.add(p.nodes)

    def test_fat_tree_path_growth(self):
        """The exponential growth driving Figs. 8/10."""
        topo = build_fat_tree(4)
        counts = [count_paths_kernel(topo, 8, 19, max_hops=h) for h in (4, 6, 8)]
        assert counts[0] < counts[1] < counts[2]


class TestAgainstNetworkx:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=500),
        st.integers(min_value=1, max_value=6),
    )
    def test_property_matches_networkx_all_simple_paths(self, n, seed, max_hops):
        """Our DFS agrees with networkx on path sets (as node tuples)."""
        topo = build_random_connected(n, edge_probability=0.3, seed=seed)
        g = to_networkx(topo)
        src, dst = 0, n - 1
        ours = {p.nodes for p in iter_simple_paths(topo, src, dst, max_hops)}
        theirs = {
            tuple(p)
            for p in nx.all_simple_paths(g, src, dst, cutoff=max_hops)
        }
        assert ours == theirs
