"""Tests for the non-fat-tree fixture topologies in :mod:`tests.topologies`."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from tests.topologies import (
    build_line,
    build_random_connected,
    build_ring,
    build_star,
    is_connected,
)


class TestRingLineStar:
    def test_ring_degree_two(self):
        topo = build_ring(6)
        assert all(topo.degree(n) == 2 for n in range(6))
        assert topo.num_edges == 6

    def test_ring_minimum_size(self):
        with pytest.raises(TopologyError):
            build_ring(2)

    def test_line_endpoints(self):
        topo = build_line(5)
        assert topo.degree(0) == 1
        assert topo.degree(4) == 1
        assert topo.num_edges == 4

    def test_star_hub(self):
        topo = build_star(7)
        assert topo.degree(0) == 7
        assert all(topo.degree(n) == 1 for n in range(1, 8))


class TestRandomConnected:
    def test_always_connected(self):
        for seed in range(5):
            topo = build_random_connected(30, edge_probability=0.02, seed=seed)
            assert is_connected(topo)

    def test_deterministic_for_seed(self):
        a = build_random_connected(20, 0.2, seed=7)
        b = build_random_connected(20, 0.2, seed=7)
        assert a.num_edges == b.num_edges
        assert a.edges == b.edges

    def test_spanning_tree_minimum_edges(self):
        topo = build_random_connected(10, edge_probability=0.0, seed=1)
        assert topo.num_edges == 9  # exactly a tree

    def test_invalid_probability(self):
        with pytest.raises(TopologyError):
            build_random_connected(5, edge_probability=1.5)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=40),
        st.integers(min_value=0, max_value=1000),
    )
    def test_property_connected_and_simple(self, n, seed):
        topo = build_random_connected(n, edge_probability=0.1, seed=seed)
        assert is_connected(topo)
        # No duplicate edges by construction: endpoint set size == edge count.
        assert len(set(topo.edges)) == topo.num_edges
