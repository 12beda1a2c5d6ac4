"""Tests for the hop-constrained Bellman–Ford DP."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import hop_constrained_shortest, shortest_path
from repro.topology import Topology
from tests.oracles import iter_simple_paths, to_networkx
from tests.topologies import build_line, build_random_connected, build_ring


def weighted_ring(n=6, seed=0):
    topo = build_ring(n)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 2.0, topo.num_edges)
    return topo, weights


class TestBasics:
    def test_source_distance_zero(self):
        topo, w = weighted_ring()
        result = hop_constrained_shortest(topo, 0, 4, w)
        assert result.best[0] == 0.0

    def test_line_distances_accumulate(self):
        topo = build_line(4)
        w = np.array([1.0, 2.0, 3.0])
        result = hop_constrained_shortest(topo, 0, None, w)
        np.testing.assert_allclose(result.best, [0.0, 1.0, 3.0, 6.0])

    def test_hop_budget_limits_reach(self):
        topo = build_line(4)
        w = np.ones(3)
        result = hop_constrained_shortest(topo, 0, 1, w)
        assert np.isfinite(result.best[1])
        assert np.isinf(result.best[2])
        assert np.isinf(result.best[3])

    def test_best_hops_tiebreak(self):
        """best_hops returns the fewest hops achieving the optimum."""
        topo = build_ring(4)  # 0-1-2-3-0
        w = np.ones(4)
        result = hop_constrained_shortest(topo, 0, None, w)
        hops = result.best_hops()
        assert hops[0] == 0
        assert hops[1] == 1
        assert hops[2] == 2  # both ways cost 2; fewest hops is 2
        assert hops[3] == 1

    def test_unreachable_reported(self):
        topo = Topology()
        a = topo.add_node()
        b = topo.add_node()
        result = hop_constrained_shortest(topo, a, None, np.zeros(0))
        assert np.isinf(result.best[b])
        assert result.best_hops()[b] == -1
        assert result.path_to(b) is None

    def test_zero_hop_budget(self):
        topo, w = weighted_ring()
        result = hop_constrained_shortest(topo, 0, 0, w)
        assert result.best[0] == 0.0
        assert np.isinf(result.best[1:]).all()


class TestPathReconstruction:
    def test_path_cost_matches_distance(self):
        topo, w = weighted_ring(8, seed=3)
        result = hop_constrained_shortest(topo, 0, None, w)
        for dst in range(8):
            path = result.path_to(dst)
            assert path is not None
            cost = sum(w[e] for e in path.edges)
            assert cost == pytest.approx(result.best[dst])

    def test_path_respects_hop_budget(self):
        topo = build_random_connected(15, 0.2, seed=4)
        w = np.random.default_rng(0).uniform(0.1, 1.0, topo.num_edges)
        for H in (1, 2, 3):
            result = hop_constrained_shortest(topo, 0, H, w)
            for dst in range(15):
                path = result.path_to(dst)
                if path is not None:
                    assert path.num_hops <= H

    def test_path_is_simple_and_consistent(self):
        topo = build_random_connected(20, 0.25, seed=9)
        w = np.random.default_rng(1).uniform(0.1, 2.0, topo.num_edges)
        result = hop_constrained_shortest(topo, 3, 6, w)
        for dst in range(20):
            path = result.path_to(dst)
            if path is None:
                continue
            assert path.source == 3
            assert path.destination == dst
            for (u, v), e in zip(zip(path.nodes, path.nodes[1:]), path.edges):
                assert topo.edge_id(u, v) == e


class TestValidation:
    def test_wrong_weight_shape(self):
        topo = build_ring(4)
        with pytest.raises(RoutingError, match="edge weights"):
            hop_constrained_shortest(topo, 0, 2, np.ones(3))

    def test_nonpositive_weights_rejected(self):
        topo = build_ring(4)
        with pytest.raises(RoutingError, match="positive"):
            hop_constrained_shortest(topo, 0, 2, np.zeros(4))

    def test_negative_hops_rejected(self):
        topo = build_ring(4)
        with pytest.raises(RoutingError):
            hop_constrained_shortest(topo, 0, -1, np.ones(4))


class TestAgainstNetworkx:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=15),
        st.integers(min_value=0, max_value=500),
    )
    def test_property_unbounded_matches_dijkstra(self, n, seed):
        topo = build_random_connected(n, edge_probability=0.3, seed=seed)
        rng = np.random.default_rng(seed + 1)
        w = rng.uniform(0.1, 5.0, topo.num_edges)
        g = to_networkx(topo)
        for (u, v), weight in zip(topo.edges, w):
            g[u][v]["weight"] = float(weight)
        result = hop_constrained_shortest(topo, 0, None, w)
        lengths = nx.single_source_dijkstra_path_length(g, 0, weight="weight")
        for node in range(n):
            assert result.best[node] == pytest.approx(lengths[node])

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=3, max_value=10),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=1, max_value=5),
    )
    def test_property_bounded_matches_enumeration(self, n, seed, max_hops):
        """DP optimum == min over exhaustively enumerated paths (the
        paper's two route engines are exchangeable)."""
        topo = build_random_connected(n, edge_probability=0.3, seed=seed)
        rng = np.random.default_rng(seed + 7)
        w = rng.uniform(0.1, 5.0, topo.num_edges)
        result = hop_constrained_shortest(topo, 0, max_hops, w)
        for dst in range(n):
            best_enum = np.inf
            for path in iter_simple_paths(topo, 0, dst, max_hops):
                best_enum = min(best_enum, sum(w[e] for e in path.edges))
            if np.isinf(best_enum):
                assert np.isinf(result.best[dst])
            else:
                assert result.best[dst] == pytest.approx(best_enum)


def test_shortest_path_wrapper():
    topo = build_line(3)
    w = np.ones(2)
    path = shortest_path(topo, 0, 2, w)
    assert path is not None and path.nodes == (0, 1, 2)
    assert shortest_path(topo, 0, 2, w, max_hops=1) is None
