"""Tests for Eq. 1/2 response-time computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import Path, PathEngine, ResponseTimeModel, TrminEngine
from repro.routing.routes import _TIE_TOL
from repro.topology import (
    BandwidthConvention,
    Link,
    LinkUtilizationModel,
    Topology,
    build_fat_tree,
)
from tests.oracles import best_route
from tests.topologies import build_random_connected, build_ring


def two_path_topology():
    """0 -> 2 directly (slow) or via 1 (fast)."""
    topo = Topology()
    n0, n1, n2 = topo.add_node(), topo.add_node(), topo.add_node()
    topo.add_edge(n0, n2, Link(capacity_mbps=100.0, utilization=0.0))  # 100 avail
    topo.add_edge(n0, n1, Link(capacity_mbps=10_000.0, utilization=0.0))
    topo.add_edge(n1, n2, Link(capacity_mbps=10_000.0, utilization=0.0))
    return topo


class TestEquationOne:
    def test_path_response_time(self):
        """Tr(r) = sum_e D/Lu_e."""
        topo = two_path_topology()
        lus = topo.effective_bandwidths(BandwidthConvention.AVAILABLE)
        direct = Path(nodes=(0, 2), edges=(0,))
        assert direct.response_time(10.0, lus) == pytest.approx(10.0 / 100.0)
        via = Path(nodes=(0, 1, 2), edges=(1, 2))
        assert via.response_time(10.0, lus) == pytest.approx(2 * 10.0 / 10_000.0)

    def test_zero_hop_path_is_free(self):
        assert Path(nodes=(0,), edges=()).response_time(5.0, np.zeros(0)) == 0.0

    def test_negative_volume_rejected(self):
        with pytest.raises(RoutingError):
            Path(nodes=(0,), edges=()).response_time(-1.0, np.zeros(0))


class TestBestRoute:
    def test_prefers_fast_two_hop_over_slow_direct(self):
        topo = two_path_topology()
        for engine in PathEngine:
            model = ResponseTimeModel(engine=engine, max_hops=None)
            choice = best_route(model, topo, 0, 2)
            assert choice is not None
            assert choice.path.nodes == (0, 1, 2), engine

    def test_hop_limit_forces_direct(self):
        topo = two_path_topology()
        for engine in PathEngine:
            model = ResponseTimeModel(engine=engine, max_hops=1)
            choice = best_route(model, topo, 0, 2)
            assert choice.path.nodes == (0, 2), engine

    def test_unreachable_returns_none(self):
        topo = Topology()
        a, b = topo.add_node(), topo.add_node()
        for engine in PathEngine:
            model = ResponseTimeModel(engine=engine)
            assert best_route(model, topo, a, b) is None

    def test_hop_tiebreak_on_equal_cost(self):
        """Two equal-cost routes: the one with fewer hops wins (paper's
        'minimal hops distance priority')."""
        topo = Topology()
        n0, n1, n2 = topo.add_node(), topo.add_node(), topo.add_node()
        # Direct edge with resistance 2/100; detour with 2 x 1/100 each = same.
        topo.add_edge(n0, n2, Link(capacity_mbps=50.0, utilization=0.0))
        topo.add_edge(n0, n1, Link(capacity_mbps=100.0, utilization=0.0))
        topo.add_edge(n1, n2, Link(capacity_mbps=100.0, utilization=0.0))
        for engine in PathEngine:
            model = ResponseTimeModel(engine=engine)
            choice = best_route(model, topo, 0, 2)
            assert choice.num_hops == 1, engine


class TestMatrices:
    def test_engines_agree_on_fat_tree(self):
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.8, seed=1).apply(topo)
        src, dst = [0, 5, 11], [3, 8, 19, 14]
        R_e, H_e, _ = ResponseTimeModel(
            engine=PathEngine.ENUMERATION, max_hops=6
        ).resistance_matrix(topo, src, dst)
        R_d, H_d, _ = ResponseTimeModel(
            engine=PathEngine.DP, max_hops=6
        ).resistance_matrix(topo, src, dst)
        np.testing.assert_allclose(R_e, R_d)
        np.testing.assert_array_equal(H_e, H_d)

    def test_trmin_scales_by_data_volume(self):
        """Eq. 2: Trmin = D_i * min-resistance."""
        topo = two_path_topology()
        model = ResponseTimeModel(engine=PathEngine.DP)
        R, _, _ = model.resistance_matrix(topo, [0], [2])
        T, _, _ = TrminEngine(model).trmin_matrix(topo, [0], [2], [25.0])
        assert T[0, 0] == pytest.approx(25.0 * R[0, 0])

    def test_same_node_pair_zero(self):
        topo = two_path_topology()
        for engine in PathEngine:
            model = ResponseTimeModel(engine=engine)
            R, H, _ = model.resistance_matrix(topo, [1], [1])
            assert R[0, 0] == 0.0
            assert H[0, 0] == 0

    def test_unreachable_inf_and_minus_one(self):
        topo = Topology()
        a, b = topo.add_node(), topo.add_node()
        for engine in PathEngine:
            R, H, _ = ResponseTimeModel(engine=engine).resistance_matrix(topo, [a], [b])
            assert np.isinf(R[0, 0])
            assert H[0, 0] == -1

    def test_with_paths_materializes_routes(self):
        topo = two_path_topology()
        model = ResponseTimeModel(engine=PathEngine.ENUMERATION)
        R, _, paths = model.resistance_matrix(topo, [0], [2], with_paths=True)
        assert (0, 2) in paths
        path = paths[(0, 2)]
        w = model.edge_weights(topo)
        assert sum(w[e] for e in path.edges) == pytest.approx(R[0, 0])

    def test_data_shape_validated(self):
        topo = two_path_topology()
        engine = TrminEngine(ResponseTimeModel(engine=PathEngine.DP))
        with pytest.raises(RoutingError, match="one data volume per source"):
            engine.trmin_matrix(topo, [0], [2], [1.0, 2.0])
        with pytest.raises(RoutingError, match="non-negative"):
            engine.trmin_matrix(topo, [0], [2], [-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_volume_rejected(self, bad):
        """NaN compares False against 0, so a sign check alone let it
        through to a NaN Trmin row; inf gave NaN on a zero-resistance
        pair. The Eq. 2 entry point refuses them."""
        topo = build_fat_tree(4)
        engine = TrminEngine(ResponseTimeModel(engine=PathEngine.DP, max_hops=4))
        with pytest.raises(RoutingError, match="finite"):
            engine.trmin_matrix(topo, [1, 2], [1, 5], [bad, 1.0])

    def test_convention_changes_weights(self):
        topo = two_path_topology()
        for link in topo.links:
            link.utilization = 0.4
        avail = ResponseTimeModel(convention=BandwidthConvention.AVAILABLE)
        literal = ResponseTimeModel(convention=BandwidthConvention.UTILIZED_LITERAL)
        w_a = avail.edge_weights(topo)
        w_l = literal.edge_weights(topo)
        assert not np.allclose(w_a, w_l)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=2, max_value=5),
    )
    def test_property_engine_equivalence_random_graphs(self, n, seed, max_hops):
        """ENUMERATION and DP give identical Trmin and hop counts."""
        topo = build_random_connected(n, 0.3, seed=seed)
        LinkUtilizationModel(0.1, 0.9, seed=seed + 1).apply(topo)
        src = [0]
        dst = list(range(1, n))
        R_e, H_e, _ = ResponseTimeModel(
            engine=PathEngine.ENUMERATION, max_hops=max_hops
        ).resistance_matrix(topo, src, dst)
        R_d, H_d, _ = ResponseTimeModel(
            engine=PathEngine.DP, max_hops=max_hops
        ).resistance_matrix(topo, src, dst)
        np.testing.assert_allclose(R_e, R_d, rtol=1e-9)
        np.testing.assert_array_equal(H_e, H_d)


class TestSummationOrder:
    """The engines' summation orders, pinned: enumeration ``R`` is
    ``np.add.reduceat`` over the winner's edges, which NumPy evaluates
    as ``w0 + (w1 + ...)``; DP ``R`` is the left fold ``(w0 + w1) + ...``
    along its walked route. They differ in the last bits on many pairs,
    so the check between engines is the margin the enumeration prune
    relies on, not equality."""

    MAX_HOPS = 5

    @staticmethod
    def _left_fold(weights, edges):
        total = 0.0
        for e in edges:
            total += float(weights[e])
        return total

    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_enum_reduceat_dp_left_fold_within_the_prune_margin(self, k, seed):
        topo = build_fat_tree(k)
        LinkUtilizationModel(0.1, 0.9, seed=seed).apply(topo)
        n, H = topo.num_nodes, self.MAX_HOPS
        sources, destinations = list(range(0, n, 3)), list(range(n))
        enum = ResponseTimeModel(engine=PathEngine.ENUMERATION, max_hops=H)
        dp = ResponseTimeModel(engine=PathEngine.DP, max_hops=H)
        w = enum.edge_weights(topo)
        R_e, H_e, paths_e = enum.resistance_matrix(topo, sources, destinations, True)
        R_d, _, paths_d = dp.resistance_matrix(topo, sources, destinations, True)
        assert np.array_equal(np.isfinite(R_e), np.isfinite(R_d))
        differ = 0
        for a, s in enumerate(sources):
            for b, d in enumerate(destinations):
                if s == d or not np.isfinite(R_e[a, b]):
                    continue
                edges_e = paths_e[(s, d)].edges
                assert len(edges_e) == H_e[a, b] <= H
                assert R_e[a, b] == np.add.reduceat(w[list(edges_e)], [0])[0]
                assert R_e[a, b] == w[edges_e[0]] + self._left_fold(w, edges_e[1:])
                assert R_d[a, b] == self._left_fold(w, paths_d[(s, d)].edges)
                margin = (H + 1) * _TIE_TOL + 64 * np.finfo(float).eps * (H + 1) * R_d[a, b]
                assert abs(R_e[a, b] - R_d[a, b]) <= margin
                differ += R_e[a, b] != R_d[a, b]
        assert differ > 0  # the orders really differ: equality is not the contract

    def test_dp_best_route_prices_its_route_as_the_dp_does(self):
        """A long dp route's ``R`` is the left fold of its edge weights,
        the price the route oracle computes."""
        topo = build_ring(24)
        LinkUtilizationModel(0.1, 0.9, seed=4).apply(topo)
        dp = ResponseTimeModel(engine=PathEngine.DP)
        w = dp.edge_weights(topo)
        for destination in range(9, 16):
            choice = best_route(dp, topo, 0, destination)
            R, _, _ = dp.resistance_matrix(topo, [0], [destination])
            assert choice.num_hops >= 9
            assert choice.response_time_s == R[0, 0]
            assert R[0, 0] == self._left_fold(w, choice.path.edges)
