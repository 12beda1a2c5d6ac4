"""Bit-identity of the matrix Trmin DP kernel vs the per-source DP.

The matrix kernel promises *exact* equality of ``best``/``hops`` with
:func:`repro.routing.hop_constrained_shortest` looped per source
(:func:`tests.oracles.dp_matrix`; see the operand-set argument in
:mod:`repro.routing.matrix`), so these tests compare with
``np.array_equal`` — no tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError
from repro.routing import hop_constrained_shortest
from repro.routing.engine import TrminEngine
from repro.routing.matrix import _degree_classes, matrix_hop_constrained
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology import Topology
from repro.topology.fattree import build_fat_tree
from tests import oracles
from tests.topologies import build_random_connected, build_ring


def _assert_bit_identical(topology, sources, max_hops, weights, **kwargs):
    result = matrix_hop_constrained(topology, sources, max_hops, weights, **kwargs)
    best, hops = oracles.dp_matrix(topology, sources, max_hops, weights)
    assert np.array_equal(result.best, best)
    assert np.array_equal(result.hops, hops)
    return result


def two_rings(n=4):
    """Two disconnected rings — every cross-component pair is unreachable."""
    topo = Topology()
    for _ in range(2 * n):
        topo.add_node()
    for base in (0, n):
        for i in range(n):
            topo.add_edge(base + i, base + (i + 1) % n)
    return topo


class TestBitIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=3, max_value=18),
        st.integers(min_value=0, max_value=500),
        st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    )
    def test_property_random_topologies(self, n, seed, max_hops):
        topo = build_random_connected(n, edge_probability=0.3, seed=seed)
        rng = np.random.default_rng(seed + 11)
        w = rng.uniform(0.1, 5.0, topo.num_edges)
        sources = list(range(0, n, 2))
        _assert_bit_identical(topo, sources, max_hops, w)

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_fat_tree_tiers(self, k):
        topo = build_fat_tree(k)
        rng = np.random.default_rng(k)
        w = rng.uniform(0.01, 2.0, topo.num_edges)
        max_hops = int(rng.integers(1, 9))
        sources = list(rng.choice(topo.num_nodes, size=min(8, topo.num_nodes), replace=False))
        _assert_bit_identical(topo, [int(s) for s in sources], max_hops, w)

    def test_disconnected_pairs_stay_infinite(self):
        topo = two_rings(4)
        w = np.random.default_rng(0).uniform(0.5, 1.5, topo.num_edges)
        result = _assert_bit_identical(topo, [0, 5], None, w)
        # Cross-component cells specifically: inf distance, -1 hops.
        assert np.isinf(result.best[0, 4:]).all()
        assert (result.hops[0, 4:] == -1).all()
        assert np.isinf(result.best[1, :4]).all()

    def test_near_zero_costs(self):
        """Tiny (but strictly positive) weights — the smallest costs the
        validators admit — still reproduce the per-source DP exactly."""
        topo = build_random_connected(12, 0.3, seed=42)
        rng = np.random.default_rng(7)
        w = rng.uniform(1e-12, 1e-9, topo.num_edges)
        w[:: max(1, topo.num_edges // 4)] = 1.0  # mix in ordinary magnitudes
        _assert_bit_identical(topo, list(range(12)), 5, w)

    def test_source_blocking_cannot_change_results(self):
        topo = build_random_connected(14, 0.3, seed=3)
        w = np.random.default_rng(4).uniform(0.1, 2.0, topo.num_edges)
        sources = list(range(14))
        whole = matrix_hop_constrained(topo, sources, 4, w)
        blocked = matrix_hop_constrained(topo, sources, 4, w, source_block=3)
        assert np.array_equal(whole.best, blocked.best)
        assert np.array_equal(whole.hops, blocked.hops)

    def test_empty_sources_and_zero_budget(self):
        topo = build_ring(5)
        w = np.ones(5)
        empty = matrix_hop_constrained(topo, [], 3, w)
        assert empty.best.shape == (0, 5)
        zero = matrix_hop_constrained(topo, [2], 0, w)
        assert zero.best[0, 2] == 0.0
        assert np.isinf(np.delete(zero.best[0], 2)).all()


class TestWitnessPlanes:
    """``parent_node``/``parent_edge`` pick, plane for plane, the last
    CSR lane reaching each improved cell's layer minimum: a different
    tie witness would silently change ``OffloadRequest.route``."""

    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("weighting", ["uniform", "random"])
    @pytest.mark.parametrize("num_sources", [1, 3, 25, "all"])
    def test_parents_equal_the_last_lane_oracle(self, k, weighting, num_sources):
        topo = build_fat_tree(k)
        n = topo.num_nodes
        rng = np.random.default_rng(k)
        if weighting == "uniform":  # every equal-hop route ties
            w = np.ones(topo.num_edges)
        else:
            w = rng.uniform(0.01, 2.0, topo.num_edges)
        if num_sources == "all":
            sources = list(range(n))
        else:  # more sources than nodes repeats some
            sources = rng.choice(n, size=num_sources, replace=num_sources > n).tolist()
        result = _assert_bit_identical(topo, sources, 4, w, with_parents=True)
        layer_dist, parent_node, parent_edge = oracles.dp_witness_planes(
            topo, sources, 4, w
        )
        assert len(result.layer_dist) == len(layer_dist)
        for h in range(len(layer_dist)):
            assert np.array_equal(result.layer_dist[h], layer_dist[h])
            assert np.array_equal(result.parent_node[h], parent_node[h])
            assert np.array_equal(result.parent_edge[h], parent_edge[h])


class TestDegreeClassCache:
    """The degree-class tables are kept with the topology's CSR wiring."""

    def _grow(self, topo):
        new = topo.add_node()
        topo.add_edge(new, 0)
        topo.add_edge(new, topo.num_nodes // 2)
        return topo

    def test_growing_the_graph_rebuilds_the_tables(self):
        topo = build_fat_tree(4)
        rng = np.random.default_rng(5)
        sources = [0, 3, 11]
        matrix_hop_constrained(topo, sources, 4, rng.uniform(0.1, 2.0, topo.num_edges))
        before = _degree_classes(topo)
        self._grow(topo)
        assert _degree_classes(topo) is not before
        fresh = self._grow(build_fat_tree(4))
        w = rng.uniform(0.1, 2.0, topo.num_edges)
        grown = matrix_hop_constrained(topo, sources, 4, w, with_parents=True)
        expected = matrix_hop_constrained(fresh, sources, 4, w, with_parents=True)
        assert np.array_equal(grown.best, expected.best)
        assert np.array_equal(grown.hops, expected.hops)
        for planes, fresh_planes in (
            (grown.parent_node, expected.parent_node),
            (grown.parent_edge, expected.parent_edge),
        ):
            assert len(planes) == len(fresh_planes)
            assert all(map(np.array_equal, planes, fresh_planes))
        _assert_bit_identical(topo, sources, 4, w)

    def test_link_state_writes_keep_the_tables(self):
        topo = build_fat_tree(4)
        tables = _degree_classes(topo)
        topo.set_utilization(0, 0.5)
        assert _degree_classes(topo) is tables

    def test_topologies_never_share_tables(self):
        small, large = build_fat_tree(4), build_fat_tree(8)
        for topo in (small, large, small):
            w = np.random.default_rng(topo.num_nodes).uniform(0.1, 2.0, topo.num_edges)
            _assert_bit_identical(topo, [0, 1, topo.num_nodes - 1], 4, w)
        classes = _degree_classes(small)
        assert sum(cls.nbr.size for cls in classes) == 2 * small.num_edges
        assert sum(cls.nodes.size for cls in classes) == small.num_nodes
        assert _degree_classes(large) is not classes
        assert _degree_classes(build_fat_tree(4)) is not classes


class TestValidationParity:
    """The matrix kernel rejects exactly what the per-source DP rejects,
    with the same messages."""

    @pytest.mark.parametrize(
        "weights, max_hops",
        [
            (np.ones(3), 2),  # wrong shape (ring of 4 has 4 edges)
            (np.zeros(4), 2),  # non-positive weights
            (np.ones(4), -1),  # negative hop budget
        ],
    )
    def test_same_error_messages(self, weights, max_hops):
        topo = build_ring(4)
        with pytest.raises(RoutingError) as per_source:
            hop_constrained_shortest(topo, 0, max_hops, weights)
        with pytest.raises(RoutingError) as matrix:
            matrix_hop_constrained(topo, [0], max_hops, weights)
        assert str(matrix.value) == str(per_source.value)

    def test_unknown_source_rejected(self):
        topo = build_ring(4)
        with pytest.raises(Exception):
            matrix_hop_constrained(topo, [99], 2, np.ones(4))


class TestPathMaterialization:
    def test_paths_are_optimal_and_price_consistent(self):
        topo = build_random_connected(16, 0.25, seed=9)
        w = np.random.default_rng(2).uniform(0.1, 3.0, topo.num_edges)
        sources = [0, 3, 7]
        result = matrix_hop_constrained(topo, sources, 5, w, with_parents=True)
        for a, s in enumerate(sources):
            for dst in range(16):
                path = result.path_to(a, dst)
                if not np.isfinite(result.best[a, dst]):
                    assert path is None
                    continue
                assert path.nodes[0] == s and path.nodes[-1] == dst
                cost = sum(w[e] for e in path.edges)
                assert cost == pytest.approx(result.best[a, dst])
                assert len(path.edges) == result.hops[a, dst]
                for (u, v), e in zip(zip(path.nodes, path.nodes[1:]), path.edges):
                    assert topo.edge_id(u, v) == e

    def test_path_without_parents_raises(self):
        topo = build_ring(4)
        result = matrix_hop_constrained(topo, [0], 2, np.ones(4))
        with pytest.raises(RoutingError, match="with_parents"):
            result.path_to(0, 2)


class TestEngineMatrixMode:
    def _dp_model(self, max_hops=4):
        return ResponseTimeModel(engine=PathEngine.DP, max_hops=max_hops)

    def test_matrix_mode_matches_rows_mode_exactly(self):
        """The engine's dp pricing (one matrix DP) equals the per-source
        row loop it replaced, with and without paths."""
        topo = build_fat_tree(4)
        model = self._dp_model()
        sources = [0, 2, 5, 9]
        destinations = [1, 3, 8, 12, 19]
        R_rows, hops_rows, paths_rows = oracles.resistance_matrix(
            model, topo, sources, destinations
        )
        engine = TrminEngine(model)
        R_plain, hops_plain, no_paths = engine.resistance_matrix(
            topo, sources, destinations, with_paths=False
        )
        R_matrix, hops_matrix, paths = engine.resistance_matrix(
            topo, sources, destinations, with_paths=True
        )
        assert no_paths == {}
        for R, hops in ((R_plain, hops_plain), (R_matrix, hops_matrix)):
            assert np.array_equal(R, R_rows)
            assert np.array_equal(hops, hops_rows)
        # Routes are walked on lookup; they equal walking every finite
        # pair up front and price consistently (witness ties may differ
        # from the row loop's).
        assert dict(paths) == paths_rows
        weights = model.edge_weights(topo)
        for a, s in enumerate(sources):
            for b, d in enumerate(destinations):
                if np.isfinite(R_matrix[a, b]) and s != d:
                    path = paths[(s, d)]
                    assert sum(weights[e] for e in path.edges) == pytest.approx(
                        R_matrix[a, b]
                    )
