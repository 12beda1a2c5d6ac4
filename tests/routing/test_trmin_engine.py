"""Property-style suite for the Trmin pricing engine.

The engine's contract is *bit-identity*: every matrix it prices —
first call, repeated call, after any mutation made through the
``Topology`` API — must be exactly equal (``==``, not ``allclose``) to
the slow oracles in :mod:`tests.oracles` (per-source DP, exhaustive DFS
fold), for both path engines, including the hop tie-breaks.
"""

import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import PathEngine, ResponseTimeModel, TrminEngine
from repro.routing.matrix import MatrixDPResult
from repro.topology import Link, Topology, build_fat_tree
from tests import oracles
from tests.topologies import build_random_connected

ENGINES = [PathEngine.ENUMERATION, PathEngine.DP]


def seeded_random_topology(seed, num_nodes=12):
    topo = build_random_connected(num_nodes, edge_probability=0.2, seed=seed)
    rng = np.random.default_rng(seed + 1)
    topo.set_link_utilizations(rng.uniform(0.0, 0.9, topo.num_edges))
    return topo


def fat_tree_fixture():
    topo = build_fat_tree(4)
    rng = np.random.default_rng(7)
    topo.set_link_utilizations(rng.uniform(0.0, 0.85, topo.num_edges))
    return topo


def endpoints(topo):
    n = topo.num_nodes
    sources = list(range(0, min(4, n // 2)))
    destinations = list(range(n // 2, min(n // 2 + 6, n)))
    return sources, destinations


def assert_same_paths(expected, actual):
    assert set(expected) == set(actual)
    for pair, path in expected.items():
        assert actual[pair].nodes == path.nodes, pair
        assert actual[pair].edges == path.edges, pair


def assert_paths_price_consistent(topo, model, R, hops, paths, sources, destinations):
    """Exactly one path per reachable pair, and it is the priced route:
    endpoints match, Σ edge weights == R[a, b] bit for bit (same left
    fold the DP accumulates), hop count == hops[a, b]."""
    weights = model.edge_weights(topo)
    reachable = {
        (s, d)
        for a, s in enumerate(sources)
        for b, d in enumerate(destinations)
        if np.isfinite(R[a, b])
    }
    assert set(paths) == reachable
    for a, s in enumerate(sources):
        for b, d in enumerate(destinations):
            if (s, d) not in reachable:
                assert hops[a, b] == -1
                continue
            path = paths[(s, d)]
            assert path.nodes[0] == s and path.nodes[-1] == d
            assert sum(weights[e] for e in path.edges) == R[a, b], (s, d)
            assert len(path.edges) == hops[a, b], (s, d)


class TestBitIdentity:
    def test_engine_matches_oracle_exactly(self):
        topo = fat_tree_fixture()
        sources, destinations = endpoints(topo)
        for path_engine in ENGINES:
            model = ResponseTimeModel(engine=path_engine, max_hops=4)
            R_ref, hops_ref, paths_ref = oracles.resistance_matrix(
                model, topo, sources, destinations
            )
            engine = TrminEngine(model)
            for calls in (1, 2):  # the repeat prices again, same bits
                R, hops, paths = engine.resistance_matrix(
                    topo, sources, destinations, with_paths=True
                )
                assert np.array_equal(R, R_ref)
                assert np.array_equal(hops, hops_ref)
                if paths_ref is not None:
                    assert_same_paths(paths_ref, paths)
                else:
                    assert_paths_price_consistent(
                        topo, model, R, hops, paths, sources, destinations
                    )
                assert engine.stats.full_computes == calls

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_topologies_all_modes_agree(self, seed):
        """Both path engines × (first call, repeated call)."""
        topo = seeded_random_topology(seed)
        sources, destinations = endpoints(topo)
        for path_engine in ENGINES:
            model = ResponseTimeModel(engine=path_engine, max_hops=4)
            R_ref, hops_ref, _ = oracles.resistance_matrix(
                model, topo, sources, destinations
            )
            engine = TrminEngine(model)
            for _ in range(2):
                R, hops, _ = engine.resistance_matrix(topo, sources, destinations)
                assert np.array_equal(R, R_ref), (seed, path_engine)
                assert np.array_equal(hops, hops_ref), (seed, path_engine)

    def test_dp_paths_are_price_consistent_on_fat_tree_8(self):
        topo = build_fat_tree(8)
        rng = np.random.default_rng(8)
        topo.set_link_utilizations(rng.uniform(0.0, 0.9, topo.num_edges))
        nodes = rng.permutation(topo.num_nodes)
        sources = [int(v) for v in nodes[:6]]
        destinations = [int(v) for v in nodes[6:30]]
        for max_hops in (2, 4, None):
            model = ResponseTimeModel(engine=PathEngine.DP, max_hops=max_hops)
            R, hops, paths = TrminEngine(model).resistance_matrix(
                topo, sources, destinations, with_paths=True
            )
            assert_paths_price_consistent(
                topo, model, R, hops, paths, sources, destinations
            )

    @pytest.mark.parametrize("path_engine", ENGINES)
    def test_tie_breaks_prefer_fewer_hops(self, path_engine):
        # direct 0-2 and 0-1-2 have equal resistance; fewer hops wins.
        topo = Topology()
        n0, n1, n2 = topo.add_node(), topo.add_node(), topo.add_node()
        topo.add_edge(n0, n1, Link(capacity_mbps=100.0))
        topo.add_edge(n1, n2, Link(capacity_mbps=100.0))
        topo.add_edge(n0, n2, Link(capacity_mbps=50.0))
        model = ResponseTimeModel(engine=path_engine, max_hops=3)
        engine = TrminEngine(model)
        R, hops, paths = engine.resistance_matrix(topo, [n0], [n2], with_paths=True)
        assert R[0, 0] == pytest.approx(1.0 / 50.0)
        assert hops[0, 0] == 1
        assert paths[(n0, n2)].nodes == (n0, n2)


class TestLazyDpRoutes:
    """A dp model's ``paths`` walks a route only when it is looked up,
    and is ``==`` to walking every reachable pair up front."""

    @staticmethod
    def priced(topo, sources, destinations, max_hops=4):
        model = ResponseTimeModel(engine=PathEngine.DP, max_hops=max_hops)
        R, hops, paths = TrminEngine(model).resistance_matrix(
            topo, sources, destinations, with_paths=True
        )
        R_ref, hops_ref, paths_ref = oracles.resistance_matrix(
            model, topo, sources, destinations
        )
        assert np.array_equal(R, R_ref) and np.array_equal(hops, hops_ref)
        reachable = {
            (s, d)
            for a, s in enumerate(sources)
            for b, d in enumerate(destinations)
            if np.isfinite(R[a, b])
        }
        assert set(paths) == set(paths_ref) == reachable
        assert len(paths) == len(reachable)
        assert dict(paths) == paths_ref
        assert paths == paths_ref
        return paths

    @pytest.mark.parametrize("k", [4, 8])
    def test_fat_tree_routes_equal_the_eager_dict(self, k):
        topo = build_fat_tree(k)
        rng = np.random.default_rng(k)
        topo.set_link_utilizations(rng.uniform(0.0, 0.9, topo.num_edges))
        nodes = rng.permutation(topo.num_nodes)
        sources = [int(v) for v in nodes[:6]]
        destinations = [int(v) for v in nodes[6:30]]
        for max_hops in (2, 4, None):
            self.priced(topo, sources, destinations, max_hops)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_topology_routes_equal_the_eager_dict(self, seed):
        topo = seeded_random_topology(seed)
        self.priced(topo, *endpoints(topo))

    def test_duplicate_source_ids_resolve_to_the_last_index(self, monkeypatch):
        topo = fat_tree_fixture()
        sources, destinations = [0, 0, 1], [5, 6, 5]
        paths = self.priced(topo, sources, destinations)
        walked = []
        path_to = MatrixDPResult.path_to

        def spy(result, source_index, destination):
            walked.append((source_index, destination))
            return path_to(result, source_index, destination)

        monkeypatch.setattr(MatrixDPResult, "path_to", spy)
        paths = TrminEngine(
            ResponseTimeModel(engine=PathEngine.DP, max_hops=4)
        ).resistance_matrix(topo, sources, destinations, with_paths=True)[2]
        assert walked == []  # pricing walks no route
        paths[(0, 6)]
        assert walked == [(1, 6)]

    def test_lookups_outside_the_reachable_set(self):
        topo = fat_tree_fixture()
        host = 0
        near = topo.neighbors(host)[0]
        far = next(  # beyond the one-hop budget
            v for v in range(topo.num_nodes) if v != host and v not in topo.neighbors(host)
        )
        paths = self.priced(topo, [host], [near, far], max_hops=1)
        assert set(paths) == {(host, near)}
        for key in ((host, far), (far, host), (host,), "x", None):
            assert key not in paths
            assert paths.get(key) is None
        with pytest.raises(KeyError):
            paths[(host, far)]
        with pytest.raises(TypeError):
            paths[(host, far)] = None


class TestIncrementalCache:
    """Never a stale price after a mutation: whatever changes through
    the ``Topology`` API between two calls, the second call prices the
    new state exactly (this guards the cached CSR wiring and the
    version-keyed link-state views under the kernels). The class name
    predates the removal of the route cache; it is kept so these test
    ids stay stable."""

    @pytest.mark.parametrize("path_engine", ENGINES)
    @pytest.mark.parametrize("direction", ["increase", "decrease"])
    def test_single_link_delta_reprices_exactly(self, path_engine, direction):
        topo = fat_tree_fixture()
        sources, destinations = endpoints(topo)
        model = ResponseTimeModel(engine=path_engine, max_hops=4)
        engine = TrminEngine(model)
        engine.resistance_matrix(topo, sources, destinations)

        edge_id = 3
        util = topo.link(edge_id).utilization
        new_util = min(util + 0.4, 0.95) if direction == "increase" else util * 0.25
        topo.set_utilization(edge_id, new_util)

        R, hops, _ = engine.resistance_matrix(topo, sources, destinations)
        R_ref, hops_ref, _ = oracles.resistance_matrix(
            model, topo, sources, destinations
        )
        assert np.array_equal(R, R_ref)
        assert np.array_equal(hops, hops_ref)

    @pytest.mark.parametrize("path_engine", ENGINES)
    def test_repeated_mixed_deltas_stay_exact(self, path_engine):
        topo = seeded_random_topology(3)
        sources, destinations = endpoints(topo)
        model = ResponseTimeModel(engine=path_engine, max_hops=4)
        engine = TrminEngine(model)
        engine.resistance_matrix(topo, sources, destinations)
        rng = np.random.default_rng(11)
        for _ in range(5):
            edge_id = int(rng.integers(0, topo.num_edges))
            topo.set_utilization(edge_id, float(rng.uniform(0.0, 0.9)))
            R, hops, _ = engine.resistance_matrix(topo, sources, destinations)
            R_ref, hops_ref, _ = oracles.resistance_matrix(
                model, topo, sources, destinations
            )
            assert np.array_equal(R, R_ref)
            assert np.array_equal(hops, hops_ref)

    def test_bulk_resample_past_threshold_forces_full_recompute(self):
        topo = fat_tree_fixture()
        sources, destinations = endpoints(topo)
        model = ResponseTimeModel(engine=PathEngine.DP, max_hops=4)
        engine = TrminEngine(model)
        engine.resistance_matrix(topo, sources, destinations)
        rng = np.random.default_rng(5)
        topo.set_link_utilizations(rng.uniform(0.0, 0.9, topo.num_edges))
        R, hops, _ = engine.resistance_matrix(topo, sources, destinations)
        R_ref, hops_ref, _ = oracles.resistance_matrix(
            model, topo, sources, destinations
        )
        assert np.array_equal(R, R_ref)
        assert np.array_equal(hops, hops_ref)
        assert engine.stats.full_computes == 2

    def test_structural_change_forces_full_recompute(self):
        topo = seeded_random_topology(9)
        sources, destinations = endpoints(topo)
        model = ResponseTimeModel(engine=PathEngine.DP, max_hops=4)
        engine = TrminEngine(model)
        engine.resistance_matrix(topo, sources, destinations)
        topo.add_node()
        topo.add_edge(0, topo.num_nodes - 1, Link(capacity_mbps=500.0))
        R, hops, _ = engine.resistance_matrix(topo, sources, destinations)
        R_ref, hops_ref, _ = oracles.resistance_matrix(
            model, topo, sources, destinations
        )
        assert np.array_equal(R, R_ref)
        assert np.array_equal(hops, hops_ref)
        assert engine.stats.full_computes == 2

    def test_duplicate_endpoints_match_the_oracle(self):
        topo = fat_tree_fixture()
        sources, destinations = [0, 0, 1], [5, 6, 5]
        for path_engine in ENGINES:
            model = ResponseTimeModel(engine=path_engine, max_hops=4)
            R, hops, _ = TrminEngine(model).resistance_matrix(
                topo, sources, destinations
            )
            R_ref, hops_ref, _ = oracles.resistance_matrix(
                model, topo, sources, destinations
            )
            assert np.array_equal(R, R_ref)
            assert np.array_equal(hops, hops_ref)


class TestEngineMechanics:
    def test_trmin_matrix_scales_rows_by_data_volume(self):
        topo = fat_tree_fixture()
        sources, destinations = endpoints(topo)
        data_mb = [float(2 * a + 1) for a in range(len(sources))]
        model = ResponseTimeModel(engine=PathEngine.DP, max_hops=4)
        engine = TrminEngine(model)
        T, hops, _ = engine.trmin_matrix(topo, sources, destinations, data_mb)
        R_ref, hops_ref, _ = oracles.resistance_matrix(
            model, topo, sources, destinations
        )
        assert np.array_equal(T, np.asarray(data_mb)[:, None] * R_ref)
        assert np.array_equal(hops, hops_ref)

    @pytest.mark.parametrize("path_engine", ENGINES)
    def test_zero_volume_keeps_unreachable_pairs_forbidden(self, path_engine):
        # 0 * inf is NaN; downstream, inf (not NaN) marks a forbidden lane.
        topo = build_fat_tree(4)
        neighbour = topo.neighbors(4)[0]
        engine = TrminEngine(ResponseTimeModel(engine=path_engine, max_hops=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T, hops, _ = engine.trmin_matrix(topo, [4], [neighbour, 19], [0.0])
        assert T.tolist() == [[0.0, np.inf]]
        assert hops.tolist() == [[1, -1]]

    def test_pickled_engine_still_prices(self):
        # Zone fan-out ships engines to pool workers.
        topo = fat_tree_fixture()
        sources, destinations = endpoints(topo)
        model = ResponseTimeModel(engine=PathEngine.DP, max_hops=4)
        engine = TrminEngine(model)
        R_ref, _, _ = engine.resistance_matrix(topo, sources, destinations)
        clone = pickle.loads(pickle.dumps(engine))
        R, _, _ = clone.resistance_matrix(topo, sources, destinations)
        assert np.array_equal(R, R_ref)
