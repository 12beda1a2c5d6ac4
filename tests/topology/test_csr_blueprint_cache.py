"""CSR adjacency export, bulk array import/export, fat-tree blueprint LRU."""

import numpy as np
import pytest

from repro.obs import get_registry
from repro.topology import (
    BandwidthConvention,
    LinkUtilizationModel,
    Topology,
    build_fat_tree,
    build_fat_tree_with_layout,
    fat_tree_cache_clear,
    fat_tree_cache_info,
)
from tests.topologies import build_random_connected


def _counter(name: str) -> float:
    metric = get_registry().snapshot()["metrics"].get(name)
    return metric["value"] if metric else 0.0


class TestCSRAdjacency:
    @pytest.mark.parametrize(
        "topo",
        [build_fat_tree(4), build_fat_tree(8), build_random_connected(40, 0.2, seed=3)],
        ids=["fat4", "fat8", "random40"],
    )
    def test_matches_incident_lists(self, topo):
        csr = topo.csr_adjacency()
        for v in range(topo.num_nodes):
            lanes = list(
                zip(
                    csr.indices[csr.indptr[v] : csr.indptr[v + 1]].tolist(),
                    csr.edge_ids[csr.indptr[v] : csr.indptr[v + 1]].tolist(),
                )
            )
            assert lanes == topo.incident(v)

    def test_edge_costs_are_inverse_effective_bandwidth(self):
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.8, seed=5).apply(topo)
        csr = topo.csr_adjacency(BandwidthConvention.AVAILABLE)
        expected = 1.0 / topo.effective_bandwidths(BandwidthConvention.AVAILABLE)
        np.testing.assert_array_equal(csr.edge_costs, expected)

    def test_cache_hit_returns_same_object_and_counts(self):
        topo = build_fat_tree(4)
        misses0, hits0 = _counter("topology.csr_cache_misses"), _counter(
            "topology.csr_cache_hits"
        )
        first = topo.csr_adjacency()
        second = topo.csr_adjacency()
        assert second is first
        assert _counter("topology.csr_cache_misses") == misses0 + 1
        assert _counter("topology.csr_cache_hits") == hits0 + 1

    def test_link_state_mutation_invalidates_costs_not_structure(self):
        topo = build_fat_tree(4)
        before = topo.csr_adjacency()
        topo.set_utilization(0, 0.77)
        after = topo.csr_adjacency()
        assert after is not before
        assert after.version == topo.version > before.version
        # Structure arrays survive a pure link-state change ...
        assert after.indptr is before.indptr
        assert after.indices is before.indices
        assert after.edge_ids is before.edge_ids
        # ... but the costed view is fresh.
        assert after.edge_costs[0] != before.edge_costs[0]

    def test_structure_rebuilt_when_graph_grows(self):
        topo = build_fat_tree(4)
        before = topo.csr_adjacency()
        n = topo.add_node(name="extra")
        topo.add_edge(0, n)
        after = topo.csr_adjacency()
        assert len(after.indptr) == len(before.indptr) + 1
        assert len(after.indices) == len(before.indices) + 2

    def test_memo_lives_with_the_wiring(self):
        topo = build_fat_tree(4)
        m = topo.num_edges
        builds = []

        def build(t):
            builds.append(t.num_edges)
            return object()

        first = topo.csr_memo("probe", build)
        topo.set_utilization(0, 0.5)
        assert topo.csr_memo("probe", build) is first
        assert build_fat_tree(4).csr_memo("probe", build) is not first
        topo.add_edge(0, topo.add_node(name="extra"))
        assert topo.csr_memo("probe", build) is not first
        assert builds == [m, m, m + 1]

    def test_arrays_are_read_only(self):
        csr = build_fat_tree(4).csr_adjacency()
        for arr in (csr.indptr, csr.indices, csr.edge_ids, csr.edge_costs):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_per_convention_views(self):
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.8, seed=5).apply(topo)
        available = topo.csr_adjacency(BandwidthConvention.AVAILABLE)
        literal = topo.csr_adjacency(BandwidthConvention.UTILIZED_LITERAL)
        assert not np.array_equal(available.edge_costs, literal.edge_costs)
        assert topo.csr_adjacency(BandwidthConvention.UTILIZED_LITERAL) is literal


class TestTopologyArraysRoundtrip:
    def test_roundtrip_preserves_graph(self):
        original = build_fat_tree(4)
        LinkUtilizationModel(0.1, 0.9, seed=2).apply(original)
        clone = Topology.from_arrays(original.to_arrays())
        assert clone.num_nodes == original.num_nodes
        assert clone.num_edges == original.num_edges
        for v in range(original.num_nodes):
            assert clone.incident(v) == original.incident(v)
            assert clone.node(v).name == original.node(v).name
            assert clone.node(v).kind == original.node(v).kind
            assert clone.node(v).pod == original.node(v).pod
        for eid in range(original.num_edges):
            assert clone.link(eid).utilization == original.link(eid).utilization
            assert clone.link(eid).capacity_mbps == original.link(eid).capacity_mbps

    def test_clone_is_independent(self):
        original = build_fat_tree(4)
        clone = Topology.from_arrays(original.to_arrays())
        clone.set_utilization(0, 0.99)
        assert original.link(0).utilization != 0.99


class TestFatTreeBlueprintLRU:
    def setup_method(self):
        fat_tree_cache_clear()

    def test_second_build_hits_blueprint_cache(self):
        build_fat_tree(4)
        info = fat_tree_cache_info()
        build_fat_tree(4)
        assert fat_tree_cache_info().hits == info.hits + 1
        assert fat_tree_cache_info().misses == info.misses

    def test_distinct_parameters_miss(self):
        build_fat_tree(4)
        build_fat_tree(4, capacity_mbps=1000.0)
        build_fat_tree(4, with_servers=True)
        assert fat_tree_cache_info().misses == 3

    def test_builds_are_independent_and_version_still_bumps(self):
        first = build_fat_tree(4)
        v0 = first.version
        first.set_utilization(0, 0.5)
        assert first.version > v0  # memoization must not freeze versioning
        second = build_fat_tree(4)  # cache hit ...
        assert fat_tree_cache_info().hits >= 1
        # ... yet a fresh graph: the mutation did not leak through.
        assert second.link(0).utilization == 0.0
        second.add_node(name="extra")
        assert first.num_nodes == second.num_nodes - 1

    def test_layout_lists_are_fresh_per_call(self):
        _, layout_a = build_fat_tree_with_layout(4)
        _, layout_b = build_fat_tree_with_layout(4)
        layout_a.core.append(-1)
        assert -1 not in layout_b.core
