"""CSR wiring and Lu_e memos, bulk array import/export, fat-tree blueprint LRU."""

import numpy as np
import pytest

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


def _lanes(topo, v):
    indptr, indices, edge_ids = topo.csr_structure()
    lo, hi = indptr[v], indptr[v + 1]
    return list(zip(indices[lo:hi].tolist(), edge_ids[lo:hi].tolist()))


class TestCSRAdjacency:
    @pytest.mark.parametrize(
        "topo",
        [build_fat_tree(4), build_fat_tree(8), build_random_connected(40, 0.2, seed=3)],
        ids=["fat4", "fat8", "random40"],
    )
    def test_matches_incident_lists(self, topo):
        for v in range(topo.num_nodes):
            assert _lanes(topo, v) == topo.incident(v)
        us, vs = topo.edge_endpoint_arrays()
        assert list(zip(us.tolist(), vs.tolist())) == list(topo.edges)

    def test_link_state_mutation_invalidates_costs_not_structure(self):
        topo = build_fat_tree(4)
        wiring = topo.csr_structure() + topo.edge_endpoint_arrays()
        lu = topo.effective_bandwidths()
        topo.set_utilization(0, 0.77)
        # The Lu_e vector is dropped with the link state ...
        fresh = topo.effective_bandwidths()
        assert fresh is not lu and fresh[0] != lu[0]
        # ... but the wiring arrays are the very same objects.
        after = topo.csr_structure() + topo.edge_endpoint_arrays()
        assert all(new is old for new, old in zip(after, wiring))

    def test_structure_rebuilt_when_graph_grows(self):
        topo = build_fat_tree(4)
        indptr, indices, _ = topo.csr_structure()
        us, _ = topo.edge_endpoint_arrays()
        n = topo.add_node(name="extra")
        topo.add_edge(0, n)
        grown_indptr, grown_indices, _ = topo.csr_structure()
        assert len(grown_indptr) == len(indptr) + 1
        assert len(grown_indices) == len(indices) + 2
        assert len(topo.edge_endpoint_arrays()[0]) == len(us) + 1
        assert _lanes(topo, n) == topo.incident(n) == [(0, topo.num_edges - 1)]

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
        topo = build_fat_tree(4)
        arrays = topo.csr_structure() + topo.edge_endpoint_arrays()
        for arr in arrays + tuple(topo.effective_bandwidths(c) for c in BandwidthConvention):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_per_convention_views(self):
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.8, seed=5).apply(topo)
        available = topo.effective_bandwidths(BandwidthConvention.AVAILABLE)
        literal = topo.effective_bandwidths(BandwidthConvention.UTILIZED_LITERAL)
        assert not np.array_equal(available, literal)
        assert topo.effective_bandwidths(BandwidthConvention.UTILIZED_LITERAL) is literal
        assert topo.effective_bandwidths(BandwidthConvention.AVAILABLE) is available


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
