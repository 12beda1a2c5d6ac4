"""Frontier-expansion kernel vs exhaustive DFS: bit-identity properties.

The kernel (:mod:`repro.routing.enumkernel`) must be indistinguishable
from the exhaustive-DFS oracle (:func:`tests.oracles.enum_best_route`)
on every fixture: identical ``(resistance, hops, path)`` triples out of
the pricing fold (including the resistance-then-fewer-hops-then-DFS-
order tie-break) and identical exhaustive path counts. These tests
drive both over hypothesis random graphs, fat-trees k in {4, 8, 16},
and the degenerate corners the kernel special-cases — pair by pair and
through the batched matrix call, where one frontier serves every pair.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RoutingError, TopologyError
from repro.obs import get_registry
from repro.routing import enumkernel
from repro.routing.enumkernel import count_paths_kernel
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.routing.routes import _TIE_TOL
from repro.topology import (
    BandwidthConvention,
    Link,
    LinkUtilizationModel,
    Topology,
    build_fat_tree,
)
from tests import oracles
from tests.oracles import enumerate_paths, iter_simple_paths_raw
from tests.topologies import build_random_connected


def _weights(topo):
    return 1.0 / topo.effective_bandwidths(BandwidthConvention.AVAILABLE)


def _best_enum_route(topo, s, d, h, weights):
    """The kernel's one-pair call: ``(resistance, hops, (nodes, edges))``."""
    R, hops, winners = enumkernel.best_routes_matrix(topo, [s], [d], h, weights, True)
    return float(R[0, 0]), int(hops[0, 0]), winners.get((0, 0))


def _ref_count(topo, s, d, h):
    return sum(1 for _ in iter_simple_paths_raw(topo, s, d, h))


def _assert_pair_identical(topo, s, d, h, weights):
    # Bit-identity: same float (== not approx), same hops, same path.
    assert _best_enum_route(topo, s, d, h, weights) == oracles.enum_best_route(
        topo, s, d, h, weights
    )


def _counter_deltas(names, fn):
    """How much each registry counter in ``names`` rose during ``fn()``."""
    reg = get_registry()
    before = [reg.counter(name).value for name in names]
    fn()
    return [reg.counter(name).value - b for name, b in zip(names, before)]


def disconnected_topology():
    """Two components: {0, 1} and {2, 3}."""
    topo = Topology()
    for _ in range(4):
        topo.add_node()
    topo.add_edge(0, 1, Link(capacity_mbps=1000.0))
    topo.add_edge(2, 3, Link(capacity_mbps=1000.0))
    return topo


class TestCountIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=11),
        st.integers(min_value=0, max_value=300),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    )
    def test_property_counts_match_reference(self, n, seed, max_hops):
        topo = build_random_connected(n, 0.35, seed=seed)
        for s in range(0, n, 2):
            for d in range(1, n, 3):
                assert count_paths_kernel(topo, s, d, max_hops) == _ref_count(
                    topo, s, d, max_hops
                )

    @pytest.mark.parametrize("k", [4, 8])
    def test_fat_tree_counts_match(self, k):
        topo = build_fat_tree(k)
        n = topo.num_nodes
        pairs = [(0, n - 1), (0, n // 2), (n // 3, 2 * n // 3), (1, 1)]
        for h in (2, 4, 5):
            for s, d in pairs:
                assert count_paths_kernel(topo, s, d, h) == _ref_count(topo, s, d, h)

    def test_count_paths_dispatches_to_kernel(self):
        topo = build_fat_tree(4)
        reg = get_registry()
        before = reg.counter("routing.enum_kernel_calls").value
        count = count_paths_kernel(topo, 0, topo.num_nodes - 1, 4)
        assert reg.counter("routing.enum_kernel_calls").value == before + 1
        assert count == _ref_count(topo, 0, topo.num_nodes - 1, 4)

    def test_counting_path_never_prunes(self):
        """The bound counters stay flat across exhaustive counting."""
        topo = build_fat_tree(4)
        reg = get_registry()
        pruned = reg.counter("routing.enum_pruned_rows").value
        cutoffs = reg.counter("routing.enum_bound_cutoffs").value
        for s, d in [(0, topo.num_nodes - 1), (3, 9), (0, 0)]:
            count_paths_kernel(topo, s, d, 6)
        assert reg.counter("routing.enum_pruned_rows").value == pruned
        assert reg.counter("routing.enum_bound_cutoffs").value == cutoffs


class TestBestRouteIdentity:
    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=0, max_value=300),
        st.one_of(st.none(), st.integers(min_value=1, max_value=5)),
    )
    def test_property_random_graphs(self, n, seed, max_hops):
        topo = build_random_connected(n, 0.3, seed=seed)
        LinkUtilizationModel(0.1, 0.9, seed=seed + 1).apply(topo)
        weights = _weights(topo)
        for s in range(0, n, 2):
            for d in range(1, n, 3):
                _assert_pair_identical(topo, s, d, max_hops, weights)

    @pytest.mark.parametrize("k", [4, 8])
    def test_fat_tree_pairs(self, k):
        topo = build_fat_tree(k)
        LinkUtilizationModel(0.2, 0.8, seed=k).apply(topo)
        weights = _weights(topo)
        n = topo.num_nodes
        pairs = [(0, n - 1), (0, n // 2), (n // 3, 2 * n // 3)]
        for h in (2, 4, 5, None if k == 4 else 6):
            for s, d in pairs:
                _assert_pair_identical(topo, s, d, h, weights)

    def test_fat_tree_16_matrix_matches_oracle(self):
        """A reduced k=16 point through the public matrix call:
        resistances, hops and the winning paths themselves."""
        topo = build_fat_tree(16)
        LinkUtilizationModel(0.2, 0.8, seed=0).apply(topo)
        model = ResponseTimeModel(engine=PathEngine.ENUMERATION, max_hops=4)
        sources = list(range(0, topo.num_nodes, 53))
        destinations = list(range(1, topo.num_nodes, 47))
        R, hops, paths = model.resistance_matrix(
            topo, sources, destinations, with_paths=True
        )
        R_ref, hops_ref, paths_ref = oracles.resistance_matrix(
            model, topo, sources, destinations
        )
        assert np.array_equal(R, R_ref)
        assert np.array_equal(hops, hops_ref)
        assert paths == paths_ref

    def test_tie_heavy_uniform_cost_mesh(self):
        """Every same-length path prices bit-equal: the fold must pick
        the same (hops, DFS-order) winner from kernel survivors."""
        for k in (4, 8):
            topo = build_fat_tree(k)  # untouched links: uniform weights
            weights = _weights(topo)
            assert np.unique(weights).size == 1
            n = topo.num_nodes
            for s, d in [(0, n - 1), (1, n // 2), (2, 2 * n // 3)]:
                for h in (3, 4, 5):
                    _assert_pair_identical(topo, s, d, h, weights)

    def test_near_zero_edge_costs(self):
        """Resistances inside the ~1e-12 tie window: the kernel may not
        prune anything, and the fold outcome must still match."""
        topo = build_random_connected(8, 0.4, seed=7)
        weights = np.full(topo.num_edges, 1e-13)
        for s in range(8):
            for d in range(8):
                _assert_pair_identical(topo, s, d, 4, weights)


def _enum_model(max_hops):
    return ResponseTimeModel(engine=PathEngine.ENUMERATION, max_hops=max_hops)


def _fixed_weights(weights):
    """Price with ``weights`` instead of the topology's link state (the
    model under test and the oracle both ask ``edge_weights``)."""
    return mock.patch.object(
        ResponseTimeModel, "edge_weights", lambda self, topology: weights
    )


def _assert_matrix_identical(topo, sources, destinations, max_hops):
    """One batched call == the oracle's per-pair exhaustive fold, with
    ``with_paths`` and without: ``(R, hops)`` either way, the winning
    paths when asked for and an empty mapping otherwise."""
    model = _enum_model(max_hops)
    R_ref, hops_ref, paths_ref = oracles.resistance_matrix(
        model, topo, sources, destinations
    )
    for with_paths in (False, True):
        R, hops, paths = model.resistance_matrix(
            topo, sources, destinations, with_paths=with_paths
        )
        assert np.array_equal(R, R_ref)
        assert np.array_equal(hops, hops_ref)
        assert paths == (paths_ref if with_paths else {})
    return R, hops, paths


class TestBatchedMatrixIdentity:
    """Every pair of a call shares one frontier; the judge is still the
    exhaustive per-pair fold, compared with exact ``==``."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=4, max_value=11),
        st.integers(min_value=0, max_value=300),
        st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
    )
    def test_property_random_graphs(self, n, seed, max_hops):
        topo = build_random_connected(n, 0.3, seed=seed)
        LinkUtilizationModel(0.1, 0.9, seed=seed + 1).apply(topo)
        # Overlapping source / destination sets: s == d pairs included.
        _assert_matrix_identical(
            topo, list(range(0, n, 2)), list(range(0, n, 3)), max_hops
        )

    @pytest.mark.parametrize("k", [4, 8])
    @pytest.mark.parametrize("costs", ["random", "uniform", "near_zero"])
    def test_fat_tree(self, k, costs):
        topo = build_fat_tree(k)
        n = topo.num_nodes
        sources = list(range(0, n, max(1, n // 6)))
        destinations = list(range(1, n, max(1, n // 7)))
        if costs == "random":
            LinkUtilizationModel(0.2, 0.8, seed=k).apply(topo)
        weights = (
            np.full(topo.num_edges, 1e-13) if costs == "near_zero" else _weights(topo)
        )
        if costs != "random":
            assert np.unique(weights).size == 1  # every equal-length path ties
        with _fixed_weights(weights):
            for h in (0, 1, 3, 4, 5):
                _assert_matrix_identical(topo, sources, destinations, h)

    @pytest.mark.parametrize("max_hops", [6, 7])
    def test_pairs_past_one_fold_batch(self, max_hops):
        """Near-zero weights cut no complete path, so every simple path
        within the budget survives: 224 to 7 720 per pair here, several
        fold batches for most, all through the same winner loop."""
        topo = build_fat_tree(8)
        sources, destinations = [0, 5], [1, 17, 63]
        weights = np.full(topo.num_edges, 1e-13)
        survivors = [
            count_paths_kernel(topo, s, d, max_hops) for s in sources for d in destinations
        ]
        assert max(survivors) > enumkernel._FOLD_BATCH == oracles._PRICE_BATCH
        cutoffs = get_registry().counter("routing.enum_bound_cutoffs")
        before = cutoffs.value
        with _fixed_weights(weights):
            _assert_matrix_identical(topo, sources, destinations, max_hops)
        assert cutoffs.value == before

    def test_contested_and_uncontested_pairs_in_one_call(self):
        """Uniform-cost pods plus one random-cost link: some pairs have
        a single path within ``_TIE_TOL`` of their minimum, others
        several. Each gets the judge's winner, and the winners come out
        in ascending pair order."""
        topo = build_fat_tree(8)  # untouched links: uniform weights
        edge = int(np.random.default_rng(11).integers(topo.num_edges))
        topo.set_utilization(edge, 0.63)
        weights = _weights(topo)
        sources = list(range(0, 80, 7))
        destinations = list(range(3, 80, 5))
        judged = {
            (a, b): oracles.enum_best_route(topo, s, d, 4, weights)
            for a, s in enumerate(sources)
            for b, d in enumerate(destinations)
            if s != d
        }
        near_min = []
        for a, b in judged:
            stream = list(iter_simple_paths_raw(topo, sources[a], destinations[b], 4))
            prices = np.array([sum(weights[e] for e in edges) for _, edges in stream])
            near_min.append(int(np.count_nonzero(prices <= prices.min() + _TIE_TOL)))
        assert 1 in near_min and max(near_min) > 1  # both kinds present
        R, hops, winners = enumkernel.best_routes_matrix(
            topo, sources, destinations, 4, weights, True
        )
        routed = [p for p in winners if p in judged]  # zero-hop pairs come first
        assert routed == sorted(judged)
        assert {p: winners[p] for p in routed} == {
            p: raw for p, (_, _, raw) in judged.items()
        }
        for (a, b), (res, nh, _) in judged.items():
            assert (R[a, b], hops[a, b]) == (res, nh)
        R_np, hops_np, none = enumkernel.best_routes_matrix(
            topo, sources, destinations, 4, weights, False
        )
        assert np.array_equal(R_np, R) and np.array_equal(hops_np, hops)
        assert none == {}

    def test_overlap_and_duplicate_node_ids(self):
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.8, seed=3).apply(topo)
        sources = [0, 5, 5, 9]  # duplicate source
        destinations = [5, 0, 12, 12, 9]  # duplicate destination, overlaps
        R, hops, paths = _assert_matrix_identical(topo, sources, destinations, 4)
        for a, s in enumerate(sources):
            for b, d in enumerate(destinations):
                if s == d:
                    assert (R[a, b], hops[a, b]) == (0.0, 0)
                    assert paths[(s, d)].nodes == (s,)
                    assert paths[(s, d)].edges == ()
        assert np.array_equal(R[1], R[2]) and np.array_equal(hops[1], hops[2])
        assert np.array_equal(R[:, 2], R[:, 3])

    def test_empty_sources_or_destinations(self):
        topo = build_fat_tree(4)
        model = _enum_model(3)
        for sources, destinations in ([], [1, 2, 3]), ([0, 1], []), ([], []):
            R, hops, paths = model.resistance_matrix(
                topo, sources, destinations, with_paths=True
            )
            assert R.shape == hops.shape == (len(sources), len(destinations))
            assert paths == {}

    def test_disconnected_graph(self):
        topo = disconnected_topology()
        R, hops, paths = _assert_matrix_identical(topo, [0, 1, 2], [1, 3], None)
        assert np.isinf(R[0, 1]) and hops[0, 1] == -1 and (0, 3) not in paths
        assert np.isfinite(R[2, 1]) and hops[2, 1] == 1
        assert set(paths) == {(0, 1), (1, 1), (2, 3)}

    def test_rejections_match_the_single_pair_call(self):
        topo = build_fat_tree(4)
        n = topo.num_nodes
        with pytest.raises(TopologyError):
            _enum_model(3).resistance_matrix(topo, [0, n], [1])
        with pytest.raises(TopologyError):
            _enum_model(3).resistance_matrix(topo, [0], [1, -1])
        with pytest.raises(RoutingError, match="non-negative"):
            _enum_model(-1).resistance_matrix(topo, [0], [1])
        weights = _weights(topo)
        weights[0] = 0.0
        with _fixed_weights(weights):
            with pytest.raises(RoutingError, match="strictly positive"):
                _enum_model(4).resistance_matrix(topo, [0, 1], [n - 1])

    def test_block_boundaries_cannot_change_a_result(self, monkeypatch):
        """Pairs never interact, so how a call's pairs split between
        frontiers is invisible — in the results and in the row totals —
        on a tie-heavy call (untouched links: uniform weights, every
        equal-cost path survives into the fold) and on a pruned one."""
        sources = list(range(0, 80, 9))
        destinations = list(range(2, 80, 7))
        model = _enum_model(5)
        for utilization_seed in (None, 3):
            topo = build_fat_tree(8)
            if utilization_seed is not None:
                LinkUtilizationModel(0.2, 0.8, seed=utilization_seed).apply(topo)
            R_ref, hops_ref, paths_ref = oracles.resistance_matrix(
                model, topo, sources, destinations
            )
            for with_paths in (False, True):
                runs = {}
                for cap in (1, 7, 64, 10**9):
                    monkeypatch.setattr(enumkernel, "_FRONTIER_ROWS", cap)
                    out = []
                    counts = _counter_deltas(
                        ("routing.enum_kernel_calls", *TestBatchedCounters.TOTALS),
                        lambda: out.append(
                            model.resistance_matrix(
                                topo, sources, destinations, with_paths=with_paths
                            )
                        ),
                    )
                    runs[cap] = out[0], counts
                counts0 = runs[10**9][1]
                assert counts0[0] == 1
                for cap, ((R, hops, paths), counts) in runs.items():
                    assert np.array_equal(R, R_ref)
                    assert np.array_equal(hops, hops_ref)
                    assert paths == (paths_ref if with_paths else {})
                    assert counts[1:] == counts0[1:]
                    assert cap == 10**9 or counts[0] > 1  # split mid-flight

    def test_a_split_frontier_enters_no_hop_above_the_cap(self, monkeypatch):
        """Only a frontier down to one pair may carry more live rows
        (frontier rows plus survivors) into a hop than the cap."""
        cap = 16
        monkeypatch.setattr(enumkernel, "_FRONTIER_ROWS", cap)
        hop = enumkernel._PairPricing.hop
        entered = []

        def guarded(pricing, frontier, hops_left):
            held = [frontier.pair, *(p for p, _ in frontier.done)]
            entered.append((sum(p.size for p in held), np.unique(np.concatenate(held)).size))
            return hop(pricing, frontier, hops_left)

        monkeypatch.setattr(enumkernel._PairPricing, "hop", guarded)
        topo = build_fat_tree(8)  # uniform weights: many survivors per pair
        _enum_model(5).resistance_matrix(topo, list(range(0, 80, 9)), list(range(2, 80, 7)))
        assert all(rows <= cap or pairs == 1 for rows, pairs in entered)
        assert any(pairs == 1 and rows > cap for rows, pairs in entered)
        assert any(pairs > 1 for _, pairs in entered)


class TestBatchedCounters:
    """The kernel counters are per-pair sums whatever shares a frontier;
    only ``enum_kernel_calls`` sees the batching."""

    TOTALS = (
        "routing.enum_frontier_rows",
        "routing.enum_pruned_rows",
        "routing.enum_bound_cutoffs",
    )

    @pytest.mark.parametrize("k", [4, 8])
    def test_totals_equal_the_per_pair_sums(self, k):
        topo = build_fat_tree(k)
        LinkUtilizationModel(0.2, 0.8, seed=k + 1).apply(topo)
        n = topo.num_nodes
        sources = list(range(0, n, max(1, n // 5)))
        destinations = list(range(0, n, max(1, n // 6)))  # overlaps sources
        model = _enum_model(5)
        weights = model.edge_weights(topo)

        def per_pair():
            for s in sources:
                for d in destinations:
                    _best_enum_route(topo, s, d, 5, weights)

        batched = _counter_deltas(
            self.TOTALS, lambda: model.resistance_matrix(topo, sources, destinations)
        )
        assert batched == _counter_deltas(self.TOTALS, per_pair)
        assert batched[0] > 0 and batched[1] > 0

    def test_an_18_by_22_hop5_call_is_one_frontier(self):
        """Structural guard: the pairs of a pruned call share one
        frontier, not one per pair or per block of pairs."""
        topo = build_fat_tree(8)
        LinkUtilizationModel(0.2, 0.8, seed=5).apply(topo)
        sources = list(range(0, 72, 4))
        destinations = list(range(1, 80, 3))[:22]
        assert (len(sources), len(destinations)) == (18, 22)
        (calls,) = _counter_deltas(
            ["routing.enum_kernel_calls"],
            lambda: _enum_model(5).resistance_matrix(topo, sources, destinations),
        )
        assert calls == 1


class TestDegenerateCorners:
    def test_source_equals_destination(self):
        topo = build_fat_tree(4)
        weights = _weights(topo)
        for h in (None, 0, 1, 5):
            assert _best_enum_route(topo, 3, 3, h, weights) == (0.0, 0, ((3,), ()))
            assert count_paths_kernel(topo, 3, 3, h) == 1
            _assert_pair_identical(topo, 3, 3, h, weights)

    def test_max_hops_zero_and_one(self):
        topo = build_fat_tree(4)
        weights = _weights(topo)
        for s, d in [(0, 1), (0, topo.num_nodes - 1)]:
            for h in (0, 1):
                assert count_paths_kernel(topo, s, d, h) == _ref_count(topo, s, d, h)
                _assert_pair_identical(topo, s, d, h, weights)

    def test_unreachable_pair(self):
        topo = disconnected_topology()
        weights = _weights(topo)
        assert count_paths_kernel(topo, 0, 3, None) == 0
        assert _best_enum_route(topo, 0, 3, None, weights) == (math.inf, -1, None)
        _assert_pair_identical(topo, 0, 3, None, weights)

    def test_unreachable_within_budget(self):
        """Reachable in the graph, not within max_hops."""
        topo = build_fat_tree(4)
        weights = _weights(topo)
        # Cross-pod edge switches need >= 4 hops.
        s, d = 0, topo.num_nodes - 1
        assert _ref_count(topo, s, d, 2) == count_paths_kernel(topo, s, d, 2)
        _assert_pair_identical(topo, s, d, 2, weights)

    def test_negative_max_hops_rejected(self):
        topo = build_fat_tree(4)
        with pytest.raises(RoutingError):
            count_paths_kernel(topo, 0, 1, -1)
        with pytest.raises(RoutingError):
            _best_enum_route(topo, 0, 1, -2, _weights(topo))

    def test_nonpositive_weights_rejected(self):
        """No fallback engine: the bound DP rejects them like the dp
        engine does (``model.edge_weights`` cannot produce them)."""
        topo = build_fat_tree(4)
        weights = _weights(topo)
        weights[0] = 0.0
        with pytest.raises(RoutingError, match="strictly positive"):
            _best_enum_route(topo, 0, topo.num_nodes - 1, 4, weights)


class TestSurvivorStream:
    def test_survivors_are_dfs_prefix_consistent(self):
        """The kernel folds its survivors in DFS order: on a uniform
        mesh every shortest path ties, and the one-pair call must return
        the first of them in the full DFS stream — the judge's winner —
        priced by ``reduceat`` over its edges."""
        topo = build_fat_tree(4)  # untouched links: uniform weights
        weights = _weights(topo)
        s, d = 16, 9  # eight 4-hop paths
        res, nh, winner = _best_enum_route(topo, s, d, 5, weights)
        all_paths = list(iter_simple_paths_raw(topo, s, d, 5))
        shortest = min(len(edges) for _, edges in all_paths)
        first = next(p for p in all_paths if len(p[1]) == shortest)
        assert sum(len(p[1]) == shortest for p in all_paths) > 1  # real ties
        assert (nh, winner) == (shortest, first)
        assert res == np.add.reduceat(weights[list(winner[1])], [0])[0]
        assert (res, nh, winner) == oracles.enum_best_route(topo, s, d, 5, weights)

    def test_enumerate_paths_limit_is_dfs_prefix(self):
        topo = build_fat_tree(4)
        full = enumerate_paths(topo, 0, topo.num_nodes - 1, 5)
        capped = enumerate_paths(topo, 0, topo.num_nodes - 1, 5, limit=7)
        assert capped == full[:7]
