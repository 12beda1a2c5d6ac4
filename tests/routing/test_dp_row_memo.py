"""The dp rows a topology keeps per link state.

A dp pricing call relaxes only the sources its topology kept no row for
at the current :attr:`Topology.version` (or kept without parent planes,
when routes are asked for); the rest come from
:meth:`Topology.link_state_memo`. Random call sequences — overlapping,
repeated and empty source lists, with and without routes, both
bandwidth conventions, two hop budgets, every kind of link-state write
in between — must price exactly what the oracles price, walk the route
a fresh one-source DP walks, and relax exactly the rows a simulated
memo says are missing.
"""

import numpy as np
import pytest

from repro.obs import get_registry
from repro.routing import PathEngine, ResponseTimeModel, TrminEngine
from repro.routing.matrix import matrix_hop_constrained
from repro.topology import BandwidthConvention, build_fat_tree
from tests import oracles
from tests.topologies import build_random_connected

CONVENTIONS = list(BandwidthConvention)
HOP_BUDGETS = (3, None)


def counts():
    registry = get_registry()
    return (
        registry.counter("trmin.rows_priced").value,
        registry.counter("trmin.rows_reused").value,
    )


def memo_key(model):
    return ("dp_rows", model.convention, model.max_hops)


def write_link_state(topo, rng):
    """One random link-state write through each public path."""
    kind = int(rng.integers(4))
    edge = int(rng.integers(topo.num_edges))
    if kind == 0:
        topo.set_utilization(edge, float(rng.uniform(0.0, 0.9)))
    elif kind == 1:
        topo.set_capacity(edge, float(rng.uniform(100.0, 1000.0)))
    elif kind == 2:
        topo.set_link_utilizations(rng.uniform(0.0, 0.9, topo.num_edges))
    else:
        topo.link(edge).utilization = float(rng.uniform(0.0, 0.9))


def random_sources(rng, pool, last):
    """Empty, repeating, or overlapping the previous call's list."""
    shape = int(rng.integers(4))
    if shape == 0:
        return []
    sources = [int(s) for s in rng.choice(pool, size=int(rng.integers(1, 6)))]
    if shape == 1 and sources:
        sources.append(sources[0])  # one source listed twice
    if shape == 2 and last:
        sources = last[: int(rng.integers(1, len(last) + 1))] + sources
    return sources


def assert_routes_are_fresh(topo, model, sources, destinations, R, paths):
    """Every reachable pair's route is the one a one-source DP walks."""
    weights = model.edge_weights(topo)
    reachable = {
        (s, d)
        for a, s in enumerate(sources)
        for b, d in enumerate(destinations)
        if np.isfinite(R[a, b])
    }
    assert set(paths) == reachable
    for s, d in reachable:
        fresh = matrix_hop_constrained(
            topo, [s], model.max_hops, weights, with_parents=True
        )
        assert paths[(s, d)] == fresh.path_to(0, d), (s, d)


def run_sequence(topo, seed, steps=40):
    rng = np.random.default_rng(seed)
    n = topo.num_nodes
    pool = np.arange(n)
    destinations = [int(d) for d in rng.choice(pool, size=min(6, n), replace=False)]
    kept = {}  # memo key -> {source: has parents}, as the topology should hold
    version = topo.version
    last = []
    for _ in range(steps):
        if rng.random() < 0.3:
            write_link_state(topo, rng)
            continue
        model = ResponseTimeModel(
            engine=PathEngine.DP,
            convention=CONVENTIONS[int(rng.integers(len(CONVENTIONS)))],
            max_hops=HOP_BUDGETS[int(rng.integers(len(HOP_BUDGETS)))],
        )
        with_paths = bool(rng.integers(2))
        sources = random_sources(rng, pool, last)
        last = sources

        if topo.version != version:
            kept, version = {}, topo.version
        rows = kept.setdefault(memo_key(model), {})
        missing = [
            s for s in dict.fromkeys(sources)
            if s not in rows or (with_paths and not rows[s])
        ]
        for s in missing:
            rows[s] = with_paths

        before = counts()
        R, hops, paths = TrminEngine(model).resistance_matrix(
            topo, sources, destinations, with_paths=with_paths
        )
        after = counts()
        assert after[0] - before[0] == len(missing)
        assert after[1] - before[1] == len(sources) - len(missing)

        R_ref, hops_ref, _ = oracles.resistance_matrix(
            model, topo, sources, destinations
        )
        assert R.shape == hops.shape == (len(sources), len(destinations))
        assert np.array_equal(R, R_ref)
        assert np.array_equal(hops, hops_ref)
        if with_paths:
            assert_routes_are_fresh(topo, model, sources, destinations, R, paths)
        else:
            assert paths == {}


class TestRandomCallSequences:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_topology(self, seed):
        topo = build_random_connected(12, edge_probability=0.25, seed=seed)
        topo.set_link_utilizations(
            np.random.default_rng(seed).uniform(0.0, 0.9, topo.num_edges)
        )
        run_sequence(topo, seed)

    @pytest.mark.parametrize("seed", range(2))
    def test_fat_tree(self, seed):
        topo = build_fat_tree(4)
        topo.set_link_utilizations(
            np.random.default_rng(seed).uniform(0.0, 0.9, topo.num_edges)
        )
        run_sequence(topo, 100 + seed)


def fat_tree():
    topo = build_fat_tree(4)
    rng = np.random.default_rng(3)
    topo.set_link_utilizations(rng.uniform(0.0, 0.9, topo.num_edges))
    return topo


MODEL = ResponseTimeModel(engine=PathEngine.DP, max_hops=None)
SOURCES, DESTINATIONS = [0, 3, 7, 3], [9, 12, 15, 19]


class TestRowsPricedPerLinkState:
    def test_repeated_call_prices_no_row(self):
        topo = fat_tree()
        engine = TrminEngine(MODEL)
        first = engine.resistance_matrix(topo, SOURCES, DESTINATIONS, with_paths=True)
        before = counts()
        again = engine.resistance_matrix(topo, SOURCES, DESTINATIONS, with_paths=True)
        after = counts()
        assert after[0] == before[0]
        assert after[1] - before[1] == len(SOURCES)
        assert np.array_equal(first[0], again[0])
        assert np.array_equal(first[1], again[1])
        assert dict(first[2]) == dict(again[2])

    @pytest.mark.parametrize(
        "write",
        [
            lambda topo: topo.set_utilization(2, 0.5),
            lambda topo: topo.set_capacity(2, 250.0),
            lambda topo: topo.set_link_utilizations(np.full(topo.num_edges, 0.3)),
            lambda topo: setattr(topo.link(2), "utilization", 0.5),
            lambda topo: topo.add_edge(0, topo.add_node()),
        ],
        ids=["set_utilization", "set_capacity", "set_link_utilizations",
             "link_view", "add_edge"],
    )
    def test_call_after_any_write_prices_every_row(self, write):
        topo = fat_tree()
        engine = TrminEngine(MODEL)
        engine.resistance_matrix(topo, SOURCES, DESTINATIONS, with_paths=True)
        write(topo)
        before = counts()
        R, hops, _ = engine.resistance_matrix(topo, SOURCES, DESTINATIONS)
        after = counts()
        assert after[0] - before[0] == len(set(SOURCES))
        R_ref, hops_ref, _ = oracles.resistance_matrix(
            MODEL, topo, SOURCES, DESTINATIONS
        )
        assert np.array_equal(R, R_ref) and np.array_equal(hops, hops_ref)

    def test_routes_reprice_rows_kept_without_parents(self):
        topo = fat_tree()
        engine = TrminEngine(MODEL)
        engine.resistance_matrix(topo, SOURCES, DESTINATIONS)
        before = counts()
        engine.resistance_matrix(topo, SOURCES, DESTINATIONS, with_paths=True)
        between = counts()
        engine.resistance_matrix(topo, SOURCES, DESTINATIONS)
        after = counts()
        assert between[0] - before[0] == len(set(SOURCES))
        assert after[0] == between[0]

    def test_kept_rows_are_read_only(self):
        topo = fat_tree()
        TrminEngine(MODEL).resistance_matrix(
            topo, SOURCES, DESTINATIONS, with_paths=True
        )
        rows = topo.link_state_memo(memo_key(MODEL))
        assert set(rows) == set(SOURCES)
        for row in rows.values():
            for arr in row:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = arr[0]

    def test_returned_matrices_do_not_alias_kept_rows(self):
        topo = fat_tree()
        engine = TrminEngine(MODEL)
        R, hops, _ = engine.resistance_matrix(topo, SOURCES, DESTINATIONS)
        R[:] = 0.0
        hops[:] = 0
        R_again, hops_again, _ = engine.resistance_matrix(topo, SOURCES, DESTINATIONS)
        R_ref, hops_ref, _ = oracles.resistance_matrix(
            MODEL, topo, SOURCES, DESTINATIONS
        )
        assert np.array_equal(R_again, R_ref) and np.array_equal(hops_again, hops_ref)
