"""The enumeration kernel's bound planes, pinned to the per-source DP.

:func:`repro.routing.matrix._hop_layers` builds every destination's
``(H+1, n)`` hop-layered plane from one run of the matrix DP's
relaxation loop. Each plane must equal the ``dist`` array of
:func:`repro.routing.hop_constrained_shortest` from that destination
exactly (``array_equal``), including the layers past convergence that
the matrix loop never computes and pads with its last layer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import hop_constrained_shortest
from repro.routing.matrix import _hop_layers
from repro.topology import Link, Topology, build_fat_tree
from tests.topologies import build_random_connected


def _assert_planes_pinned(topology, destinations, max_hops, weights):
    planes = _hop_layers(topology, destinations, max_hops, weights)
    reference = np.stack(
        [
            hop_constrained_shortest(topology, int(d), max_hops, weights).dist
            for d in destinations
        ]
    )
    assert planes.shape == reference.shape
    assert np.array_equal(planes, reference)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=3, max_value=16),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=9),
)
def test_property_random_graphs(n, seed, max_hops):
    topo = build_random_connected(n, edge_probability=0.3, seed=seed)
    weights = np.random.default_rng(seed + 5).uniform(0.05, 3.0, topo.num_edges)
    _assert_planes_pinned(topo, list(range(0, n, 2)), max_hops, weights)


@pytest.mark.parametrize("k", [4, 8])
def test_fat_tree_budgets_up_to_past_convergence(k):
    topo = build_fat_tree(k)
    weights = np.random.default_rng(k).uniform(0.01, 2.0, topo.num_edges)
    n = topo.num_nodes
    destinations = [1, n // 3, n // 2, n - 1]
    for max_hops in (1, 5, n - 1):  # n - 1: converges long before the last layer
        _assert_planes_pinned(topo, destinations, max_hops, weights)


def test_duplicate_destinations():
    topo = build_fat_tree(4)
    weights = np.random.default_rng(1).uniform(0.1, 1.0, topo.num_edges)
    _assert_planes_pinned(topo, [3, 7, 3, 3, 0], 4, weights)


def test_disconnected_graph():
    """Two components: cross-component cells stay ``inf`` on every layer."""
    topo = Topology()
    for _ in range(6):
        topo.add_node()
    for u, v in [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]:
        topo.add_edge(u, v, Link(capacity_mbps=1000.0))
    weights = np.array([0.5, 1.5, 0.25, 2.0, 1.0])
    for max_hops in (1, 3, 5):
        _assert_planes_pinned(topo, [0, 4, 2], max_hops, weights)
    planes = _hop_layers(topo, [0], 5, weights)
    assert np.isinf(planes[0, :, 3:]).all()
