"""Link state lives in the topology's arrays: a property over random
write sequences.

Whatever mix of setter calls, writes through ``Link`` views, new edges
and ``to_arrays`` → ``from_arrays`` round trips a topology goes through,
its cached ``Lu_e`` vector stays bit-for-bit equal to the per-link loop
in :func:`tests.oracles.effective_bandwidths`, the CSR costs stay
``1 / Lu_e``, every write strictly increases ``version`` and the vector
handed out is read-only.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import BandwidthConvention, Link, Topology, build_fat_tree
from tests.oracles import effective_bandwidths
from tests.topologies import build_line, build_ring, build_star

GRAPHS = {
    "line5": lambda: build_line(5),
    "ring6": lambda: build_ring(6),
    "star4": lambda: build_star(4),
    "fat-tree-4": lambda: build_fat_tree(4),
}

utilizations = st.floats(0.0, 1.0)
capacities = st.floats(1e-3, 1e5)
operations = st.one_of(
    st.tuples(st.just("set_utilization"), st.integers(0, 10**6), utilizations),
    st.tuples(st.just("set_capacity"), st.integers(0, 10**6), capacities),
    st.tuples(st.just("set_link_utilizations"), st.integers(0, 2**32 - 1), st.none()),
    st.tuples(st.just("view_utilization"), st.integers(0, 10**6), utilizations),
    st.tuples(st.just("view_capacity"), st.integers(0, 10**6), capacities),
    st.tuples(st.just("add_edge"), st.integers(0, 10**6), capacities),
    st.tuples(st.just("round_trip"), st.none(), st.none()),
)


def _apply(topo, op, arg, value):
    """Run one operation; returns the topology to continue with and
    whether the operation was a write (so must have bumped ``version``)."""
    m = topo.num_edges
    if op == "set_utilization":
        topo.set_utilization(arg % m, value)
    elif op == "set_capacity":
        topo.set_capacity(arg % m, value)
    elif op == "set_link_utilizations":
        topo.set_link_utilizations(np.random.default_rng(arg).uniform(0.0, 1.0, m))
    elif op == "view_utilization":
        topo.links[arg % m].utilization = value
    elif op == "view_capacity":
        topo.link(arg % m).capacity_mbps = value
    elif op == "add_edge":
        n = topo.num_nodes
        free = [(u, v) for u in range(n) for v in range(u + 1, n) if not topo.has_edge(u, v)]
        if not free:
            return topo, False
        u, v = free[arg % len(free)]
        topo.add_edge(u, v, Link(capacity_mbps=value, utilization=(arg % 7) / 7.0))
    else:
        return Topology.from_arrays(topo.to_arrays()), False
    return topo, True


def _check(topo):
    for convention in BandwidthConvention:
        lu = topo.effective_bandwidths(convention)
        expected = effective_bandwidths(topo.links, convention)
        assert lu.dtype == expected.dtype and lu.tobytes() == expected.tobytes()
        assert not lu.flags.writeable
        with pytest.raises(ValueError):
            lu[0] = 1.0
        costs = topo.csr_adjacency(convention).edge_costs
        assert costs.tobytes() == (1.0 / expected).tobytes()


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@settings(max_examples=30, deadline=None)
@given(ops=st.lists(operations, max_size=12))
def test_lu_cache_matches_the_per_link_oracle(graph, ops):
    topo = GRAPHS[graph]()
    _check(topo)
    for op, arg, value in ops:
        before = topo.version
        topo, wrote = _apply(topo, op, arg, value)
        if wrote:
            assert topo.version > before
        _check(topo)
