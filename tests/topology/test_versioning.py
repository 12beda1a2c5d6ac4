"""Topology version counter (what the Lu_e / CSR caches key on) and the
link-state validator every writer runs."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import Link, Topology


def line3():
    """0 - 1 - 2 with distinct capacities."""
    topo = Topology(name="line3")
    n0, n1, n2 = topo.add_node(), topo.add_node(), topo.add_node()
    topo.add_edge(n0, n1, Link(capacity_mbps=100.0, utilization=0.0))
    topo.add_edge(n1, n2, Link(capacity_mbps=200.0, utilization=0.0))
    return topo


class TestVersionCounter:
    def test_construction_bumps_version(self):
        topo = Topology()
        v0 = topo.version
        topo.add_node()
        assert topo.version == v0 + 1
        topo.add_node()
        topo.add_edge(0, 1, Link(capacity_mbps=10.0))
        assert topo.version == v0 + 3

    def test_link_state_writes_bump_once_each(self):
        topo = line3()
        v = topo.version
        topo.set_utilization(0, 0.5)
        assert topo.version == v + 1
        topo.set_capacity(1, 300.0)
        assert topo.version == v + 2

    def test_bulk_update_bumps_once(self):
        topo = line3()
        v = topo.version
        topo.set_link_utilizations([0.1, 0.2])
        assert topo.version == v + 1

    def test_version_is_monotonic_and_readonly(self):
        topo = line3()
        with pytest.raises(AttributeError):
            topo.version = 0

    def test_invalid_writes_do_not_bump(self):
        topo = line3()
        v = topo.version
        with pytest.raises(TopologyError):
            topo.set_utilization(0, 1.5)
        with pytest.raises(TopologyError):
            topo.set_capacity(0, -1.0)
        with pytest.raises(TopologyError):
            topo.set_link_utilizations([0.1])  # wrong arity
        assert topo.version == v

    def test_direct_link_write_is_visible_and_bumps_version(self):
        topo = line3()
        v = topo.version
        link = topo.links[0]
        link.utilization = 0.7  # a view: the write goes through set_utilization
        assert topo.version == v + 1
        assert topo.link(0).utilization == 0.7
        assert topo.effective_bandwidths()[0] == 100.0 * (1.0 - 0.7)
        topo.link_between(1, 2).capacity_mbps = 50.0
        assert topo.version == v + 2
        assert topo.links[1].capacity_mbps == 50.0
        with pytest.raises(TopologyError):
            link.utilization = 1.5  # validated like the setter, no bump
        with pytest.raises(TopologyError):
            link.latency_ms = 1.0  # fixed once the link is in a topology
        assert topo.version == v + 2


class TestLinkStateRejectsGarbage:
    """Every writer of link state runs the one validator: NaN and
    infinities are refused, and a refused write changes nothing."""

    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize("value", [NAN, INF, -INF, -0.1, 1.5])
    def test_set_utilization(self, value):
        topo = line3()
        v = topo.version
        with pytest.raises(TopologyError):
            topo.set_utilization(0, value)
        assert topo.version == v and topo.link(0).utilization == 0.0

    @pytest.mark.parametrize("value", [NAN, INF, -INF, 0.0, -1.0])
    def test_set_capacity(self, value):
        topo = line3()
        v = topo.version
        with pytest.raises(TopologyError):
            topo.set_capacity(0, value)
        assert topo.version == v and topo.link(0).capacity_mbps == 100.0

    @pytest.mark.parametrize("value", [NAN, INF, -INF, -0.1, 1.5])
    def test_set_link_utilizations(self, value):
        topo = line3()
        v = topo.version
        with pytest.raises(TopologyError):
            topo.set_link_utilizations([0.3, value])
        assert topo.version == v
        assert [link.utilization for link in topo.links] == [0.0, 0.0]
        assert np.isfinite(topo.effective_bandwidths()).all()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity_mbps": NAN},
            {"capacity_mbps": INF},
            {"utilization": NAN},
            {"latency_ms": NAN},
            {"latency_ms": INF},
        ],
    )
    def test_link_constructor(self, kwargs):
        with pytest.raises(TopologyError):
            Link(**kwargs)

    def test_add_edge_revalidates_a_link_mutated_after_construction(self):
        topo = line3()
        link = Link()
        link.capacity_mbps = self.NAN  # a standalone Link is a plain record
        with pytest.raises(TopologyError):
            topo.add_edge(0, 2, link)
        assert topo.num_edges == 2

    def test_from_arrays(self):
        arrays = line3().to_arrays()
        arrays.capacity_mbps[1] = self.NAN
        with pytest.raises(TopologyError):
            Topology.from_arrays(arrays)
