"""Topology version counter (what the CSR / link-state caches key on)."""

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

    def test_touch_links_declares_out_of_band_mutation(self):
        topo = line3()
        v = topo.version
        topo.links[0].utilization = 0.7  # direct write: invisible...
        assert topo.version == v
        topo.touch_links([0])  # ...until declared
        assert topo.version == v + 1
        topo.touch_links()
        assert topo.version == v + 2
        with pytest.raises(TopologyError):
            topo.touch_links([99])
        assert topo.version == v + 2
