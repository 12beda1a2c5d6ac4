"""Tests for link models and capacity sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, TopologyError
from repro.topology import (
    MIN_EFFECTIVE_BANDWIDTH_MBPS,
    BandwidthConvention,
    CapacityDistribution,
    CapacityModel,
    Link,
    LinkUtilizationModel,
)
from tests.oracles import effective_bandwidths
from tests.topologies import build_ring


class TestLink:
    def test_available_and_utilized(self):
        link = Link(capacity_mbps=1000.0, utilization=0.3)
        assert link.available_mbps == pytest.approx(700.0)
        assert link.utilized_mbps == pytest.approx(300.0)

    def test_effective_respects_convention(self):
        link = Link(capacity_mbps=1000.0, utilization=0.3)
        assert link.effective_mbps(BandwidthConvention.AVAILABLE) == pytest.approx(700.0)
        assert link.effective_mbps(BandwidthConvention.UTILIZED_LITERAL) == pytest.approx(300.0)

    def test_effective_floor_prevents_zero_division(self):
        saturated = Link(capacity_mbps=1000.0, utilization=1.0)
        assert saturated.effective_mbps(BandwidthConvention.AVAILABLE) == (
            MIN_EFFECTIVE_BANDWIDTH_MBPS
        )
        idle = Link(capacity_mbps=1000.0, utilization=0.0)
        assert idle.effective_mbps(BandwidthConvention.UTILIZED_LITERAL) == (
            MIN_EFFECTIVE_BANDWIDTH_MBPS
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"capacity_mbps": 0.0},
            {"capacity_mbps": -5.0},
            {"utilization": -0.1},
            {"utilization": 1.1},
            {"latency_ms": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(TopologyError):
            Link(**kwargs)


class TestLinkUtilizationModel:
    def test_apply_sets_all_links(self):
        topo = build_ring(5)
        LinkUtilizationModel(0.2, 0.6, seed=1).apply(topo)
        utils = [link.utilization for link in topo.links]
        assert all(0.2 <= u <= 0.6 for u in utils)

    def test_deterministic(self):
        a = LinkUtilizationModel(0.1, 0.9, seed=5).sample(10)
        b = LinkUtilizationModel(0.1, 0.9, seed=5).sample(10)
        np.testing.assert_array_equal(a, b)

    def test_invalid_range(self):
        with pytest.raises(TopologyError):
            LinkUtilizationModel(0.8, 0.2)
        with pytest.raises(TopologyError):
            LinkUtilizationModel(-0.1, 0.5)

    def test_effective_bandwidths_helper(self):
        links = [Link(capacity_mbps=100.0, utilization=0.5) for _ in range(3)]
        np.testing.assert_allclose(effective_bandwidths(links), [50.0, 50.0, 50.0])


class TestCapacityModel:
    def test_uniform_within_bounds(self):
        caps = CapacityModel(x_min=20.0, seed=0).sample(500)
        assert caps.min() >= 20.0
        assert caps.max() <= 100.0

    @pytest.mark.parametrize("dist", list(CapacityDistribution))
    def test_all_distributions_respect_bounds(self, dist):
        caps = CapacityModel(x_min=15.0, distribution=dist, seed=3).sample(300)
        assert caps.min() >= 15.0
        assert caps.max() <= 100.0

    def test_bimodal_has_two_modes(self):
        caps = CapacityModel(
            x_min=10.0,
            distribution=CapacityDistribution.BIMODAL,
            hot_fraction=0.5,
            seed=1,
        ).sample(2000)
        # Hot mode mass near the top, cool mass near the bottom.
        assert (caps > 80).mean() > 0.15
        assert (caps < 40).mean() > 0.15

    def test_reseed_reproduces(self):
        model = CapacityModel(x_min=10.0, seed=0)
        model.reseed(42)
        a = model.sample(10)
        model.reseed(42)
        b = model.sample(10)
        np.testing.assert_array_equal(a, b)

    def test_invalid_x_min(self):
        with pytest.raises(CapacityError):
            CapacityModel(x_min=100.0)
        with pytest.raises(CapacityError):
            CapacityModel(x_min=-1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(CapacityError):
            CapacityModel().sample(-1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=99.0),
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=10_000),
    )
    def test_property_samples_in_constraint_3e_range(self, x_min, n, seed):
        """Constraint 3e: every sampled capacity is in [x_min, 100]."""
        caps = CapacityModel(x_min=x_min, seed=seed).sample(n)
        assert caps.shape == (n,)
        if n:
            assert caps.min() >= x_min - 1e-9
            assert caps.max() <= 100.0 + 1e-9
