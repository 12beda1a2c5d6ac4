"""Tests for threshold policy (Eq. 5) and role assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    NodeRole,
    RECOMMENDED_K_IO,
    ThresholdPolicy,
    classify_network,
)
from repro.errors import CapacityError


class TestThresholdPolicy:
    def test_defaults_valid(self):
        policy = ThresholdPolicy()
        assert policy.c_max == 80.0
        assert policy.co_max == 50.0

    def test_busy_and_candidate_classification(self):
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        # Boundaries: busy is >= C_max, candidate is <= CO_max.
        roles = classify_network([80.0, 95.0, 79.9, 50.0, 50.1], policy)
        assert roles.busy == [0, 1]
        assert roles.candidates == [3]
        assert policy.is_candidate(50.0)
        assert not policy.is_candidate(50.1)

    def test_excess_load_eq_3c(self):
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0)
        assert policy.excess_load(92.5) == pytest.approx(12.5)
        assert policy.excess_load(70.0) == 0.0

    def test_spare_capacity_eq_3d(self):
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0)
        assert policy.spare_capacity(30.0) == pytest.approx(20.0)
        assert policy.spare_capacity(60.0) == 0.0

    def test_delta_io_eq_5(self):
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        assert policy.delta_o == pytest.approx(40.0)
        assert policy.delta_b == pytest.approx(20.0)
        assert policy.delta_io == pytest.approx(2.0)
        assert policy.delta_io >= RECOMMENDED_K_IO

    def test_delta_io_infinite_when_cmax_100(self):
        policy = ThresholdPolicy(c_max=100.0, co_max=50.0, x_min=10.0)
        assert policy.delta_io == float("inf")

    def test_with_delta_io_roundtrip(self):
        for delta in (0.8, 1.5, 2.0, 3.0):
            policy = ThresholdPolicy.with_delta_io(delta, c_max=82.0, x_min=10.0)
            assert policy.delta_io == pytest.approx(delta)

    def test_with_delta_io_impossible_target(self):
        # delta so big co_max would exceed c_max.
        with pytest.raises(CapacityError, match="lower delta_io"):
            ThresholdPolicy.with_delta_io(4.0, c_max=80.0, x_min=10.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_min": -1.0},
            {"x_min": 100.0},
            {"co_max": 5.0, "x_min": 10.0},
            {"c_max": 0.0},
            {"c_max": 101.0},
            {"co_max": 90.0, "c_max": 80.0},  # co_max >= c_max
            {"co_max": 80.0, "c_max": 80.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(CapacityError):
            ThresholdPolicy(**kwargs)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=99.0),
           st.floats(min_value=0.1, max_value=99.9),
           st.floats(min_value=0.1, max_value=99.0))
    def test_property_no_node_is_both_busy_and_candidate(self, x_min, a, b):
        """co_max < c_max enforcement makes the role sets disjoint."""
        lo, hi = sorted((a, b))
        if lo <= x_min or lo == hi:
            return
        policy = ThresholdPolicy(c_max=hi, co_max=lo, x_min=min(x_min, lo))
        for cap in np.linspace(policy.x_min, 100.0, 23):
            assert not (cap >= policy.c_max and policy.is_candidate(cap))


class TestRoles:
    policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)

    def test_classify_node(self):
        def role(capacity, participating=True):
            return classify_network([capacity], self.policy, [participating]).roles[0]

        assert role(90.0) is NodeRole.BUSY
        assert role(40.0) is NodeRole.OFFLOAD_CANDIDATE
        assert role(65.0) is NodeRole.NEUTRAL
        assert role(90.0, participating=False) is NodeRole.NONE_OFFLOADING

    def test_classify_network_sets(self):
        caps = [90.0, 40.0, 65.0, 85.0, 20.0]
        roles = classify_network(caps, self.policy)
        assert roles.busy == [0, 3]
        assert roles.candidates == [1, 4]
        assert roles.relays == [2]
        assert roles.opted_out == []

    def test_participation_mask(self):
        caps = [90.0, 40.0]
        roles = classify_network(caps, self.policy, participating=[False, True])
        assert roles.busy == []
        assert roles.opted_out == [0]
        assert roles.candidates == [1]

    def test_mask_shape_validated(self):
        with pytest.raises(ValueError, match="participation mask"):
            classify_network([1.0, 2.0], self.policy, participating=[True])

    def test_counts(self):
        caps = [90.0, 40.0, 65.0]
        counts = classify_network(caps, self.policy).counts()
        assert counts[NodeRole.BUSY] == 1
        assert counts[NodeRole.OFFLOAD_CANDIDATE] == 1
        assert counts[NodeRole.NEUTRAL] == 1
        assert counts[NodeRole.NONE_OFFLOADING] == 0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=10.0, max_value=100.0), max_size=40))
    def test_property_partition_is_total(self, caps):
        """Every participating node lands in exactly one role."""
        roles = classify_network(caps, self.policy)
        all_nodes = sorted(
            roles.busy + roles.candidates + roles.relays + roles.opted_out
        )
        assert all_nodes == list(range(len(caps)))
