"""``PlacementProblem.from_loads`` and the stale-topology guard.

The builder must reproduce, bit for bit, the Eq. 3 instance the figures
used to assemble by hand; the guard must refuse a problem whose
topology's links moved after it was built, at every solver entry.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (
    DistributedPlacementEngine,
    PlacementEngine,
    PlacementProblem,
    ThresholdPolicy,
    ZonedPlacementEngine,
    classify_network,
    partition_by_pod,
    solve_heuristic,
)
from repro.errors import PlacementError
from repro.experiments.common import IterationSampler
from repro.experiments.fig11_scalability import DEFAULT_POLICY as FIG11_POLICY
from repro.topology import LinkUtilizationModel, build_fat_tree

POLICIES = {
    "fig7 delta 0.8": ThresholdPolicy.with_delta_io(0.8, c_max=82.0, x_min=10.0),
    "fig7 delta 3.5": ThresholdPolicy.with_delta_io(3.5, c_max=82.0, x_min=10.0),
    "fig9": ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0),
    "fig11": FIG11_POLICY,
}


def by_hand(topology, loads, policy, max_hops=None):
    """The figures' hand-built Eq. 3 instance."""
    roles = classify_network(loads, policy)
    busy, candidates = roles.busy, roles.candidates
    return PlacementProblem(
        topology=topology,
        busy=tuple(busy),
        candidates=tuple(candidates),
        cs=np.array([policy.excess_load(loads[b]) for b in busy]),
        cd=np.array([policy.spare_capacity(loads[c]) for c in candidates]),
        data_mb=np.full(len(busy), 10.0),
        max_hops=max_hops,
    )


def assert_identical(built, expected):
    """Field by field; arrays equal in dtype, shape and every bit."""
    for field in dataclasses.fields(PlacementProblem):
        a, b = getattr(built, field.name), getattr(expected, field.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a is b or a == b, field.name


class TestFromLoads:
    @pytest.mark.parametrize("policy", POLICIES.values(), ids=POLICIES.keys())
    @pytest.mark.parametrize("seed", [0, 1, 7, 40])
    def test_equals_the_hand_built_instance(self, policy, seed):
        topology = build_fat_tree(4)
        sampler = IterationSampler(topology, x_min=policy.x_min, seed=seed)
        for _, loads in sampler.states(5):
            for max_hops in (None, 4):
                assert_identical(
                    PlacementProblem.from_loads(topology, loads, policy, max_hops=max_hops),
                    by_hand(topology, loads, policy, max_hops),
                )

    @pytest.mark.parametrize("load, empty", [(40.0, "busy"), (90.0, "candidates")])
    def test_state_with_an_empty_side(self, load, empty):
        topology = build_fat_tree(4)
        policy = POLICIES["fig9"]
        loads = np.full(topology.num_nodes, load)
        built = PlacementProblem.from_loads(topology, loads, policy)
        assert getattr(built, empty) == ()
        assert_identical(built, by_hand(topology, loads, policy))


class TestStaleProblem:
    """A problem keeps ``topology.version`` from when it was built."""

    @staticmethod
    def setup_problem():
        topology = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.8, seed=1).apply(topology)
        loads = np.full(topology.num_nodes, 40.0)
        loads[[4, 8]] = 92.0  # two busy aggregation switches
        problem = PlacementProblem(
            topology=topology,
            busy=(4, 8),
            candidates=tuple(n for n in range(topology.num_nodes) if n not in (4, 8)),
            cs=loads[[4, 8]] - 80.0,
            cd=np.full(topology.num_nodes - 2, 10.0),
            data_mb=np.full(2, 10.0),
            max_hops=4,
        )
        return topology, problem

    ENTRY_POINTS = {
        "PlacementEngine.solve": lambda p: PlacementEngine().solve(p),
        "DistributedPlacementEngine.solve": lambda p: DistributedPlacementEngine(
            zones=partition_by_pod(p.topology)
        ).solve(p),
        "ZonedPlacementEngine.solve": lambda p: ZonedPlacementEngine().solve(
            p, partition_by_pod(p.topology)
        ),
        "solve_heuristic": solve_heuristic,
    }

    @pytest.mark.parametrize("solve", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_refused_after_the_links_move(self, solve):
        topology, problem = self.setup_problem()
        LinkUtilizationModel(0.2, 0.8, seed=2).apply(topology)
        with pytest.raises(PlacementError, match="topology changed"):
            solve(problem)

    @pytest.mark.parametrize("solve", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_solving_twice_without_a_write_is_allowed(self, solve):
        _, problem = self.setup_problem()
        first, second = solve(problem), solve(problem)
        assert first.total_offloaded == second.total_offloaded > 0
