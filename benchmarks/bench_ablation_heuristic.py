"""Ablation: heuristic hop radius (Algorithm 1 generalization).

DESIGN.md ablation 3: the paper fixes max-hop = 1; widening the radius
trades runtime for lower HFR, interpolating toward the full ILP. The
radius-1 row is additionally ablated over the *solver*: the vectorized
CSR kernel vs. the test suite's per-node oracle loop, which quantifies
the kernel's speedup on this fixture (the dedicated gate lives in
``benchmarks/bench_heuristic_kernel.py``).
"""

import os
import sys

import numpy as np
import pytest

from repro.core import PlacementProblem, ThresholdPolicy, classify_network, solve_heuristic
from repro.topology import CapacityModel, LinkUtilizationModel, build_fat_tree

# The comparator lives with the test oracles, outside the package.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from tests.oracles import solve_heuristic_reference  # noqa: E402


@pytest.fixture(scope="module")
def problem():
    topo = build_fat_tree(8)
    LinkUtilizationModel(0.2, 0.8, seed=3).apply(topo)
    policy = ThresholdPolicy(c_max=80.0, co_max=35.0, x_min=10.0)
    caps = CapacityModel(x_min=10.0, seed=4).sample(topo.num_nodes)
    roles = classify_network(caps, policy)
    assert roles.busy and roles.candidates
    return PlacementProblem(
        topology=topo,
        busy=tuple(roles.busy),
        candidates=tuple(roles.candidates),
        cs=np.array([policy.excess_load(caps[b]) for b in roles.busy]),
        cd=np.array([policy.spare_capacity(caps[c]) for c in roles.candidates]),
        data_mb=np.full(len(roles.busy), 10.0),
    )


@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_ablation_heuristic_radius(benchmark, problem, radius):
    report = benchmark(lambda: solve_heuristic(problem, hop_radius=radius))
    # Wider radius can only reduce (or keep) the failure rate.
    assert 0.0 <= report.hfr_pct <= 100.0


@pytest.mark.parametrize(
    "solver",
    [solve_heuristic, solve_heuristic_reference],
    ids=["kernel", "reference"],
)
def test_ablation_heuristic_solver(benchmark, problem, solver):
    # Radius 1, kernel vs. reference loop — same HeuristicReport either
    # way (bit-identity is property-tested in tests/core/), so the only
    # difference the benchmark sees is wall time.
    report = benchmark(lambda: solver(problem))
    expected = solve_heuristic_reference(problem)
    assert report.hfr_pct == expected.hfr_pct
    assert tuple(report.assignments) == tuple(expected.assignments)


def test_radius_monotonically_reduces_hfr(problem):
    hfrs = [solve_heuristic(problem, hop_radius=r).hfr_pct for r in (1, 2, 3, 4)]
    assert all(a >= b - 1e-9 for a, b in zip(hfrs, hfrs[1:]))
