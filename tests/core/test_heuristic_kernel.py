"""Bit-identity of the vectorized Algorithm-1 pipeline vs its oracle.

:func:`solve_heuristic` must produce reports that are *bit-identical*
to :func:`tests.oracles.solve_heuristic_reference` — same amounts, same
HFR, same lane order, same routes — across hundreds of randomized
fat-tree instances and every degenerate shape we can think of, at the
paper's radius 1 and at wider radii (where routes are held to the
price-consistency rule instead: the matrix DP's tie witnesses are its
own). Any drift here silently changes Fig. 11/12.
"""

import numpy as np
import pytest

from repro.core import (
    PlacementProblem,
    ThresholdPolicy,
    classify_network,
    solve_heuristic,
)
from repro.errors import PlacementError
from repro.obs import get_registry
from repro.routing import PathEngine, ResponseTimeModel, TrminEngine
from repro.topology import CapacityModel, LinkUtilizationModel, build_fat_tree
from tests.oracles import solve_heuristic_reference
from tests.topologies import build_line, build_star

#: 70 seeds per fat-tree size -> 210 random instances, the ISSUE's
#: >= 200-instance floor for the bit-identity property.
SEEDS_PER_K = 70
KS = (4, 8, 16)
#: Per (k, radius) cell of the wider-radius property (r in {2, 3}).
WIDER_RADIUS_SEEDS = 20


def random_instance(k: int, seed: int) -> PlacementProblem:
    """A randomized fat-tree placement instance, fully seeded."""
    rng = np.random.default_rng(seed * 1009 + k)
    topo = build_fat_tree(k)
    LinkUtilizationModel(0.05, 0.95, seed=int(rng.integers(2**31))).apply(topo)
    policy = ThresholdPolicy(
        c_max=float(rng.uniform(60.0, 90.0)),
        co_max=float(rng.uniform(20.0, 55.0)),
        x_min=10.0,
    )
    caps = CapacityModel(x_min=10.0, seed=int(rng.integers(2**31))).sample(
        topo.num_nodes
    )
    roles = classify_network(caps, policy)
    busy, candidates = tuple(roles.busy), tuple(roles.candidates)
    return PlacementProblem(
        topology=topo,
        busy=busy,
        candidates=candidates,
        cs=np.array([policy.excess_load(caps[b]) for b in busy]),
        cd=np.array([policy.spare_capacity(caps[c]) for c in candidates]),
        data_mb=np.full(len(busy), float(rng.uniform(1.0, 50.0))),
    )


def assert_reports_identical(kernel, reference, problem=None):
    """Bit-for-bit equality of every externally visible report field.

    With ``problem`` (the wider-radius cases) a route need not be the
    oracle's tie witness: it must be a simple busy→candidate path
    within the radius whose Eq.-1 cost is the assignment's
    ``response_time_s`` — the price-consistency rule the pricing suite
    applies to dp paths.
    """
    # Dict contents AND insertion order (callers iterate these).
    assert list(kernel.offloaded_per_busy.items()) == list(
        reference.offloaded_per_busy.items()
    )
    assert list(kernel.failed_per_busy.items()) == list(
        reference.failed_per_busy.items()
    )
    assert kernel.hfr_pct == reference.hfr_pct
    assert kernel.hop_radius == reference.hop_radius
    assert len(kernel.assignments) == len(reference.assignments)
    if problem is not None:
        weights = ResponseTimeModel(engine=PathEngine.DP).edge_weights(problem.topology)
    for got, want in zip(kernel.assignments, reference.assignments):
        assert got.busy == want.busy
        assert got.candidate == want.candidate
        assert got.amount_pct == want.amount_pct  # exact, not approx
        assert got.response_time_s == want.response_time_s
        assert got.hops == want.hops
        assert got.route is not None and want.route is not None
        if problem is None:
            assert got.route.nodes == want.route.nodes
            assert got.route.edges == want.route.edges
        else:
            assert_route_prices(got, problem, weights, kernel.hop_radius)


def assert_route_prices(assignment, problem, weights, hop_radius):
    route = assignment.route
    assert route.nodes[0] == assignment.busy
    assert route.nodes[-1] == assignment.candidate
    assert len(set(route.nodes)) == len(route.nodes)
    assert len(route.edges) == assignment.hops <= hop_radius
    for (u, v), edge in zip(zip(route.nodes, route.nodes[1:]), route.edges):
        assert {u, v} == set(problem.topology.edges[edge])
    data_mb = problem.data_mb[problem.busy.index(assignment.busy)]
    # Same left fold the DP accumulates, then Eq. 2's scaling.
    assert data_mb * sum(weights[e] for e in route.edges) == assignment.response_time_s


class TestBitIdentityProperty:
    @pytest.mark.parametrize("k", KS)
    def test_kernel_matches_reference_on_random_instances(self, k):
        for seed in range(SEEDS_PER_K):
            problem = random_instance(k, seed)
            assert_reports_identical(
                solve_heuristic(problem), solve_heuristic_reference(problem)
            )

    @pytest.mark.parametrize("k", (4, 8))
    @pytest.mark.parametrize("hop_radius", (2, 3))
    def test_wider_radius_matches_oracle_on_random_instances(self, k, hop_radius):
        for seed in range(WIDER_RADIUS_SEEDS):
            problem = random_instance(k, seed)
            assert_reports_identical(
                solve_heuristic(problem, hop_radius=hop_radius),
                solve_heuristic_reference(problem, hop_radius=hop_radius),
                problem,
            )

    def test_hfr_never_nan_on_random_instances(self):
        for k in KS:
            for seed in range(0, SEEDS_PER_K, 7):
                report = solve_heuristic(random_instance(k, seed))
                assert np.isfinite(report.hfr_pct)
                assert 0.0 <= report.hfr_pct <= 100.0


def star_problem(**overrides):
    """Hub (busy) with two leaf candidates; keyword overrides."""
    topo = build_star(2)
    for link in topo.links:
        link.utilization = 0.5
    spec = dict(
        topology=topo,
        busy=(0,),
        candidates=(1, 2),
        cs=np.array([10.0]),
        cd=np.array([6.0, 20.0]),
        data_mb=np.array([5.0]),
    )
    spec.update(overrides)
    return PlacementProblem(**spec)


class TestDegenerateShapes:
    """The edge shapes the random sweep can miss, both solvers — at
    radius 1 (whose report each test inspects) and at radii 2 and 3."""

    def both(self, problem):
        for hop_radius in (2, 3):
            assert_reports_identical(
                solve_heuristic(problem, hop_radius=hop_radius),
                solve_heuristic_reference(problem, hop_radius=hop_radius),
                problem,
            )
        kernel = solve_heuristic(problem)
        assert_reports_identical(kernel, solve_heuristic_reference(problem))
        return kernel

    def test_no_busy_nodes(self):
        report = self.both(
            star_problem(busy=(), cs=np.array([]), data_mb=np.array([]))
        )
        assert report.assignments == ()
        assert report.hfr_pct == 0.0

    def test_no_candidates(self):
        report = self.both(star_problem(candidates=(), cd=np.array([])))
        assert report.assignments == ()
        assert report.failed_per_busy[0] == 10.0
        assert report.hfr_pct == 100.0

    def test_zero_capacity_candidates(self):
        report = self.both(star_problem(cd=np.array([0.0, 0.0])))
        assert report.assignments == ()
        assert report.hfr_pct == 100.0

    def test_zero_need_busy_node(self):
        report = self.both(star_problem(cs=np.array([0.0])))
        assert report.assignments == ()
        assert report.offloaded_per_busy == {0: 0.0}
        assert report.failed_per_busy == {0: 0.0}
        assert report.hfr_pct == 0.0

    def test_single_busy_single_candidate(self):
        topo = build_line(2)
        for link in topo.links:
            link.utilization = 0.2
        report = self.both(
            PlacementProblem(
                topology=topo,
                busy=(0,),
                candidates=(1,),
                cs=np.array([7.0]),
                cd=np.array([9.0]),
                data_mb=np.array([2.0]),
            )
        )
        assert len(report.assignments) == 1
        assert report.assignments[0].amount_pct == 7.0
        assert report.fully_offloaded

    def test_busy_node_with_no_adjacent_candidate(self):
        # Line 0-1-2: node 0 busy, node 2 the only candidate, 2 hops away.
        topo = build_line(3)
        for link in topo.links:
            link.utilization = 0.2
        report = self.both(
            PlacementProblem(
                topology=topo,
                busy=(0,),
                candidates=(2,),
                cs=np.array([5.0]),
                cd=np.array([50.0]),
                data_mb=np.array([1.0]),
            )
        )
        assert report.assignments == ()
        assert report.hfr_pct == 100.0


class TestResidualSharing:
    """Regression for the hoisted residual array: capacity consumed by
    one busy node must stay consumed for every later busy node, in both
    the kernel and the reference loop."""

    def shared_candidate_problem(self):
        # Star hub as the lone candidate, two leaves busy: both leaves
        # compete for the hub's single pool.
        topo = build_star(2)
        for link in topo.links:
            link.utilization = 0.5
        return PlacementProblem(
            topology=topo,
            busy=(1, 2),
            candidates=(0,),
            cs=np.array([8.0, 8.0]),
            cd=np.array([10.0]),
            data_mb=np.array([5.0, 5.0]),
        )

    @pytest.mark.parametrize(
        "solver", [solve_heuristic, solve_heuristic_reference]
    )
    def test_residual_capacity_shared_across_busy_nodes(self, solver):
        report = solver(self.shared_candidate_problem())
        # Node 1 (first in busy order) drains 8 of the 10 points; node 2
        # only sees the 2 left over — not a fresh pool.
        assert report.offloaded_per_busy[1] == 8.0
        assert report.offloaded_per_busy[2] == 2.0
        assert report.failed_per_busy[2] == 6.0
        assert report.hfr_pct == pytest.approx(100.0 * 6.0 / 16.0)


class TestKernelDispatch:
    def test_rejects_nonpositive_radius(self):
        with pytest.raises(PlacementError):
            solve_heuristic(star_problem(), hop_radius=0)

    def test_radius_one_observes_batch_size(self):
        before = _histogram_count("heuristic.kernel.batch_size")
        solve_heuristic(star_problem())
        assert _histogram_count("heuristic.kernel.batch_size") == before + 1

    def test_only_wider_radius_prices_through_the_engine(self):
        engine = TrminEngine()
        for hop_radius, priced in ((1, 0), (2, 1)):
            computes = engine.stats.full_computes
            observed = _histogram_count("heuristic.kernel.batch_size")
            solve_heuristic(
                star_problem(), hop_radius=hop_radius, trmin_engine=engine
            )
            assert engine.stats.full_computes == computes + priced
            assert _histogram_count("heuristic.kernel.batch_size") == observed + 1


def _histogram_count(name: str) -> float:
    metric = get_registry().snapshot()["metrics"].get(name)
    return metric["count"] if metric else 0.0
