"""Tests for Algorithm 1 and the evaluation metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    PlacementEngine,
    PlacementProblem,
    SuccessCategory,
    ThresholdPolicy,
    categorize_iteration,
    classify_network,
    fit_power_law,
    hfr_pct,
    infeasible_rate_pct,
    mean_hops,
    solve_heuristic,
    summarize_categories,
)
from repro.errors import PlacementError
from repro.lp import SolveStatus
from repro.topology import (
    CapacityModel,
    Link,
    LinkUtilizationModel,
    Topology,
    build_fat_tree,
)
from tests.topologies import build_line, build_star


def star_problem(cs=10.0, neighbor_cd=(6.0, 20.0)):
    """Hub (busy) with two leaf candidates at one hop."""
    topo = build_star(2)
    for link in topo.links:
        link.utilization = 0.5
    return PlacementProblem(
        topology=topo,
        busy=(0,),
        candidates=(1, 2),
        cs=np.array([cs]),
        cd=np.asarray(neighbor_cd, dtype=float),
        data_mb=np.array([5.0]),
    )


class TestAlgorithmOne:
    def test_full_offload_when_one_hop_capacity_suffices(self):
        report = solve_heuristic(star_problem())
        assert report.fully_offloaded
        assert report.hfr_pct == 0.0
        assert report.total_offloaded == pytest.approx(10.0)
        assert all(a.hops == 1 for a in report.assignments)

    def test_partial_failure_measured_by_hfr(self):
        report = solve_heuristic(star_problem(cs=30.0))
        # One-hop capacity is 26: Cse = 4 => HFR = 4/30.
        assert report.total_offloaded == pytest.approx(26.0)
        assert report.hfr_pct == pytest.approx(100.0 * 4.0 / 30.0)
        assert not report.fully_offloaded

    def test_zero_offload_when_candidates_beyond_one_hop(self):
        """Line 0-1-2 with busy 0 and candidate only at node 2."""
        topo = build_line(3)
        for link in topo.links:
            link.utilization = 0.5
        problem = PlacementProblem(
            topo, (0,), (2,), np.array([5.0]), np.array([10.0]), np.array([1.0])
        )
        report = solve_heuristic(problem)
        assert report.nothing_offloaded
        assert report.hfr_pct == 100.0

    def test_hop_radius_generalization_reaches_further(self):
        topo = build_line(3)
        for link in topo.links:
            link.utilization = 0.5
        problem = PlacementProblem(
            topo, (0,), (2,), np.array([5.0]), np.array([10.0]), np.array([1.0])
        )
        report = solve_heuristic(problem, hop_radius=2)
        assert report.fully_offloaded
        assert report.assignments[0].hops == 2

    def test_shared_pool_consumed_in_node_order(self):
        """Two busy nodes share one candidate: first (lower id) wins."""
        topo = Topology()
        b1, cand, b2 = topo.add_node(), topo.add_node(), topo.add_node()
        topo.add_edge(b1, cand, Link(utilization=0.5))
        topo.add_edge(b2, cand, Link(utilization=0.5))
        problem = PlacementProblem(
            topo, (b1, b2), (cand,),
            cs=np.array([8.0, 8.0]), cd=np.array([10.0]),
            data_mb=np.array([1.0, 1.0]),
        )
        report = solve_heuristic(problem)
        assert report.offloaded_per_busy[b1] == pytest.approx(8.0)
        assert report.offloaded_per_busy[b2] == pytest.approx(2.0)
        assert report.failed_per_busy[b2] == pytest.approx(6.0)

    def test_cheapest_lane_filled_first(self):
        """Lower-resistance (less utilized) link is preferred."""
        topo = build_star(2)
        topo.links[0].utilization = 0.9  # to candidate 1: slow
        topo.links[1].utilization = 0.1  # to candidate 2: fast
        problem = PlacementProblem(
            topo, (0,), (1, 2), np.array([5.0]), np.array([20.0, 20.0]),
            np.array([5.0]),
        )
        report = solve_heuristic(problem)
        assert len(report.assignments) == 1
        assert report.assignments[0].candidate == 2

    def test_busy_with_zero_excess_skipped(self):
        problem = star_problem(cs=0.0)
        report = solve_heuristic(problem)
        assert report.assignments == ()
        assert report.hfr_pct == 0.0

    def test_invalid_radius(self):
        with pytest.raises(PlacementError):
            solve_heuristic(star_problem(), hop_radius=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2000))
    def test_property_heuristic_never_beats_ilp_and_respects_cd(self, seed):
        """Invariants: (a) heuristic offload <= ILP offload (optimum
        places everything whenever feasible); (b) per-candidate inflow
        <= Cd_j; (c) offloaded + failed == required per busy node."""
        topo = build_fat_tree(4)
        LinkUtilizationModel(0.1, 0.9, seed=seed).apply(topo)
        policy = ThresholdPolicy(c_max=75.0, co_max=45.0, x_min=10.0)
        caps = CapacityModel(x_min=10.0, seed=seed + 1).sample(topo.num_nodes)
        roles = classify_network(caps, policy)
        if not roles.busy or not roles.candidates:
            return
        problem = PlacementProblem(
            topology=topo,
            busy=tuple(roles.busy),
            candidates=tuple(roles.candidates),
            cs=np.array([policy.excess_load(caps[b]) for b in roles.busy]),
            cd=np.array([policy.spare_capacity(caps[c]) for c in roles.candidates]),
            data_mb=np.full(len(roles.busy), 10.0),
        )
        heuristic = solve_heuristic(problem)
        # (c) bookkeeping identity.
        for i, b in enumerate(problem.busy):
            assert (
                heuristic.offloaded_per_busy[b] + heuristic.failed_per_busy[b]
                == pytest.approx(float(problem.cs[i]))
            )
        # (b) candidate capacity.
        inflow = {}
        for a in heuristic.assignments:
            inflow[a.candidate] = inflow.get(a.candidate, 0.0) + a.amount_pct
        for j, c in enumerate(problem.candidates):
            assert inflow.get(c, 0.0) <= problem.cd[j] + 1e-9
        # (a) optimum dominance.
        ilp = PlacementEngine(with_routes=False).solve(problem)
        if ilp.feasible:
            assert heuristic.total_offloaded <= ilp.total_offloaded + 1e-9


class TestHfrEdgeCases:
    """Eq. 4 at its degenerate corners: defined, bounded, NaN-free."""

    def test_no_busy_nodes_reports_zero(self):
        # Nothing required -> HFR is 0 by definition, not 0/0.
        assert hfr_pct([], []) == 0.0
        topo = build_star(2)
        for link in topo.links:
            link.utilization = 0.5
        report = solve_heuristic(
            PlacementProblem(
                topology=topo,
                busy=(),
                candidates=(1, 2),
                cs=np.array([]),
                cd=np.array([6.0, 20.0]),
                data_mb=np.array([]),
            )
        )
        assert report.hfr_pct == 0.0
        assert np.isfinite(report.hfr_pct)

    def test_zero_total_capacity_reports_exactly_100(self):
        # Every percent of required load fails -> HFR is exactly 100.
        assert hfr_pct([4.0, 4.0], [4.0, 4.0]) == 100.0
        report = solve_heuristic(star_problem(neighbor_cd=(0.0, 0.0)))
        assert report.hfr_pct == 100.0
        assert report.total_offloaded == 0.0

    def test_hfr_is_nan_free_on_zero_denominators(self):
        # All-zero required (busy nodes present but nothing to move)
        # must short-circuit before the division.
        assert hfr_pct([0.0, 0.0], [0.0, 0.0]) == 0.0
        report = solve_heuristic(star_problem(cs=0.0))
        for value in (
            report.hfr_pct,
            report.total_offloaded,
            report.total_failed,
            report.total_required,
        ):
            assert np.isfinite(value)
        assert report.hfr_pct == 0.0


class TestMetrics:
    def test_hfr_pct(self):
        assert hfr_pct([2.0, 0.0], [4.0, 4.0]) == pytest.approx(25.0)
        assert hfr_pct([], []) == 0.0
        assert hfr_pct([0.0], [0.0]) == 0.0

    def test_infeasible_rate(self):
        statuses = [SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL]
        assert infeasible_rate_pct(statuses) == pytest.approx(100.0 / 3.0)
        assert infeasible_rate_pct([]) == 0.0

    def test_categorize_full(self):
        heuristic = solve_heuristic(star_problem())
        ilp = PlacementEngine().solve(star_problem())
        assert categorize_iteration(heuristic, ilp) is SuccessCategory.HEURISTIC_FULL

    def test_categorize_partial_and_zero(self):
        # Partial: heuristic places some, not all.
        problem = star_problem(cs=30.0)
        heuristic = solve_heuristic(problem)
        ilp = PlacementEngine().solve(problem)  # infeasible here (26 < 30)
        assert categorize_iteration(heuristic, ilp) is SuccessCategory.BOTH_INFEASIBLE

        topo = build_line(3)
        for link in topo.links:
            link.utilization = 0.5
        p2 = PlacementProblem(
            topo, (0,), (2,), np.array([5.0]), np.array([10.0]), np.array([1.0])
        )
        h2 = solve_heuristic(p2)
        ilp2 = PlacementEngine().solve(p2)
        assert categorize_iteration(h2, ilp2) is SuccessCategory.HEURISTIC_ZERO

    def test_summary_percentages(self):
        cats = [SuccessCategory.HEURISTIC_FULL] * 2 + [SuccessCategory.PARTIAL] * 6 + [
            SuccessCategory.HEURISTIC_ZERO
        ] * 2 + [SuccessCategory.NO_OVERLOAD] * 5
        summary = summarize_categories(cats)
        assert summary.total_considered == 10
        assert summary.pct(SuccessCategory.HEURISTIC_FULL) == pytest.approx(20.0)
        assert summary.pct(SuccessCategory.PARTIAL) == pytest.approx(60.0)

    def test_mean_hops_weighted(self):
        problem = simple = star_problem()
        report = PlacementEngine().solve(simple)
        assert mean_hops(report) == pytest.approx(1.0)

    def test_mean_hops_empty_nan(self):
        topo = build_line(2)
        problem = PlacementProblem(
            topo, (), (1,), np.zeros(0), np.array([5.0]), np.zeros(0)
        )
        report = PlacementEngine().solve(problem)
        assert np.isnan(mean_hops(report))

    def test_fit_power_law_recovers_exponent(self):
        x = np.array([10.0, 100.0, 1000.0])
        y = 5.0 * x ** -0.5
        assert fit_power_law(x, y) == pytest.approx(-0.5)

    def test_fit_power_law_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [1.0])
        with pytest.raises(ValueError):
            fit_power_law([1.0, -2.0], [1.0, 1.0])
