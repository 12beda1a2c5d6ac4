"""Warm-start equivalence suite for the dense simplex and branch-and-bound.

The contract under test: a warm start never changes *what* is computed
— cold solves, warm re-solves from a previous basis and scipy/HiGHS
must agree on status and objective to 1e-6 — it only changes how many
pivots the solve spends getting there. (The transportation solver takes
no warm start: every Eq.-3 solve is a pure function of its instance.)
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import (
    LinearProgram,
    SimplexBasis,
    SolveStatus,
    lp_sum,
    solve_branch_and_bound,
    solve_scipy,
    solve_simplex,
)


def simplex_fixture(rhs_scale=1.0):
    """A small LP whose RHS can be perturbed without changing structure."""
    lp = LinearProgram("warm-fixture")
    x = lp.add_variable("x")
    y = lp.add_variable("y")
    z = lp.add_variable("z")
    lp.add_constraint(x + y + z == 10.0 * rhs_scale, name="mass")
    lp.add_constraint(2.0 * x + y <= 12.0 * rhs_scale, name="cap_a")
    lp.add_constraint(y + 3.0 * z <= 15.0 * rhs_scale, name="cap_b")
    lp.set_objective(3.0 * x + 1.0 * y + 2.0 * z)
    return lp


class TestSimplexWarmStart:
    def test_warm_resolve_after_rhs_perturbation(self):
        cold = solve_simplex(simplex_fixture())
        assert cold.status is SolveStatus.OPTIMAL
        assert isinstance(cold.basis, SimplexBasis)

        perturbed = simplex_fixture(rhs_scale=0.9)
        warm = solve_simplex(perturbed, warm_start=cold.basis)
        reference = solve_scipy(perturbed)
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.warm_started
        assert warm.objective == pytest.approx(reference.objective, abs=1e-6)

        cold_perturbed = solve_simplex(perturbed)
        assert cold_perturbed.objective == pytest.approx(
            reference.objective, abs=1e-6
        )
        assert warm.iterations <= cold_perturbed.iterations

    def test_bare_name_hint_still_accepted(self):
        cold = solve_simplex(simplex_fixture())
        warm = solve_simplex(simplex_fixture(), warm_start=cold.basis.names)
        assert warm.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_rhs_perturbations_keep_the_optimum(self, seed):
        rng = np.random.default_rng(seed)
        cold = solve_simplex(simplex_fixture())
        scale = float(rng.uniform(0.5, 1.5))
        perturbed = simplex_fixture(rhs_scale=scale)
        warm = solve_simplex(perturbed, warm_start=cold.basis)
        reference = solve_scipy(perturbed)
        assert warm.status == reference.status
        if reference.status is SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(reference.objective, abs=1e-6)


def heterogeneous_ilp(seed, m=3, n=4):
    """Placement-shaped ILP; non-unit coefficients break unimodularity."""
    rng = np.random.default_rng(seed)
    cost = rng.uniform(1.0, 10.0, (m, n))
    coeff = rng.uniform(0.6, 1.7, (m, n))
    supply = rng.integers(2, 6, m).astype(float)
    cap = np.full(n, supply.sum() * coeff.mean() * 1.25 / n)
    lp = LinearProgram(f"warm-ilp-{seed}")
    x = {
        (i, j): lp.add_variable(f"x_{i}_{j}", is_integer=True)
        for i in range(m)
        for j in range(n)
    }
    for i in range(m):
        lp.add_constraint(
            lp_sum(x[(i, j)] for j in range(n)) == float(supply[i]),
            name=f"supply_{i}",
        )
    for j in range(n):
        lp.add_constraint(
            lp_sum(float(coeff[i, j]) * x[(i, j)] for i in range(m))
            <= float(cap[j]),
            name=f"capacity_{j}",
        )
    lp.set_objective(lp_sum(float(cost[i, j]) * x[(i, j)] for (i, j) in x))
    return lp


class TestBranchAndBoundWarmStart:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_warm_start_never_changes_the_optimum(self, seed):
        lp = heterogeneous_ilp(seed)
        reference = solve_scipy(lp)
        cold = solve_branch_and_bound(lp, warm_start=False)
        warm = solve_branch_and_bound(lp, warm_start=True)
        assert cold.status == reference.status
        assert warm.status == reference.status
        if reference.status is SolveStatus.OPTIMAL:
            assert cold.objective == pytest.approx(reference.objective, abs=1e-6)
            assert warm.objective == pytest.approx(reference.objective, abs=1e-6)

    def test_warm_start_reduces_pivots_in_aggregate(self):
        # Per instance the dual restart can lose (a different starting
        # basis reshapes the whole branching trajectory); the perf claim
        # is aggregate. Also guard that the fixtures don't collapse to
        # integral relaxations (totally unimodular => nothing to do).
        cold_total = warm_total = branched = 0
        for seed in range(6):
            lp = heterogeneous_ilp(seed)
            cold = solve_branch_and_bound(lp, warm_start=False)
            warm = solve_branch_and_bound(lp, warm_start=True)
            cold_total += cold.total_pivots
            warm_total += warm.total_pivots
            if cold.total_pivots > cold.iterations:  # more than the root LP
                branched += 1
        assert branched >= 2
        assert warm_total < cold_total
