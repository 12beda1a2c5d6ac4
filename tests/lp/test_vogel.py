"""The Vogel start keeps its regrets and still picks the oracle's cells.

``repro.lp.transportation._vogel_basis`` updates each line's regret only
when a line crossing it is crossed out; ``tests.oracles.vogel_basis``
re-partitions the whole cost matrix on every step. The bar is ``==``:
the same cells in the same order and an ``array_equal`` flow, so every
later MODI pivot, every zone presolve and every placement is the same
too. All corpora are seeded, so the suite is deterministic.
"""

import math

import numpy as np
import pytest

from repro.lp import solve_transportation, transportation
from tests.lp.test_distributed import _random_problem, _random_zones, _tie_problem
from tests.oracles import vogel_basis, vogel_start
from tests.oracles.dsolve import solve_distributed

#: A forbidden lane as the solver prices it: a large finite cost.
BIG_M = 4.0e7


def _assert_same_start(supply, demand, cost):
    start = transportation._vogel_basis(supply, demand, cost)
    ref_flow, ref_cells = vogel_basis(supply, demand, cost)
    assert list(start) == ref_cells
    flow = np.zeros(cost.shape)
    for cell, amount in start.items():
        flow[cell] = amount
    assert np.array_equal(flow, ref_flow)
    assert len(start) == supply.size + demand.size - 1


def _balanced(rng, supply, demand, cost, dummy):
    """Balance the way the solver does: spare capacity goes to a zero-cost
    dummy row; without one, the last row or column takes up the gap."""
    if dummy:
        gap = supply.sum() - demand.sum()
        demand[int(rng.integers(demand.size))] += max(gap, 0.0) + rng.integers(1, 4)
        supply = np.append(supply, demand.sum() - supply.sum())
        cost = np.vstack([cost, np.zeros(demand.size)])
    else:
        gap = demand.sum() - supply.sum()
        if gap >= 0:
            supply[-1] += gap
        else:
            demand[-1] -= gap
    return supply, demand, cost


def _tie_instance(rng, m, n, dummy):
    """Integer costs in {1, 2, 3}, ~15 % big-M lanes, zero supplies and
    demands included."""
    supply = rng.integers(0, 6, m).astype(float)
    demand = rng.integers(0, 6, n).astype(float)
    cost = rng.integers(1, 4, (m, n)).astype(float)
    cost[rng.random((m, n)) < 0.15] = BIG_M
    return _balanced(rng, supply, demand, cost, dummy)


def _churn_instance(rng, m, n):
    """Shaped like an ``lp_churn_k16`` round: a few busy rows with real
    excess loads, a wide candidate set (some with no spare capacity), a
    handful of distinct route costs from fat-tree symmetry, and a zero
    dummy row taking the spare capacity."""
    supply = rng.uniform(1.0, 40.0, m - 1)
    demand = rng.uniform(0.0, 30.0, n)
    demand[rng.random(n) < 0.1] = 0.0
    values = rng.uniform(0.5, 5.0, int(rng.integers(2, 6)))
    cost = rng.choice(values, (m - 1, n))
    return _balanced(rng, supply, demand, cost, dummy=True)


def _fig11_instance(rng):
    """Shaped like a ``fig11_sweep_k8`` LP: 18-20 busy rows with excess
    loads, 21-23 candidates with spare capacity, a few distinct Trmin
    values (fat-tree symmetry makes many routes cost the same), and the
    zero dummy row taking the spare capacity."""
    m, n = int(rng.integers(18, 21)), int(rng.integers(21, 24))
    supply = rng.uniform(1.0, 10.0, m)
    demand = rng.uniform(5.0, 25.0, n)
    values = rng.uniform(1e-3, 5e-3, int(rng.integers(3, 7)))
    cost = rng.choice(values, (m, n))
    return _balanced(rng, supply, demand, cost, dummy=True)


#: Hand-built starts that pin the tie rules of the two regret heaps:
#: (supply, demand, cost) per case.
TIE_CASES = {
    # Row regrets 0, 0; every column's regret is 8: column 0 is taken.
    "columns-tie-at-the-top": (
        [2.0, 2.0], [1.0, 1.0, 1.0, 1.0], [[1.0, 1.0, 9.0, 9.0], [9.0, 9.0, 1.0, 1.0]],
    ),
    # Every row's regret is 8, column regrets 0, 0: row 0 is taken.
    "rows-tie-at-the-top": (
        [1.0, 1.0, 1.0, 1.0], [2.0, 2.0], [[1.0, 9.0], [1.0, 9.0], [9.0, 1.0], [9.0, 1.0]],
    ),
    # Row 0 and column 1 both have regret 3 and different cheapest
    # cells, (0, 0) and (1, 1): the row wins.
    "row-ties-the-top-column": ([1.0, 2.0], [2.0, 1.0], [[1.0, 4.0], [2.0, 1.0]]),
    # Row 2's regret goes 2 -> 1 -> 2 as columns 0 and 3 are crossed
    # out: its first heap entry is stale in between, then current again.
    "regret-returns-to-an-earlier-value": (
        [3.0, 2.0, 6.0],
        [3.0, 3.0, 4.0, 1.0],
        [[5.0, 1.0, 4.0, 1.0], [6.0, 4.0, 5.0, 8.0], [1.0, 6.0, 4.0, 3.0]],
    ),
    # Rows 0 and 1 are crossed out first; with one row left every
    # active column is forced (+inf regret).
    "forced-columns": (
        [1.0, 1.0, 4.0], [2.0, 2.0, 2.0], [[1.0, 9.0, 9.0], [9.0, 1.0, 9.0], [5.0, 5.0, 5.0]],
    ),
    # Columns 0 and 1 are crossed out first; with one column left every
    # active row is forced.
    "forced-rows": (
        [2.0, 2.0, 2.0], [1.0, 1.0, 4.0], [[1.0, 9.0, 5.0], [9.0, 1.0, 5.0], [9.0, 9.0, 5.0]],
    ),
}


class TestSameStart:
    @pytest.mark.parametrize("case", sorted(TIE_CASES))
    def test_tie_rules(self, case):
        _assert_same_start(*(np.array(x) for x in TIE_CASES[case]))

    def test_fig11_shaped(self):
        rng = np.random.default_rng(28_500)
        for _ in range(40):
            _assert_same_start(*_fig11_instance(rng))

    @pytest.mark.parametrize("dummy", [True, False])
    def test_tie_corpus(self, dummy):
        rng = np.random.default_rng(28_000 + dummy)
        for _ in range(300):
            m, n = int(rng.integers(1, 10)), int(rng.integers(1, 12))
            _assert_same_start(*_tie_instance(rng, m, n, dummy))

    def test_one_by_one(self):
        for s, d in [(0.0, 0.0), (3.0, 3.0), (2.5, 2.5)]:
            _assert_same_start(np.array([s]), np.array([d]), np.array([[7.0]]))

    @pytest.mark.parametrize("shape", ["row", "column"])
    def test_single_row_or_column(self, shape):
        # One row: column regrets are the costs themselves; one column:
        # row regrets are.
        rng = np.random.default_rng(28_100 + (shape == "row"))
        for _ in range(100):
            k = int(rng.integers(1, 30))
            m, n = (1, k) if shape == "row" else (k, 1)
            supply = rng.integers(0, 6, m).astype(float)
            demand = rng.integers(0, 6, n).astype(float)
            cost = rng.integers(1, 4, (m, n)).astype(float)
            cost[rng.random((m, n)) < 0.15] = BIG_M
            _assert_same_start(*_balanced(rng, supply, demand, cost, dummy=False))

    def test_exactly_balanced_real_values(self):
        rng = np.random.default_rng(28_200)
        for _ in range(200):
            m, n = int(rng.integers(1, 15)), int(rng.integers(1, 18))
            supply = rng.uniform(0.0, 12.0, m)
            demand = rng.uniform(0.0, 12.0, n)
            demand *= supply.sum() / demand.sum()
            cost = rng.uniform(0.1, 60.0, (m, n))
            _assert_same_start(supply, demand, cost)

    def test_wide_churn_shaped(self):
        rng = np.random.default_rng(28_300)
        for _ in range(12):
            m, n = int(rng.integers(2, 7)), int(rng.integers(200, 401))
            _assert_same_start(*_churn_instance(rng, m, n))


def _same_result(a, b):
    assert a.status == b.status
    assert a.iterations == b.iterations
    assert a.basis == b.basis
    assert np.array_equal(a.flow, b.flow)
    assert a.objective == b.objective or (
        math.isnan(a.objective) and math.isnan(b.objective)
    )


def _corpus(name):
    if name == "random":
        return [_random_problem(np.random.default_rng(seed)) for seed in range(60)]
    return [_tie_problem(np.random.default_rng(10_000 + seed)) for seed in range(50)]


class TestWholeSolveTwin:
    """With the oracle patched in as the start, every solve is unchanged."""

    @pytest.mark.parametrize("corpus", ["random", "tie"])
    def test_centralized(self, corpus, monkeypatch):
        problems = _corpus(corpus)
        kept = [solve_transportation(p) for p in problems]
        monkeypatch.setattr(transportation, "_vogel_basis", vogel_start)
        for problem, result in zip(problems, kept):
            _same_result(result, solve_transportation(problem))

    @pytest.mark.parametrize("corpus", ["random", "tie"])
    def test_distributed(self, corpus, monkeypatch):
        problems = _corpus(corpus)
        rng = np.random.default_rng(28_400)
        zones = [
            _random_zones(rng, p.num_sources, p.num_destinations, max_zones=3)
            for p in problems
        ]
        kept = [solve_distributed(p, *z) for p, z in zip(problems, zones)]
        monkeypatch.setattr(transportation, "_vogel_basis", vogel_start)
        for problem, zone, result in zip(problems, zones, kept):
            twin = solve_distributed(problem, *zone)
            assert twin.status == result.status
            assert twin.pivots == result.pivots
            assert np.array_equal(twin.flow, result.flow)
            assert twin.objective == result.objective or (
                math.isnan(twin.objective) and math.isnan(result.objective)
            )

