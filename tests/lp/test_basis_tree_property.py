"""Random pivots keep the in-place basis tree equal to a fresh one.

From a random balanced instance's Vogel tree, apply a run of pivots on
random non-basic cells. After every pivot ``parent`` / ``depth`` /
``pcell`` must equal a from-scratch rooted BFS of the same cells (kept
in their slots), and :meth:`potentials` must be ``==`` to the
rebuild-every-pivot oracle's, pivoted alongside. A second in-place tree
is priced only now and then, so one :meth:`potentials` call catches up
on several pivots.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp.transportation import _BasisTree, _vogel_basis
from tests.oracles.basis_tree import RebuildBasisTree


def _balanced_instance(rng, m, n, ties):
    """A balanced ``m x n`` instance; ``ties`` draws integer data (zero
    supplies and demands included) so pivots are often degenerate."""
    if ties:
        supply = rng.integers(0, 6, m).astype(float)
        demand = rng.integers(0, 6, n).astype(float)
        cost = rng.integers(1, 4, (m, n)).astype(float)
    else:
        supply = rng.uniform(0.0, 12.0, m)
        demand = rng.uniform(0.0, 12.0, n)
        cost = rng.uniform(0.1, 60.0, (m, n))
    gap = demand.sum() - supply.sum()
    if gap >= 0:
        supply[-1] += gap
    else:
        demand[-1] -= gap
    return supply, demand, cost


def _slot_cells(tree):
    return [cell for cell, _ in sorted(tree.slot.items(), key=lambda item: item[1])]


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 8),
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    ties=st.booleans(),
    picks=st.lists(st.tuples(st.integers(0, 10_000), st.booleans()), max_size=25),
)
def test_pivots_match_a_fresh_tree(m, n, seed, ties, picks):
    supply, demand, cost = _balanced_instance(np.random.default_rng(seed), m, n, ties)
    start = _vogel_basis(supply, demand, cost)
    cells = list(start)
    flow = np.zeros((m, n))
    for cell, amount in start.items():
        flow[cell] = amount
    tree = _BasisTree(cells, m, n)
    lazy = _BasisTree(cells, m, n)
    oracle = RebuildBasisTree(cells, m, n)
    for t in (tree, lazy, oracle):
        t.refresh()
    flows = [flow, flow.copy(), flow.copy()]

    def same_potentials(t):
        u, v = t.potentials(cost[t.bi, t.bj])
        ref_u, ref_v = oracle.potentials(cost[oracle.bi, oracle.bj])
        assert (u == ref_u).all() and (v == ref_v).all()

    for pick, price_now in picks:
        free = [(i, j) for i in range(m) for j in range(n) if (i, j) not in tree.slot]
        if not free:
            break
        ei, ej = free[pick % len(free)]
        leaving = {t.pivot(ei, ej, f) for t, f in zip((tree, lazy, oracle), flows)}
        assert len(leaving) == 1
        assert np.array_equal(flows[0], flows[2]) and np.array_equal(flows[1], flows[2])

        fresh = RebuildBasisTree(_slot_cells(tree), m, n)
        fresh.refresh()
        assert tree.cells() == lazy.cells() == oracle.cells()
        for t in (tree, lazy):
            assert t.parent == fresh.parent.tolist()
            assert t.depth == fresh.depth.tolist()
            assert t.pcell == fresh.pcell.tolist()

        same_potentials(tree)
        if price_now:
            same_potentials(lazy)
    same_potentials(lazy)
