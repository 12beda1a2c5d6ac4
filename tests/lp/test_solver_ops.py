"""Operation-count guard on the Vogel start.

``_vogel_basis`` sorts every row and every column once and then keeps
each line's regret behind forward-only pointers, so crossing out a row
re-ranks nothing. This deterministic, timing-free check routes
``repro.lp.transportation``'s ``np`` through a counting proxy and runs
one start on seeded ``fig11_sweep_k8``-shaped instances — 18-20 busy
rows x 21-23 candidates plus the dummy row, where the start crosses out
most busy rows — and asserts that it makes no ``np.partition`` call and
exactly two ``np.argsort`` calls (one per axis), however many rows it
crosses out, while still picking the oracle's cells.
"""

import numpy as np
import pytest

from repro.lp import transportation
from tests.lp.test_vogel import _fig11_instance
from tests.oracles import vogel_basis


class CountingNumpy:
    """Stands in for the ``numpy`` module and counts calls by name."""

    def __init__(self):
        self.calls = {}

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            return attr(*args, **kwargs)

        return counted


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vogel_sorts_each_axis_once(seed, monkeypatch):
    supply, demand, cost = _fig11_instance(np.random.default_rng(29_000 + seed))
    counting = CountingNumpy()
    monkeypatch.setattr(transportation, "np", counting)
    start = transportation._vogel_basis(supply, demand, cost)
    monkeypatch.undo()

    assert counting.calls.get("partition", 0) == 0
    assert counting.calls.get("argsort", 0) == 2
    assert list(start) == vogel_basis(supply, demand, cost)[1]
