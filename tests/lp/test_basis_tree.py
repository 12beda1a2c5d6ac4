"""The in-place basis tree solves exactly as the rebuild-every-pivot one.

``repro.lp.transportation._BasisTree`` re-hangs only the subtree a pivot
cuts off and re-derives only its potentials;
``tests.oracles.basis_tree.RebuildBasisTree`` re-runs the whole BFS and
the whole potential pass on every pivot. Patched in for ``_BasisTree``
in both the centralized solver and the distributed coordinator, the
oracle must leave every solve ``==``: status, pivots, basis, flow and
objective. All corpora are seeded, so the suite is deterministic.
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.roles import classify_network
from repro.core.thresholds import ThresholdPolicy
from repro.core.zoning import DistributedPlacementEngine, partition_by_pod
from repro.errors import SolverError
from repro.experiments.common import IterationSampler
from repro.lp import distributed, solve_transportation, transportation
from repro.lp.transportation import _BasisTree
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree
from tests.lp.test_distributed import _random_zones
from tests.lp.test_vogel import _corpus, _same_result
from tests.oracles.basis_tree import RebuildBasisTree
from tests.oracles.dsolve import solve_distributed


def _patch_oracle(monkeypatch):
    monkeypatch.setattr(transportation, "_BasisTree", RebuildBasisTree)
    monkeypatch.setattr(distributed, "_BasisTree", RebuildBasisTree)


def _same_fields(a, b):
    """Every dataclass field but the wall times, ``==`` (NaN equals NaN)."""
    for field in dataclasses.fields(a):
        if "seconds" in field.name:
            continue
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y), field.name
        elif isinstance(x, float) and math.isnan(x):
            assert math.isnan(y), field.name
        else:
            assert x == y, field.name


class TestWholeSolveTwin:
    @pytest.mark.parametrize("corpus", ["random", "tie"])
    def test_centralized(self, corpus, monkeypatch):
        problems = _corpus(corpus)
        kept = [solve_transportation(p) for p in problems]
        assert sum(r.iterations for r in kept) > 0
        _patch_oracle(monkeypatch)
        for problem, result in zip(problems, kept):
            _same_result(result, solve_transportation(problem))

    @pytest.mark.parametrize("corpus", ["random", "tie"])
    def test_distributed(self, corpus, monkeypatch):
        problems = _corpus(corpus)
        rng = np.random.default_rng(40_000)
        zones = [
            _random_zones(rng, p.num_sources, p.num_destinations, max_zones=3)
            for p in problems
        ]
        kept = [solve_distributed(p, *z) for p, z in zip(problems, zones)]
        assert sum(r.pivots for r in kept) > 0
        _patch_oracle(monkeypatch)
        for problem, zone, result in zip(problems, zones, kept):
            _same_fields(result, solve_distributed(problem, *zone))

    @pytest.mark.parametrize("k", [4, 8])
    def test_fat_tree_placement(self, k, monkeypatch):
        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        topology = build_fat_tree(k)
        sampler = IterationSampler(topology, x_min=policy.x_min, seed=40 + k)
        problems = []
        for _, capacities in sampler.states(3):
            roles = classify_network(capacities, policy)
            busy, candidates = roles.busy, roles.candidates
            problems.append(
                PlacementProblem(
                    topology=topology,
                    busy=tuple(busy),
                    candidates=tuple(candidates),
                    cs=np.array([policy.excess_load(capacities[b]) for b in busy]),
                    cd=np.array(
                        [policy.spare_capacity(capacities[c]) for c in candidates]
                    ),
                    data_mb=np.full(len(busy), 10.0),
                    max_hops=4,
                )
            )

        def engines():
            central = PlacementEngine(
                response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=4),
                with_routes=False,
            )
            zoned = DistributedPlacementEngine(
                zones=partition_by_pod(topology), engine=central
            )
            return central, zoned

        kept = [[e.solve(p) for e in engines()] for p in problems]
        assert sum(central.lp_iterations for central, _ in kept) > 0
        _patch_oracle(monkeypatch)
        for problem, reports in zip(problems, kept):
            for engine, report in zip(engines(), reports):
                _same_fields(report, engine.solve(problem))


class TestCellValidation:
    """Cells outside the balanced ``mb x n`` grid are refused up front."""

    @pytest.mark.parametrize(
        "cells",
        [
            [(0, 0), (1, 1), (0, -1)],  # column -1 would wrap to row node 1
            [(0, 0), (1, 1), (0, 5)],
            [(0, 0), (1, 1), (-1, 1)],
            [(0, 0), (1, 1), (2, 0)],
        ],
    )
    def test_out_of_range_cell(self, cells):
        with pytest.raises(SolverError, match="outside"):
            _BasisTree(cells, 2, 2)

    def test_entering_cell_must_close_a_cycle_through_leaving(self):
        # The path row 0 - col 0 - row 1 - col 1 - row 2, hung from row 0.
        tree = _BasisTree([(0, 0), (1, 0), (1, 1), (2, 1)], 3, 2)
        tree.refresh()
        before = (tree.cells(), list(tree.parent), list(tree.depth))
        with pytest.raises(SolverError, match="cycle"):
            tree.replace((2, 1), (0, 1))  # cuts off row 2; both ends above
        with pytest.raises(SolverError, match="cycle"):
            tree.replace((0, 0), (2, 0))  # cuts off col 0; both ends below
        assert (tree.cells(), list(tree.parent), list(tree.depth)) == before
