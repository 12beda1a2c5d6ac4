"""Ablation: faithful path enumeration vs hop-constrained DP.

DESIGN.md ablation 1. Both engines compute identical ``Trmin``
matrices (property-tested in the suite); the bench quantifies the cost
of faithfulness — the enumeration engine is the paper's ``~k^6`` term,
the DP is polynomial. (What the frontier-expansion kernel buys over
the old per-path Python DFS is ``bench_enum_kernel.py``'s job.)
"""

import numpy as np
import pytest

from repro.routing import PathEngine, ResponseTimeModel
from repro.topology import LinkUtilizationModel, NodeKind, build_fat_tree


@pytest.fixture(scope="module")
def fabric():
    topo = build_fat_tree(8)
    LinkUtilizationModel(0.2, 0.8, seed=0).apply(topo)
    edges = topo.nodes_of_kind(NodeKind.EDGE_SWITCH)
    sources = edges[:4]
    destinations = edges[-8:]
    return topo, sources, destinations


@pytest.mark.parametrize(
    "engine", [PathEngine.ENUMERATION, PathEngine.DP], ids=["enum-kernel", "dp"]
)
def test_ablation_trmin_engine(benchmark, fabric, engine):
    topo, sources, destinations = fabric
    model = ResponseTimeModel(engine=engine, max_hops=5)
    R, _, _ = benchmark(lambda: model.resistance_matrix(topo, sources, destinations))
    assert np.isfinite(R).all()
