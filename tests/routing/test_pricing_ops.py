"""Operation-count guard on route-free enumeration pricing.

A placement engine built ``with_routes=False`` reads only ``(Trmin,
hops)`` from its pricing call, so that call should build no route.
This deterministic, timing-free check prices the shape
``fig11_sweep_k8`` solves — fat-tree(8), 18 busy x 22 candidates, hop
5, seeded link utilization — through the enumeration model and asserts
that

* no :class:`~repro.routing.routes.Path` is constructed,
* the kernel hands back no raw winner route, and
* every assignment's route is ``None``,

while the same solve with routes gives ``==`` assignments whose routes
are the judge's winners.
"""

import dataclasses

import numpy as np

from repro.core.placement import PlacementEngine, PlacementProblem
from repro.routing import PathEngine, ResponseTimeModel, enumkernel
from repro.routing.routes import Path
from repro.topology import LinkUtilizationModel, build_fat_tree
from tests import oracles

MAX_HOPS = 5


def fig11_shape(seed=0):
    topology = build_fat_tree(8)
    LinkUtilizationModel(0.2, 0.8, seed=seed).apply(topology)
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(topology.num_nodes)
    busy, candidates = tuple(nodes[:18].tolist()), tuple(nodes[18:40].tolist())
    problem = PlacementProblem(
        topology=topology,
        busy=busy,
        candidates=candidates,
        cs=rng.uniform(1.0, 10.0, size=len(busy)),
        cd=rng.uniform(5.0, 25.0, size=len(candidates)),
        data_mb=np.full(len(busy), 10.0),
        max_hops=MAX_HOPS,
    )
    return topology, problem


def engine(with_routes):
    return PlacementEngine(
        response_model=ResponseTimeModel(engine=PathEngine.ENUMERATION, max_hops=MAX_HOPS),
        with_routes=with_routes,
    )


def test_route_free_pricing_builds_no_route(monkeypatch):
    topology, problem = fig11_shape()
    built = []
    post_init = Path.__post_init__

    def counted(path):
        built.append(path)
        post_init(path)

    kernel = enumkernel.best_routes_matrix
    raw_routes = []

    def spy(*args, **kwargs):
        R, hops, winners = kernel(*args, **kwargs)
        raw_routes.append(len(winners))
        return R, hops, winners

    monkeypatch.setattr(Path, "__post_init__", counted)
    monkeypatch.setattr(enumkernel, "best_routes_matrix", spy)
    bare = engine(with_routes=False).solve(problem)
    assert bare.status.is_optimal and bare.assignments
    assert built == [] and raw_routes == [0]
    assert all(a.route is None for a in bare.assignments)

    routed = engine(with_routes=True).solve(problem)
    assert built and raw_routes[1] > 0  # the guard sees routes when they are built
    assert [dataclasses.replace(a, route=None) for a in routed.assignments] == list(
        bare.assignments
    )
    weights = ResponseTimeModel().edge_weights(topology)
    for a in routed.assignments:
        _, _, (nodes, edges) = oracles.enum_best_route(
            topology, a.busy, a.candidate, MAX_HOPS, weights
        )
        assert a.route == Path(nodes=nodes, edges=edges)
