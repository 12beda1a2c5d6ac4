"""Operation-count guards on the Eq.-3 solvers.

``_vogel_basis`` sorts every row and every column once and then keeps
each line's regret behind forward-only pointers, so crossing out a row
re-ranks nothing. This deterministic, timing-free check routes
``repro.lp.transportation``'s ``np`` through a counting proxy and runs
one start on seeded ``fig11_sweep_k8``-shaped instances — 18-20 busy
rows x 21-23 candidates plus the dummy row, where the start crosses out
most busy rows — and asserts that it makes no ``np.partition`` call and
exactly two ``np.argsort`` calls (one per axis), however many rows it
crosses out, while still picking the oracle's cells.

The distributed solve starts from the coordinator's artificial basis,
so no zone runs a transportation solve, and only zones that own a busy
row are priced: a pod-zoned fat-tree solve counts both.
"""

import numpy as np
import pytest

from repro.core import DistributedPlacementEngine, PlacementProblem, partition_by_pod
from repro.lp import SolveStatus, TransportationProblem, solve_transportation, transportation
from repro.lp.distributed import DistributedCoordinator, ZoneWorker
from repro.topology import build_fat_tree
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


def _pod_problem(k, busy_per_pod):
    """A fat-tree(k) placement whose busy switches are the first
    ``busy_per_pod[pod]`` switches of each pod; every other pod switch
    is a candidate."""
    topology = build_fat_tree(k)
    members = {}
    for node in topology.nodes:
        if node.pod is not None:
            members.setdefault(node.pod, []).append(node.node_id)
    busy = tuple(b for pod, count in busy_per_pod.items() for b in members[pod][:count])
    candidates = tuple(
        node.node_id for node in topology.nodes
        if node.pod is not None and node.node_id not in busy
    )
    return topology, PlacementProblem(
        topology=topology, busy=busy, candidates=candidates,
        cs=np.array([30.0, 20.0, 25.0][: len(busy)]),
        cd=np.linspace(1.0, 6.0, len(candidates)),
        data_mb=np.full(len(busy), 10.0), max_hops=4,
    )


def test_pod_zoned_solve_presolves_nothing_and_prices_busy_zones(monkeypatch):
    topology, problem = _pod_problem(8, {0: 1, 3: 2})
    zones = partition_by_pod(topology)
    solves, priced = [], []
    impl, price = transportation._solve_transportation_impl, ZoneWorker.price
    monkeypatch.setattr(transportation, "_solve_transportation_impl",
                        lambda p: solves.append(p) or impl(p))
    monkeypatch.setattr(ZoneWorker, "price",
                        lambda self, *a: priced.append(self.zone_id) or price(self, *a))
    report = DistributedPlacementEngine(zones=zones).solve(problem)
    monkeypatch.undo()

    assert report.status is SolveStatus.OPTIMAL and report.rounds >= 2
    assert solves == []
    assert sorted(set(priced)) == [0, 3]  # the two zones that own a busy row
    assert len(priced) == report.rounds * 2
    assert report.dsolve_messages == len(zones) * (2 + 2 * report.rounds)


def _workers(problem, zone_rows, zone_cols):
    return [
        ZoneWorker(z, rows, cols, problem.cost[rows], problem.supply[rows],
                   problem.demand[cols])
        for z, (rows, cols) in enumerate(zip(zone_rows, zone_cols))
    ]


def test_initialize_starts_from_the_artificial_basis():
    problem = TransportationProblem(
        supply=np.array([4.0, 2.0, 3.0]),
        demand=np.array([5.0, 3.0, 4.0, 1.0]),
        cost=np.array([[1.0, 9.0, 4.0, np.inf], [7.0, 2.0, 3.0, 6.0],
                       [5.0, 8.0, 2.5, 1.5]]),
    )
    coordinator = DistributedCoordinator()
    for worker in _workers(problem, [[0, 1], [2]], [[0, 1], [2, 3]]):
        coordinator.register(worker.profile())
    coordinator.initialize()
    m, n, big_m = 3, 4, coordinator.big_m

    cells = [(i, n) for i in range(m)] + [(m, j) for j in range(n)] + [(m, n)]
    assert list(coordinator._tree.slot) == cells
    flows = [4.0, 2.0, 3.0, 5.0, 3.0, 4.0, 1.0, 0.0]  # s_i, d_j, then the corner
    assert list(coordinator._flow.items()) == list(zip(cells, flows))
    slot_cost = np.r_[np.full(m, big_m), np.zeros(n + 1)]
    assert coordinator._slot_cost.tolist() == slot_cost.tolist()

    tree = transportation._BasisTree(cells, m + 1, n + 1)
    tree.refresh()
    u, v = tree.potentials(slot_cost)
    u, v = u - u[m], v + u[m]
    assert coordinator._u.tolist() == u.tolist() == [big_m] * m + [0.0]
    assert coordinator._v.tolist() == v.tolist() == [0.0] * (n + 1)


def test_row_zero_with_a_zone_cell_solves_like_the_centralized_lp():
    """Row 0 owns a lane inside its own zone, so the zone's cheap lane
    and the artificial column's supply both meet at row 0."""
    problem = TransportationProblem(
        supply=np.array([2.0, 3.0]),
        demand=np.array([4.0, 4.0]),
        cost=np.array([[1.0, 5.0], [6.0, 2.0]]),
    )
    coordinator = DistributedCoordinator()
    workers = _workers(problem, [[0], [1]], [[0], [1]])
    for worker in workers:
        coordinator.register(worker.profile())
    coordinator.initialize()
    while not coordinator.converged:
        u, v = coordinator.duals()
        coordinator.step([bid for w in workers
                          for bid in w.price(u[list(w.rows)], v, coordinator.big_m,
                                             coordinator.cost_scale)])
    status, flow, objective = coordinator.result()
    central = solve_transportation(problem)
    assert status == central.status is SolveStatus.OPTIMAL
    assert objective == central.objective == 2.0 * 1.0 + 3.0 * 2.0
    assert flow.tolist() == central.flow.tolist()
