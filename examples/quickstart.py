#!/usr/bin/env python
"""Quickstart: solve one DUST placement problem end to end.

Builds a small data-center fabric, loads it with traffic, classifies
nodes against the threshold policy, and runs both the optimal (Eq. 3)
placement and the one-hop heuristic (Algorithm 1), printing the chosen
destinations and controllable routes.

Run with::

    python examples/quickstart.py
"""

from repro import (
    CapacityModel,
    LinkUtilizationModel,
    PlacementEngine,
    ThresholdPolicy,
    build_fat_tree,
    solve_heuristic,
)
from repro.core import PlacementProblem
from repro.routing import PathEngine, ResponseTimeModel


def main() -> None:
    # 1. A 4-port fat-tree: the paper's small-scale testbed
    #    (20 switches, 32 links).
    topology = build_fat_tree(4)
    LinkUtilizationModel(low=0.2, high=0.8, seed=7).apply(topology)
    print(f"topology: {topology}")

    # 2. Utilized node capacities and the threshold policy, assembled
    #    into the Eq. 3 placement problem (D_i: 10 Mb of monitoring data
    #    per busy node).
    policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
    capacities = CapacityModel(x_min=policy.x_min, seed=3).sample(topology.num_nodes)
    problem = PlacementProblem.from_loads(topology, capacities, policy, max_hops=8)
    print(f"busy nodes (V_b): {list(problem.busy)}")
    print(f"offload candidates (V_o): {list(problem.candidates)}")
    print(f"delta_io = {policy.delta_io:.2f} (paper recommends >= 2)")
    print(f"total excess Cs = {problem.total_excess:.1f} pts, "
          f"total spare Cd = {problem.total_spare:.1f} pts")

    # 3. Optimal placement with the faithful path-enumeration engine.
    engine = PlacementEngine(
        response_model=ResponseTimeModel(engine=PathEngine.ENUMERATION, max_hops=8)
    )
    report = engine.solve(problem)
    print(f"\nILP placement: {report.status.value}, beta = {report.objective_beta:.4f} s "
          f"({report.total_seconds*1e3:.1f} ms)")
    for a in report.assignments:
        route = "->".join(map(str, a.route.nodes)) if a.route else "?"
        print(f"  offload {a.amount_pct:5.2f} pts: node {a.busy} -> node {a.candidate} "
              f"via {route} ({a.hops} hops, Trmin {a.response_time_s*1e3:.2f} ms)")

    # 4. The one-hop heuristic for comparison.
    heuristic = solve_heuristic(problem)
    print(f"\nheuristic (Algorithm 1): offloaded {heuristic.total_offloaded:.2f} pts, "
          f"HFR = {heuristic.hfr_pct:.1f}%")
    for a in heuristic.assignments:
        print(f"  offload {a.amount_pct:5.2f} pts: node {a.busy} -> node {a.candidate} "
              f"(1 hop)")


if __name__ == "__main__":
    main()
