#!/usr/bin/env python
"""Post-offloading resilience: keepalives, failure, REP replica.

Demonstrates Section III-C: an offload destination crashes, its
keepalives stop, the manager detects the expiry on its sweep and
re-homes the hosted workload onto a replica node with a REP message
(or returns it to the source when no replica fits).

Run with::

    python examples/failure_recovery.py
"""

import numpy as np

from repro import LinkUtilizationModel, build_fat_tree
from repro.simulation import Wiring, build_deployment


def main() -> None:
    topology = build_fat_tree(4)
    LinkUtilizationModel(low=0.2, high=0.6, seed=2).apply(topology)
    wiring = Wiring(
        standby_node=None,
        retry_policy=None,
        update_interval_s=30.0,
        optimization_period_s=60.0,
        keepalive_timeout_s=30.0,
    )
    rng = np.random.default_rng(9)
    capacities = {
        node: 95.0 if node == 6 else float(rng.uniform(15.0, 40.0))
        for node in range(1, topology.num_nodes)
    }
    deployment = build_deployment(wiring, topology, capacities)
    engine, manager, clients = deployment.engine, deployment.manager, deployment.clients

    # Phase 1: let the offload establish.
    engine.run_until(300.0)
    assert manager.ledger.active, "expected an established offload"
    offload = manager.ledger.active[0]
    destination = offload.destination
    print(f"t=300s: node {offload.source} offloaded {offload.amount_pct:.1f} pts "
          f"to node {destination}")

    # Phase 2: crash the destination.
    clients[destination].fail()
    print(f"t=300s: destination node {destination} CRASHED (keepalives stop)")

    # Phase 3: run on; the keepalive sweep must install a replica.
    engine.run_until(900.0)
    print(f"\nt=900s: destinations failed = {manager.counters.destinations_failed}, "
          f"replicas installed = {manager.counters.replicas_installed}, "
          f"workloads returned = {manager.counters.workloads_returned}")
    for active in manager.ledger.active:
        marker = " (replica)" if active.via_replica else ""
        print(f"  node {active.source} -> node {active.destination}: "
              f"{active.amount_pct:.1f} pts{marker}")
    assert manager.counters.destinations_failed >= 1
    assert manager.counters.replicas_installed + manager.counters.workloads_returned >= 1
    assert all(a.destination != destination for a in manager.ledger.active)
    print("\nrecovery verified: no workload remains on the failed node")


if __name__ == "__main__":
    main()
