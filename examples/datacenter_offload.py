#!/usr/bin/env python
"""Full control-plane simulation: DUST-Manager + clients on a fabric.

Reproduces the paper's system workflow (Section III-B) on the
discrete-event simulator: clients announce with Offload-capable, STAT
at the manager-assigned interval, the manager runs periodic
optimization rounds, and overloaded switches end up offloaded onto
under-utilized nodes via Offload-Request / Offload-ACK / Redirect.

Run with::

    python examples/datacenter_offload.py
"""

import numpy as np

from repro import LinkUtilizationModel, build_fat_tree
from repro.simulation import Wiring, build_deployment


def main() -> None:
    topology = build_fat_tree(4)
    LinkUtilizationModel(low=0.2, high=0.7, seed=11).apply(topology)
    # Node 0 doubles as the DUST-Manager host (a core switch here; in
    # production it is a cloud service).
    wiring = Wiring(
        standby_node=None,
        retry_policy=None,
        update_interval_s=60.0,
        optimization_period_s=120.0,
        keepalive_timeout_s=45.0,
    )
    policy = wiring.policy

    # Clients: three switches run hot, the rest are comfortable.
    rng = np.random.default_rng(5)
    hot_nodes = {5, 9, 14}
    capacities = {
        node: 92.0 if node in hot_nodes else float(rng.uniform(15.0, 45.0))
        for node in range(1, topology.num_nodes)
    }
    deployment = build_deployment(wiring, topology, capacities)
    engine, manager, clients = deployment.engine, deployment.manager, deployment.clients

    # One simulated hour.
    engine.run_until(3600.0)

    print(f"events processed: {engine.events_processed}")
    print(f"optimization rounds: {manager.counters.optimization_rounds}, "
          f"offloads established: {manager.counters.offloads_established}")
    print(f"active offloads in ledger: {len(manager.ledger)}")
    for offload in manager.ledger.active:
        print(f"  node {offload.source} -> node {offload.destination}: "
              f"{offload.amount_pct:.1f} pts via {'-'.join(map(str, offload.route))}")

    print("\nfinal utilizations of the hot nodes:")
    for node in sorted(hot_nodes):
        client = clients[node]
        print(f"  node {node}: base {client.base_capacity(engine.now):.0f}% -> "
              f"reported {client.current_capacity(engine.now):.0f}% "
              f"(offloaded {client.offloaded_amount:.1f} pts)")

    hosting = [c for c in clients.values() if c.hosted_amount > 0]
    print("\noffload destinations:")
    for client in hosting:
        print(f"  node {client.node_id}: hosting {client.hosted_amount:.1f} pts, "
              f"now at {client.current_capacity(engine.now):.0f}% "
              f"(CO_max = {policy.co_max:.0f}%)")
        assert client.current_capacity(engine.now) <= policy.co_max + 1e-6


if __name__ == "__main__":
    main()
