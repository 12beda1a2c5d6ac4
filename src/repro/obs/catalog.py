"""The metric catalog: every registry metric, declared in one place.

Each entry is ``(kind, name, unit, owner, description)``. The catalog
is registered into the process-wide registry when :mod:`repro.obs` is
imported, so the full metric namespace exists — at zero — before any
instrumented code runs. ``docs/observability.md`` renders this catalog
as a table, and the tier-1 docs tests fail when the two drift apart in
either direction (documented-but-unregistered or
registered-but-undocumented).

A description that starts "Fault-only" marks a metric whose writer sits
on a fault path that no shipped experiment, example or benchmark run
reaches, so a reader of its zero knows it is expected.

Naming convention: ``<layer>.<event>`` with the layer prefixes

========== ==========================================================
prefix     owner layer
========== ==========================================================
trmin      route-pricing engine (:mod:`repro.routing.engine`)
routing    path-enumeration kernel (:mod:`repro.routing.enumkernel`)
lp         LP/ILP solvers (:mod:`repro.lp`)
placement  Eq.-3 placement engine/session (:mod:`repro.core.placement`)
heuristic  Algorithm-1 vectorized kernel (:mod:`repro.core.heuristic`)
manager    DUST-Manager protocol loops (:mod:`repro.core.manager`)
client     DUST-Client endpoints (:mod:`repro.core.client`)
network    message fabric (:mod:`repro.simulation.network_sim`)
transport  reliable-delivery layer (:mod:`repro.core.messages`)
failover   snapshot/standby machinery (:mod:`repro.core.failover`)
chaos      chaos harness (:mod:`repro.simulation.chaos`)
soak       soak harness (:mod:`repro.simulation.soak`)
dsolve     distributed placement solve (:mod:`repro.lp.distributed`)
topology   CSR adjacency cache (:mod:`repro.topology.graph`)
========== ==========================================================
"""

from __future__ import annotations

from typing import List, Tuple

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = [
    "CATALOG",
    "register_catalog",
]

#: (kind, name, unit, owner, description) for every catalog metric.
CATALOG: List[Tuple[str, str, str, str, str]] = [
    # -- trmin: route-pricing engine ------------------------------------------------
    ("counter", "trmin.full_computes", "count", "repro.routing.engine",
     "Pricing calls; there is no route cache, so every call prices the full matrix"),
    ("histogram", "trmin.price_seconds", "seconds", "repro.routing.engine",
     "Wall time of one resistance_matrix call"),
    # -- routing: frontier-expansion enumeration kernel -----------------------------
    ("counter", "routing.enum_kernel_calls", "count", "repro.routing.enumkernel",
     "Frontier-expansion kernel invocations: one per counted pair, one per "
     "folded pricing frontier (one per call unless its live rows split it)"),
    ("counter", "routing.enum_frontier_rows", "count", "repro.routing.enumkernel",
     "Partial-path rows expanded across all kernel depth layers"),
    ("counter", "routing.enum_pruned_rows", "count", "repro.routing.enumkernel",
     "Partial-path extensions dropped by the admissible lower bound"),
    ("counter", "routing.enum_bound_cutoffs", "count", "repro.routing.enumkernel",
     "Complete paths dropped by the pricing bound before the fold"),
    # -- lp: solvers --------------------------------------------------------------
    ("counter", "lp.transportation.solves", "count", "repro.lp.transportation",
     "Transportation-simplex solves"),
    ("counter", "lp.transportation.pivots", "count", "repro.lp.transportation",
     "MODI pivots across all transportation solves"),
    ("histogram", "lp.transportation.solve_seconds", "seconds",
     "repro.lp.transportation", "Wall time of one transportation solve"),
    # -- placement: Eq. 3 engine ----------------------------------------------------
    ("counter", "placement.solves", "count", "repro.core.placement",
     "PlacementEngine.solve calls"),
    ("counter", "placement.infeasible", "count", "repro.core.placement",
     "Placement solves that ended INFEASIBLE (Fig. 7's io events)"),
    ("histogram", "placement.trmin_seconds", "seconds", "repro.core.placement",
     "Route-pricing phase of one placement solve"),
    ("histogram", "placement.lp_seconds", "seconds", "repro.core.placement",
     "LP phase of one placement solve"),
    ("histogram", "placement.total_seconds", "seconds", "repro.core.placement",
     "End-to-end wall time of one placement solve"),
    # -- heuristic: Algorithm-1 vectorized kernel ------------------------------------
    ("histogram", "heuristic.kernel.batch_size", "busy-nodes",
     "repro.core.heuristic",
     "Busy-node batch size of one vectorized kernel solve"),
    # -- manager: protocol loops ----------------------------------------------------
    ("counter", "manager.acks_sent", "count", "repro.core.manager",
     "Admission ACKs sent to announcing clients"),
    ("counter", "manager.stats_received", "count", "repro.core.manager",
     "STAT reports received"),
    ("counter", "manager.optimization_rounds", "count", "repro.core.manager",
     "Periodic optimization rounds executed"),
    ("counter", "manager.infeasible_rounds", "count", "repro.core.manager",
     "Rounds whose Eq. 3 program was infeasible"),
    ("counter", "manager.heuristic_fallbacks", "count", "repro.core.manager",
     "Infeasible rounds relieved by Algorithm 1"),
    ("counter", "manager.offload_requests_sent", "count", "repro.core.manager",
     "Offload-Requests dispatched to destinations"),
    ("counter", "manager.offloads_established", "count", "repro.core.manager",
     "Offload-ACK accepted: ledger rows created"),
    ("counter", "manager.offloads_rejected", "count", "repro.core.manager",
     "Offload-ACK rejected by the destination"),
    ("counter", "manager.keepalives_received", "count", "repro.core.manager",
     "Keepalive heartbeats received from hosting destinations"),
    ("counter", "manager.destinations_failed", "count", "repro.core.manager",
     "Destinations evicted after keepalive expiry"),
    ("counter", "manager.replicas_installed", "count", "repro.core.manager",
     "Failed destinations re-homed onto replicas via REP"),
    ("counter", "manager.workloads_returned", "count", "repro.core.manager",
     "Fault-only, 0 on every shipped run: evicted workloads returned to their sources (no "
     "replica fit)"),
    ("counter", "manager.reclaims_issued", "count", "repro.core.manager",
     "Reclaim messages issued after source recovery"),
    ("counter", "manager.duplicates_ignored", "count", "repro.core.manager",
     "Duplicate control messages suppressed by the dedup cache (with a retry policy a "
     "periodic STAT skips the cache; its copies count as stale_stats_dropped)"),
    ("counter", "manager.stale_stats_dropped", "count", "repro.core.manager",
     "STATs older than, or a copy of, the applied report, discarded under lossy delivery "
     "(includes duplicated periodic STATs)"),
    ("counter", "manager.stats_rejected", "count", "repro.core.manager",
     "Fault-only, 0 on every shipped run: STAT / Offload-capable reports dropped for a "
     "non-finite or out-of-range field"),
    ("counter", "manager.stale_acks_ignored", "count", "repro.core.manager",
     "Stale/raced Offload-ACKs ignored"),
    ("counter", "manager.acks_reconfirmed", "count", "repro.core.manager",
     "Re-confirmations of still-live ledger rows"),
    ("counter", "manager.probes_sent", "count", "repro.core.manager",
     "Probe-before-evict keepalive probes sent"),
    ("counter", "manager.orphans_reclaimed", "count", "repro.core.manager",
     "Orphaned hostings reclaimed after late acceptance"),
    ("counter", "manager.destinations_quarantined", "count", "repro.core.manager",
     "Destinations quarantined after retry-budget exhaustion"),
    ("counter", "manager.sources_abandoned", "count", "repro.core.manager",
     "Sources written off after an unconfirmed Redirect"),
    ("counter", "manager.resync_rounds", "count", "repro.core.manager",
     "Post-failover resync rounds opened"),
    ("counter", "manager.resync_recovered", "count", "repro.core.manager",
     "Ledger rows rebuilt from resync re-confirmations"),
    ("counter", "manager.redirects_unwound", "count", "repro.core.manager",
     "Fault-only, 0 on every shipped run: takeover-restored ledger rows reclaimed, source "
     "never confirmed the Redirect"),
    ("counter", "manager.snapshots_persisted", "count", "repro.core.manager",
     "Manager state snapshots written to stable storage"),
    ("counter", "manager.placements_reset", "count", "repro.core.manager",
     "Forced from-scratch reconvergences (drift watchdog resets)"),
    ("histogram", "manager.optimization_round_seconds", "seconds",
     "repro.core.manager", "Wall time of one optimization round"),
    # -- client: per-node endpoints (aggregated over all clients) -------------------
    ("counter", "client.stats_sent", "count", "repro.core.client",
     "STAT reports sent by clients"),
    ("counter", "client.keepalives_sent", "count", "repro.core.client",
     "Keepalive heartbeats sent by hosting clients"),
    ("counter", "client.requests_rejected", "count", "repro.core.client",
     "Hosting requests rejected (projected load above CO_max)"),
    ("counter", "client.duplicates_ignored", "count", "repro.core.client",
     "Duplicate messages suppressed by client dedup caches"),
    ("counter", "client.announce_give_ups", "count", "repro.core.client",
     "Announcements abandoned after the retry budget"),
    # -- network: message fabric ----------------------------------------------------
    ("counter", "network.messages_sent", "count", "repro.simulation.network_sim",
     "Messages accepted by the fabric"),
    ("counter", "network.messages_delivered", "count",
     "repro.simulation.network_sim", "Messages delivered to a receiver"),
    ("counter", "network.messages_dropped", "count",
     "repro.simulation.network_sim",
     "Messages lost (faults, partitions, dead endpoints)"),
    ("counter", "network.faults_dropped", "count", "repro.simulation.network_sim",
     "Messages dropped by the fault lottery specifically"),
    ("counter", "network.partition_dropped", "count",
     "repro.simulation.network_sim", "Messages blocked by an active partition"),
    ("counter", "network.duplicates_injected", "count",
     "repro.simulation.network_sim", "Duplicate deliveries injected by faults"),
    ("counter", "network.reordered", "count", "repro.simulation.network_sim",
     "Messages delayed by the reordering fault"),
    # -- transport: reliable-delivery layer (manager + client senders) --------------
    ("counter", "transport.retransmissions", "count", "repro.core.messages",
     "ACK-gated retransmissions fired by any ReliableSender"),
    ("counter", "transport.sends_gave_up", "count", "repro.core.messages",
     "Reliable sends abandoned after the retry budget"),
    ("counter", "transport.dedup_lru_evictions", "count", "repro.core.messages",
     "Dedup-cache entries evicted by the LRU capacity bound"),
    ("counter", "transport.dedup_ttl_expirations", "count", "repro.core.messages",
     "Dedup-cache entries expired by the TTL sweep"),
    # -- failover: snapshots + standby ----------------------------------------------
    ("counter", "failover.heartbeats_seen", "count", "repro.core.failover",
     "Primary heartbeats observed by the standby"),
    ("counter", "failover.takeovers", "count", "repro.core.failover",
     "Successful standby promotions"),
    ("counter", "failover.takeover_aborts", "count", "repro.core.failover",
     "Fault-only, 0 on every shipped run: takeovers aborted by the split-brain guard"),
    ("counter", "failover.snapshot_saves", "count", "repro.core.failover",
     "Snapshots accepted by the stable store"),
    ("counter", "failover.snapshot_load_failures", "count", "repro.core.failover",
     "Fault-only, 0 on every shipped run: torn or corrupted on-disk snapshots rejected on load"),
    # -- chaos: scenario harness ----------------------------------------------------
    ("counter", "chaos.runs", "count", "repro.simulation.chaos",
     "Chaos scenarios executed (faulty and reference runs)"),
    ("counter", "chaos.scenarios_evaluated", "count", "repro.simulation.chaos",
     "evaluate_scenario comparisons completed"),
    ("histogram", "chaos.run_seconds", "seconds", "repro.simulation.chaos",
     "Wall time of one scenario run"),
    # -- soak: sustained-churn harness ------------------------------------------------
    ("counter", "soak.runs", "count", "repro.simulation.soak",
     "Soak runs executed"),
    ("counter", "soak.events_generated", "count", "repro.simulation.soak",
     "Events emitted by the open-loop arrival streams"),
    ("counter", "soak.events_applied", "count", "repro.simulation.soak",
     "Events applied at their apply tick (every generated event)"),
    ("counter", "soak.admissions", "count", "repro.simulation.soak",
     "Client admissions observed via the manager's admission hook"),
    ("counter", "soak.evictions", "count", "repro.simulation.soak",
     "Destination evictions observed via the manager's eviction hook"),
    ("counter", "soak.oracle_solves", "count", "repro.simulation.soak",
     "Drift-watchdog from-scratch oracle solves"),
    ("gauge", "soak.oracle_drift", "fraction", "repro.simulation.soak",
     "Latest relief divergence between ledger and oracle placement"),
    ("counter", "soak.watchdog_resets", "count", "repro.simulation.soak",
     "Forced reconvergences triggered by the drift watchdog"),
    ("gauge", "soak.events_per_min", "events/min", "repro.simulation.soak",
     "Wall-clock event-application throughput of the latest run"),
    ("histogram", "soak.event_latency_s", "seconds", "repro.simulation.soak",
     "Simulated arrival-to-application latency per event"),
    ("histogram", "soak.run_seconds", "seconds", "repro.simulation.soak",
     "Wall time of one soak run"),
    # -- dsolve: distributed placement solve ------------------------------------------
    ("counter", "dsolve.solves", "count", "repro.lp.distributed",
     "Distributed zone/coordinator solves completed"),
    ("counter", "dsolve.rounds", "count", "repro.lp.distributed",
     "Price-exchange rounds across all distributed solves"),
    ("counter", "dsolve.pivots", "count", "repro.lp.distributed",
     "Coordinator basis pivots across all distributed solves"),
    ("counter", "dsolve.bids", "count", "repro.lp.distributed",
     "Lane bids received from zone managers"),
    ("histogram", "dsolve.solve_seconds", "seconds", "repro.lp.distributed",
     "Summed zone + coordinator wall time of one distributed solve"),
    # -- topology: CSR adjacency cache ----------------------------------------------
    ("counter", "topology.csr_cache_hits", "count", "repro.topology.graph",
     "csr_adjacency calls answered by the version-keyed cache"),
    ("counter", "topology.csr_cache_misses", "count", "repro.topology.graph",
     "csr_adjacency rebuilds after a topology version change"),
]

def register_catalog(registry: MetricsRegistry = None) -> MetricsRegistry:
    """Register every catalog metric (idempotent); returns the registry."""
    registry = registry if registry is not None else get_registry()
    for kind, name, unit, owner, description in CATALOG:
        registry._register(kind, name, unit, owner, description)
    return registry
