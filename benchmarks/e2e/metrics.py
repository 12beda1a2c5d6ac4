"""Names, units and bounds of every metric — the one place they are defined.

``BENCHMARK.json`` is ``benchmark_json()`` written out; ``test_smoke.py``
fails when the two drift apart. Standard library only: the orchestrator
imports this before it knows whether ``src/`` exists.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

#: Seconds of measuring one driver run asks for; unit counts scale with
#: ``--seconds / RUN_SECONDS``.
RUN_SECONDS = 20

#: name -> (passes, warm-up units, measured units at RUN_SECONDS, unit, why).
#: Smoke counts are in run.py. dist_churn_k16 adds one untimed
#: centralized reference pass on the same inputs.
WORKLOADS = {
    "lp_churn_k16": (
        3, 3, 18, "one 30 s control period",
        "production path: busy-set churn makes DP pricing and the LP cold every "
        "round (pricing ~60 %, control plane ~20 %, LP ~15 %)",
    ),
    "dist_churn_k16": (
        3, 3, 12, "one 30 s control period",
        "same inputs as lp_churn_k16 solved by per-pod zones: many small pricing "
        "matrices and LPs, so a change that helps one big matrix and hurts small ones shows",
    ),
    "fig11_sweep_k8": (
        4, 4, 36, "one Fig. 11 iteration",
        "researcher path: hop-5 enumeration pricing ~96 %, Algorithm 1 and INFEASIBLE "
        "occur, no control plane - manager or message changes predict no move",
    ),
    "soak_chaos_k8": (
        3, 1, 9, "one 600 s soak run",
        "control plane dominates (event loop, messages, persist-per-STAT ~65 %) under loss, "
        "partition and manager failover; pricing + LP are ~33 %",
    ),
}

#: Milliseconds per repetition of the host probe (unit_pass.HostProbe)
#: on this box when nothing else runs; the ``*_ref_*`` metrics scale
#: each unit's time by REFERENCE_PROBE_MS / (probe reading around it).
REFERENCE_PROBE_MS = 0.18

#: (name, unit, better, bound) — the same five on every workload. The
#: two timings are stated at reference host speed; their raw wall-clock
#: twins are ``driver.unit_ms_p50`` / ``driver.run_wall_s`` below.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("unit_ref_ms_p50", "ms", "lower", 0.25),
    ("run_ref_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("unserved_pct", "%", "lower", 0.25),
)

#: (name, unit, better, which end-to-end metric it should move, and where).
PER_LAYER = (
    ("topology.build_ms", "ms", "lower", "setup_s, all"),
    ("routing.price_ms_p50", "ms", "lower", "unit_ref_ms_p50 on lp_churn_k16, fig11_sweep_k8"),
    ("routing.price_share_pct", "%", "lower", "run_ref_s on lp_churn_k16, fig11_sweep_k8"),
    ("routing.price_calls", "count", "lower", "run_ref_s on dist_churn_k16"),
    ("routing.price_rows", "count", "lower", "run_ref_s on lp_churn_k16"),
    ("routing.price_pairs", "count", "lower", "run_ref_s on fig11_sweep_k8"),
    ("routing.us_per_pair", "us", "lower", "unit_ref_ms_p50 on fig11_sweep_k8, lp_churn_k16"),
    ("routing.idle_rows_pct", "%", "lower", "run_ref_s on lp_churn_k16"),
    ("routing.cache_hits", "count", "higher", "run_ref_s on lp_churn_k16"),
    ("routing.full_computes", "count", "lower", "run_ref_s on lp_churn_k16"),
    ("routing.incremental_updates", "count", "higher", "run_ref_s on lp_churn_k16"),
    ("routing.gate_fallbacks", "count", "lower", "run_ref_s on lp_churn_k16"),
    ("lp.solve_ms_p50", "ms", "lower", "unit_ref_ms_p50 on dist_churn_k16, lp_churn_k16"),
    ("lp.share_pct", "%", "lower", "run_ref_s on dist_churn_k16, lp_churn_k16"),
    ("lp.pivots_per_solve", "count", "lower", "unit_ref_ms_p50 on lp_churn_k16"),
    ("lp.warm_hit_pct", "%", "higher", "unit_ref_ms_p50 on lp_churn_k16"),
    ("lp.infeasible_pct", "%", "lower", "unserved_pct on fig11_sweep_k8"),
    ("lp.distributed.epochs_per_solve", "count", "lower", "unit_ref_ms_p50 on dist_churn_k16"),
    ("lp.distributed.pivots_per_solve", "count", "lower", "unit_ref_ms_p50 on dist_churn_k16"),
    ("lp.distributed.messages_per_solve", "count", "lower", "unit_ref_ms_p50 on dist_churn_k16"),
    ("lp.distributed.coordinator_ms_p50", "ms", "lower", "unit_ref_ms_p50 on dist_churn_k16"),
    ("lp.distributed.slowest_zone_ms_p50", "ms", "lower", "unit_ref_ms_p50 on dist_churn_k16"),
    ("lp.distributed.modeled_critical_path_ms_p50", "ms", "lower", "none measured: modeled"),
    ("lp.distributed.presolve_warm_hit_pct", "%", "higher", "unit_ref_ms_p50 on dist_churn_k16"),
    ("lp.distributed.objective_rel_diff_max", "ratio", "lower", "correctness on dist_churn_k16"),
    ("core.placement.solve_ms_p50", "ms", "lower", "unit_ref_ms_p50 on fig11_sweep_k8"),
    ("core.placement.self_ms_p50", "ms", "lower", "unit_ref_ms_p50 on fig11_sweep_k8"),
    ("core.heuristic.solve_ms_p50", "ms", "lower", "unit_ref_ms_p50 on fig11_sweep_k8"),
    ("core.heuristic.calls", "count", "lower", "run_ref_s on fig11_sweep_k8"),
    ("core.heuristic.hfr_pct_mean", "%", "lower", "unserved_pct on fig11_sweep_k8"),
    ("core.manager.decide_ms_p50", "ms", "lower", "unit_ref_ms_p50 on lp_churn_k16, dist_churn_k16"),
    ("core.manager.decide_self_ms_p50", "ms", "lower", "unit_ref_ms_p50 on soak_chaos_k8"),
    ("core.manager.receive_ms_per_unit", "ms", "lower", "run_ref_s on soak_chaos_k8"),
    ("core.manager.msgs_in_per_unit", "count", "lower", "run_ref_s on soak_chaos_k8"),
    ("core.manager.requests_per_unit", "count", "lower", "run_ref_s on lp_churn_k16"),
    ("core.manager.fallbacks", "count", "lower", "unserved_pct on soak_chaos_k8"),
    ("core.client.receive_ms_per_unit", "ms", "lower", "run_ref_s on soak_chaos_k8"),
    ("core.nmdb.apply_stat_us_p50", "us", "lower", "run_ref_s on soak_chaos_k8"),
    ("core.nmdb.snapshot_ms_p50", "ms", "lower", "unit_ref_ms_p50 on lp_churn_k16"),
    ("core.failover.persist_ms_per_unit", "ms", "lower", "run_ref_s on soak_chaos_k8, churn"),
    ("core.failover.persists_per_unit", "count", "lower", "run_ref_s on soak_chaos_k8, churn"),
    ("core.failover.persists_per_ledger_change", "ratio", "lower", "run_ref_s on soak_chaos_k8"),
    ("core.failover.takeover_gap_sim_s", "sim_s", "lower", "unserved_pct on soak_chaos_k8"),
    ("core.messages.retransmissions", "count", "lower", "run_ref_s on soak_chaos_k8"),
    ("core.messages.gave_up", "count", "lower", "unserved_pct on soak_chaos_k8"),
    ("core.messages.duplicates_ignored", "count", "lower", "run_ref_s on soak_chaos_k8"),
    ("core.audit.violations", "count", "lower", "unserved_pct on the live workloads"),
    ("simulation.engine.events_per_unit", "count", "lower", "run_ref_s on soak_chaos_k8, churn"),
    ("simulation.engine.us_per_event", "us", "lower", "unit_ref_ms_p50 on soak_chaos_k8, churn"),
    ("simulation.engine.dispatch_self_ms_per_unit", "ms", "lower", "run_ref_s on soak_chaos_k8"),
    ("simulation.network_sim.sends_per_unit", "count", "lower", "run_ref_s on soak_chaos_k8"),
    ("simulation.network_sim.send_us_p50", "us", "lower", "run_ref_s on soak_chaos_k8"),
    ("simulation.network_sim.dropped_pct", "%", "lower", "input property of soak_chaos_k8"),
    ("simulation.network_sim.duplicated_pct", "%", "lower", "input property of soak_chaos_k8"),
    ("simulation.soak.events_per_s", "1/s", "higher", "unit_ref_ms_p50 on soak_chaos_k8"),
    ("simulation.soak.ingress_latency_p99_sim_s", "sim_s", "lower", "none: simulated clock"),
    ("simulation.soak.ladder_max_level", "count", "lower", "unserved_pct on soak_chaos_k8"),
    ("simulation.soak.watchdog_resets", "count", "lower", "run_ref_s on soak_chaos_k8"),
    ("simulation.soak.final_drift_mean", "ratio", "lower", "unserved_pct on soak_chaos_k8"),
    ("obs.trace_overhead_pct", "%", "lower", "none: traced vs untraced pass wall"),
    ("obs.unattributed_pct", "%", "lower", "none: unit wall under no span"),
    ("driver.unit_ms_p50", "ms", "lower", "raw wall clock behind unit_ref_ms_p50 (host noise included)"),
    ("driver.run_wall_s", "s", "lower", "raw wall clock behind run_ref_s (host noise included)"),
    ("driver.unit_ms_p90", "ms", "lower", "diagnostic: pooled over passes, noise included"),
    ("host.probe_ms_min", "ms", "lower", "diagnostic: fastest host-probe repetition of the run"),
    ("host.probe_ms_p50", "ms", "lower", "diagnostic: typical host-probe reading around the units"),
)

E2E_UNITS = {name: unit for name, unit, _, _ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _, _ in PER_LAYER}


def benchmark_json() -> dict:
    """The contract file, in the exact shape the driver requires."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": spec[4]} for name, spec in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


def p50(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return float(ordered[rank])


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


#: What ``Recorder.summarize`` reports for a span name that never occurred.
_NO_SPAN = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0,
            "durations": (), "self_durations": ()}


def layer_metrics(
    summary: Dict[str, dict],
    counts: Dict[str, float],
    facts: Dict[str, List[float]],
    extras: Dict[str, float],
    unit_walls: Sequence[float],
    build_durations: Sequence[float],
) -> Dict[str, float]:
    """Per-layer metrics one traced pass can compute on its own (the
    orchestrator adds ``obs.trace_overhead_pct``, ``driver.*``,
    ``host.*`` and the distributed objective cross-check)."""
    units = max(len(unit_walls), 1)
    wall = sum(unit_walls)

    def span(name: str) -> dict:
        return summary.get(name, _NO_SPAN)

    price, lp, placement = span("routing.price"), span("lp.solve"), span("core.placement.solve")
    heuristic, decide = span("core.heuristic.solve"), span("core.manager.decide")
    manager_rx, client_rx = span("core.manager.receive"), span("core.client.receive")
    export, save = span("core.failover.export_snapshot"), span("core.failover.save")
    run_until, send = span("simulation.engine.run_until"), span("simulation.network_sim.send")
    events = counts.get("engine.events", 0.0) or extras.get("engine_events", 0.0)
    event_loop_s = run_until["total_s"]
    sent = extras.get("messages_sent", 0.0)
    dropped = extras.get("messages_dropped", 0.0)
    solves = counts.get("lp.solves", 0.0)
    dist = len(facts.get("dist.epochs", ()))
    top_s = sum(entry["top_s"] for entry in summary.values())
    ms = 1e3

    return {
        "topology.build_ms": ms * _ratio(sum(build_durations), len(build_durations)),
        "routing.price_ms_p50": ms * p50(price["durations"]),
        "routing.price_share_pct": _ratio(price["total_s"], wall, 100.0),
        "routing.price_calls": price["calls"],
        "routing.price_rows": counts.get("routing.rows", 0.0),
        "routing.price_pairs": counts.get("routing.pairs", 0.0),
        "routing.us_per_pair": _ratio(price["total_s"], counts.get("routing.pairs", 0.0), 1e6),
        "routing.idle_rows_pct": _ratio(
            counts.get("placement.idle_rows", 0.0), counts.get("placement.rows", 0.0), 100.0
        ),
        "routing.cache_hits": counts.get("routing.cache_hits", 0.0),
        "routing.full_computes": counts.get("routing.full_computes", 0.0),
        "routing.incremental_updates": counts.get("routing.incremental_updates", 0.0),
        "routing.gate_fallbacks": counts.get("routing.gate_fallbacks", 0.0),
        "lp.solve_ms_p50": ms * p50(lp["durations"]),
        "lp.share_pct": _ratio(
            lp["total_s"] + span("lp.distributed.protocol")["total_s"], wall, 100.0
        ),
        "lp.pivots_per_solve": _ratio(counts.get("lp.pivots", 0.0), solves),
        "lp.warm_hit_pct": _ratio(counts.get("lp.warm_hits", 0.0), solves, 100.0),
        "lp.infeasible_pct": _ratio(counts.get("lp.infeasible", 0.0), solves, 100.0),
        "lp.distributed.epochs_per_solve": _ratio(sum(facts.get("dist.epochs", ())), dist),
        "lp.distributed.pivots_per_solve": _ratio(sum(facts.get("dist.pivots", ())), dist),
        "lp.distributed.messages_per_solve": _ratio(sum(facts.get("dist.messages", ())), dist),
        "lp.distributed.coordinator_ms_p50": ms * p50(facts.get("dist.coordinator_s", ())),
        "lp.distributed.slowest_zone_ms_p50": ms * p50(facts.get("dist.slowest_zone_s", ())),
        "lp.distributed.modeled_critical_path_ms_p50": ms * p50(facts.get("dist.critical_path_s", ())),
        "lp.distributed.presolve_warm_hit_pct": _ratio(
            counts.get("dist.presolve_warm_hits", 0.0), counts.get("dist.zone_slots", 0.0), 100.0
        ),
        "lp.distributed.objective_rel_diff_max": 0.0,
        "core.placement.solve_ms_p50": ms * p50(placement["durations"]),
        "core.placement.self_ms_p50": ms * p50(placement["self_durations"]),
        "core.heuristic.solve_ms_p50": ms * p50(heuristic["durations"]),
        "core.heuristic.calls": heuristic["calls"],
        "core.heuristic.hfr_pct_mean": _ratio(
            sum(facts.get("heuristic.hfr_pct", ())), len(facts.get("heuristic.hfr_pct", ()))
        ),
        "core.manager.decide_ms_p50": ms * p50(decide["durations"]),
        "core.manager.decide_self_ms_p50": ms * p50(decide["self_durations"]),
        "core.manager.receive_ms_per_unit": ms * manager_rx["total_s"] / units,
        "core.manager.msgs_in_per_unit": manager_rx["calls"] / units,
        "core.manager.requests_per_unit": counts.get("manager.requests", 0.0) / units,
        "core.manager.fallbacks": counts.get("manager.fallbacks", 0.0),
        "core.client.receive_ms_per_unit": ms * client_rx["total_s"] / units,
        "core.nmdb.apply_stat_us_p50": 1e6 * p50(span("core.nmdb.apply_stat")["durations"]),
        "core.nmdb.snapshot_ms_p50": ms * p50(span("core.nmdb.snapshot")["durations"]),
        "core.failover.persist_ms_per_unit": ms * (export["total_s"] + save["total_s"]) / units,
        "core.failover.persists_per_unit": save["calls"] / units,
        "core.failover.persists_per_ledger_change": _ratio(
            save["calls"], counts.get("ledger.changes", 0.0)
        ),
        "core.failover.takeover_gap_sim_s": extras.get("soak_takeover_gap_sim_s", 0.0),
        "core.messages.retransmissions": extras.get("retransmissions", 0.0),
        "core.messages.gave_up": extras.get("gave_up", 0.0),
        "core.messages.duplicates_ignored": extras.get("duplicates_ignored", 0.0),
        "core.audit.violations": extras.get("audit_violations", 0.0),
        "simulation.engine.events_per_unit": events / units,
        "simulation.engine.us_per_event": _ratio(event_loop_s, events, 1e6),
        "simulation.engine.dispatch_self_ms_per_unit": ms * run_until["self_s"] / units,
        "simulation.network_sim.sends_per_unit": send["calls"] / units,
        "simulation.network_sim.send_us_p50": 1e6 * p50(send["durations"]),
        "simulation.network_sim.dropped_pct": _ratio(dropped, sent + dropped, 100.0),
        "simulation.network_sim.duplicated_pct": _ratio(
            extras.get("duplicates_injected", 0.0), sent, 100.0
        ),
        "simulation.soak.events_per_s": _ratio(
            extras.get("soak_events_applied", 0.0), extras.get("soak_wall_s", 0.0)
        ),
        "simulation.soak.ingress_latency_p99_sim_s": extras.get("soak_latency_p99_sim_s", 0.0),
        "simulation.soak.ladder_max_level": extras.get("soak_ladder_max_level", 0.0),
        "simulation.soak.watchdog_resets": extras.get("soak_watchdog_resets", 0.0),
        "simulation.soak.final_drift_mean": extras.get("soak_final_drift", 0.0),
        "obs.unattributed_pct": _ratio(wall - top_s, wall, 100.0),
    }
