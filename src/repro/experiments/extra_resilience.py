"""Extra study: control-plane resilience under chaos.

The paper assumes a stable control fabric; this study measures what its
protocol costs and guarantees when that assumption breaks. Each seed
runs the default chaos scenario (10% message drop, 5% duplication, 10%
reordering, delay jitter, and one mid-run manager crash recovered by a
standby) next to its fault-free twin, and reports whether the offload
ledger reconverged to the reference placement, how long recovery took,
the retransmission/message overhead, and the strict-priority QoS audit
(production-class loss must be zero).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments.common import ExperimentResult
from repro.obs import normalize_counter_keys, observability_artifact
from repro.simulation.chaos import default_scenario, evaluate_scenario

DEFAULT_SEEDS: Sequence[int] = (0, 1, 2)


def run(
    seeds: Sequence[int] = DEFAULT_SEEDS,
    horizon_s: float = 3600.0,
    json_path: Optional[str] = None,
) -> ExperimentResult:
    """Chaos-vs-reference comparison per seed; optionally dumps the
    recovery metrics as JSON (the CI chaos-smoke artifact)."""
    start = time.perf_counter()
    rows = []
    records = []
    for seed in seeds:
        scenario = default_scenario(seed=seed)
        if horizon_s != scenario.horizon_s:
            chaos = replace(scenario.chaos, manager_crash_at=horizon_s / 2.0)
            scenario = replace(scenario, horizon_s=horizon_s, chaos=chaos)
        comparison = evaluate_scenario(scenario)
        faulty = comparison.faulty
        counters = faulty.counters
        recovery = comparison.recovery_s
        # One vocabulary everywhere: the per-run counter block uses the
        # metric-catalog names (docs/observability.md), summing the
        # manager's and the clients' retransmissions like the transport
        # metric does.
        run_counters = normalize_counter_keys(
            {
                "messages_sent": faulty.messages_sent,
                "messages_dropped": faulty.messages_dropped,
                "faults_dropped": faulty.faults_dropped,
                "duplicates_injected": faulty.duplicates_injected,
                "retransmissions": counters.retransmissions
                + faulty.client_retransmissions,
            }
        )
        rows.append(
            (
                seed,
                "yes" if comparison.converged else "NO",
                round(comparison.divergence, 4),
                "n/a" if recovery is None else f"{recovery:.0f}",
                round(comparison.overhead_pct, 1),
                run_counters["network.faults_dropped"],
                run_counters["network.duplicates_injected"],
                run_counters["transport.retransmissions"],
                faulty.qos.production_loss_mb,
            )
        )
        records.append(
            {
                "seed": seed,
                "converged": comparison.converged,
                "placement_divergence": comparison.divergence,
                "recovery_time_s": recovery,
                "message_overhead_pct": comparison.overhead_pct,
                "counters": run_counters,
                "manager_took_over_at": faulty.took_over_at,
                "production_loss_mb": faulty.qos.production_loss_mb,
                "monitoring_dropped_mb": faulty.qos.monitoring_dropped_mb,
            }
        )
    if json_path is not None:
        artifact = {"runs": records, "observability": observability_artifact()}
        Path(json_path).write_text(json.dumps(artifact, indent=2))
    all_converged = all(r["converged"] for r in records)
    no_production_loss = all(r["production_loss_mb"] == 0.0 for r in records)
    return ExperimentResult(
        experiment_id="resilience",
        title="Chaos resilience: lossy fabric + manager failover (extra)",
        columns=(
            "seed", "converged", "divergence", "recovery (s)", "overhead (%)",
            "network.faults_dropped", "network.duplicates_injected",
            "transport.retransmissions", "prod loss (MB)",
        ),
        rows=tuple(rows),
        paper_claim=(
            "the paper's control plane assumes reliable delivery and a "
            "single always-up manager (no figure)"
        ),
        observations=(
            f"{'every' if all_converged else 'NOT every'} chaos run reconverged "
            "to the fault-free placement; production-class loss "
            f"{'stayed zero' if no_production_loss else 'was observed'} under "
            "strict-priority QoS"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(("seeds", tuple(seeds)), ("horizon_s", horizon_s)),
    )
