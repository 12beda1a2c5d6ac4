"""Fig. 1 — CPU utilization of the in-device monitoring module.

Paper: on an 8-core Aruba 8325 under 20% line-rate VxLAN overlay
traffic, the monitoring module averages ≈100% CPU (one full core) and
spikes as high as ≈600%.

This experiment runs the emulated DUT and reports the module-CPU time
series (downsampled) plus the summary statistics.
"""

from __future__ import annotations

import time

from repro.experiments.common import ExperimentResult
from repro.testbed.monitoring_run import run_monitoring
from repro.testbed.vxlan import VxlanWorkload


def run(
    intervals: int = 120,
    interval_s: float = 60.0,
    seed: int = 42,
    bucket: int = 10,
) -> ExperimentResult:
    """Regenerate Fig. 1. ``bucket`` controls time-series downsampling
    for the printed table (statistics use all samples)."""
    start = time.perf_counter()
    result = run_monitoring(
        "local", intervals=intervals, interval_s=interval_s,
        workload=VxlanWorkload(seed=seed),
    )
    series = result.module_cpu_pct
    rows = []
    for begin in range(0, series.size, bucket):
        chunk = series[begin : begin + bucket]
        t_min = begin * interval_s / 60.0
        rows.append(
            (
                f"{t_min:.0f}-{t_min + chunk.size * interval_s / 60.0:.0f} min",
                float(chunk.mean()),
                float(chunk.max()),
            )
        )
    rows.append(("OVERALL", result.avg_module_cpu_pct, result.peak_module_cpu_pct))
    return ExperimentResult(
        experiment_id="fig1",
        title="CPU utilization of monitoring module (local, VxLAN 20% line rate)",
        columns=("window", "module CPU% mean", "module CPU% max"),
        rows=tuple(rows),
        paper_claim="average ~100% module CPU, spikes up to ~600% on the 8-core DUT",
        observations=(
            f"measured mean {result.avg_module_cpu_pct:.0f}%, "
            f"peak {result.peak_module_cpu_pct:.0f}%"
        ),
        elapsed_s=time.perf_counter() - start,
        params=(("intervals", intervals), ("interval_s", interval_s), ("seed", seed)),
    )
