"""DUST control-round benchmark: the one command.

    python3 benchmarks/e2e/run.py --seed 0              # all four workloads
    python3 benchmarks/e2e/run.py --seed 0 --traced     # + per-layer metrics
    python3 benchmarks/e2e/run.py --workload lp_churn_k16 --seed 3 --seconds 20 --trace 0

Prints every metric by name with its unit, runs the correctness checks
and exits non-zero if any fails. The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; with ``--workload``
its metrics are the end-to-end ones (``--trace 0``) or the per-layer
ones (``--trace 1``).

A *pass* runs warm-up units and then every measured unit in a fresh
process (unit_pass.py). Each workload gets several passes, interleaved
round-robin across workloads; a unit's time is the minimum over the
passes of that same unit — identical seeded work, and host noise only
ever adds — and the metrics are computed over those per-unit minima.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402  (stdlib-only sibling module)

#: Smoke shape: (passes, warm-up units, measured units) on k=4 fabrics.
SMOKE = {
    "lp_churn_k16": (2, 1, 3),
    "dist_churn_k16": (2, 1, 3),
    "fig11_sweep_k8": (2, 1, 4),
    "soak_chaos_k8": (2, 0, 2),
}
PASS_TIMEOUT_S = 60
REL_TOL = 1e-6


def plan_for(name: str, seconds: float, smoke: bool):
    """(passes, warm-up units, measured units) of one workload."""
    if smoke:
        return SMOKE[name]
    passes, warmup, units = metrics.WORKLOADS[name][:3]
    return passes, warmup, max(4, round(units * seconds / metrics.RUN_SECONDS))


def run_pass(
    name: str, seed: int, warmup: int, units: int, smoke: bool, traced: bool, out: Optional[str]
) -> dict:
    """Spawn one pass, wait for it, return its JSON (or an error record)."""
    command = [
        sys.executable, str(HERE / "unit_pass.py"),
        "--workload", name, "--seed", str(seed),
        "--warmup", str(warmup), "--units", str(units),
    ]
    if smoke:
        command.append("--smoke")
    if traced:
        command.append("--traced")
        if out:
            command += ["--out", out]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command += ["--t0", repr(time.perf_counter())]
    try:
        done = subprocess.run(
            command, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass timed out after {PASS_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"crashed": f"pass exited {done.returncode}: {done.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def _rel_close(a: float, b: float) -> bool:
    # Relative, with an absolute floor: loads are percentage points and a
    # relieved round's total excess is 0 up to rounding residue.
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def evaluate(name: str, passes: Dict[str, List[dict]], units: int) -> dict:
    """Merge one workload's passes into metrics and check outcomes."""
    problems: List[str] = []
    every = passes["untraced"] + passes["traced"] + passes["reference"]
    for record in every:
        if "crashed" in record:
            problems.append(record["crashed"])
    alive = [r for r in passes["untraced"] if "crashed" not in r]
    traced = [r for r in passes["traced"] if "crashed" not in r]
    reference = [r for r in passes["reference"] if "crashed" not in r]
    attempted = sum(len(r["unit_s"]) for r in every if "crashed" not in r)
    failed = sum(r["failed"] for r in every if "crashed" not in r)
    for record in alive + traced + reference:
        problems.extend(record["errors"])
    out = {"attempted": max(attempted, 1), "failed": failed, "problems": problems,
           "e2e": {}, "raw": {}, "layers": {}, "samples": 0}
    if not alive:
        problems.append(f"{name}: no untraced pass completed")
        return out

    # Identical seeded work in every pass: digests must agree exactly.
    first = alive[0]
    for record in alive[1:] + traced:
        if record["digest"] != first["digest"] or record["unserved_pct"] != first["unserved_pct"]:
            problems.append(f"{name}: digest differs between passes")
            break
    objective_rel_diff = 0.0
    for ref in reference:
        # dist_churn_k16 vs the centralized solve of the same inputs. On
        # the same instance both must report the same optimum. A
        # degenerate instance has several optimal placements; if the two
        # solvers pick different ones the runs part ways from there, which
        # is not an error — comparison stops at the first round whose
        # instance differs, and the digests are only compared when none does.
        compared = 0
        for mine, theirs in zip(first["rounds"], ref["rounds"]):
            if not (_rel_close(mine[0], theirs[0]) and _rel_close(mine[1], theirs[1])):
                break
            compared += 1
            if (mine[2] is None) != (theirs[2] is None):
                problems.append(f"{name}: round {compared} feasibility differs from centralized")
            elif mine[2] is not None:
                diff = abs(mine[2] - theirs[2]) / max(abs(theirs[2]), 1e-300)
                objective_rel_diff = max(objective_rel_diff, diff)
        if objective_rel_diff > REL_TOL:
            problems.append(f"{name}: round objective off by {objective_rel_diff:.3g}")
        if compared == 0:
            problems.append(f"{name}: no round comparable with the centralized pass")
        out["rounds_compared"] = f"{compared} of {len(first['rounds'])}"
        if compared == len(first["rounds"]) == len(ref["rounds"]):
            for key in ("messages_sent", "rounds", "offloads_established", "events"):
                if first["digest"][key] != ref["digest"][key]:
                    problems.append(
                        f"{name}: {key} {first['digest'][key]} != centralized {ref['digest'][key]}"
                    )
            if not _rel_close(first["digest"]["sum_beta"], ref["digest"]["sum_beta"]):
                problems.append(f"{name}: sum of objectives differs from centralized")

    def minima_over_passes(per_unit) -> List[float]:
        columns = [[per_unit(r, i) for r in alive if r["unit_s"][i] is not None] for i in range(units)]
        return [min(c) for c in columns if c]

    minima = minima_over_passes(lambda r, i: r["unit_s"][i])
    # The same unit at reference host speed: scaled by the host-probe
    # reading taken around that very unit run.
    ref_minima = minima_over_passes(
        lambda r, i: r["unit_s"][i] * metrics.REFERENCE_PROBE_MS / r["probe_ms"][i]
    )
    out["samples"] = len(minima)
    out["raw"] = {
        "driver.unit_ms_p50": 1e3 * statistics.median(minima) if minima else 0.0,
        "driver.run_wall_s": sum(minima),
    }
    out["e2e"] = {
        "setup_s": statistics.median(r["setup_s"] for r in alive),
        "unit_ref_ms_p50": 1e3 * statistics.median(ref_minima) if ref_minima else 0.0,
        "run_ref_s": sum(ref_minima),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in alive),
        "unserved_pct": first["unserved_pct"],
    }
    out["audit_violations"] = first["extras"].get("audit_violations", 0)

    if passes["traced"]:
        if not traced:
            return out

        def pass_wall(record: dict) -> float:
            # At reference host speed, or the comparison below is mostly
            # the host's mood during one pass against another.
            return sum(
                s * metrics.REFERENCE_PROBE_MS / c
                for s, c in zip(record["unit_s"], record["probe_ms"]) if s is not None
            )

        best = min(traced, key=pass_wall)
        if not all(r["report_within_span"] for r in traced):
            problems.append(f"{name}: public report timings exceed their outer span")
        pooled = [1e3 * s for r in alive for s in r["unit_s"] if s is not None]
        probes = [c for r in alive + traced for c in r["probe_ms"] if c is not None]
        untraced_wall = min(pass_wall(r) for r in alive)
        layers = {**best["layers"], **out["raw"]}
        layers["lp.distributed.objective_rel_diff_max"] = objective_rel_diff
        layers["obs.trace_overhead_pct"] = 100.0 * (pass_wall(best) - untraced_wall) / untraced_wall
        layers["driver.unit_ms_p90"] = metrics.percentile(pooled, 90.0)
        layers["host.probe_ms_min"] = min(r["probe_min_ms"] for r in alive + traced)
        layers["host.probe_ms_p50"] = statistics.median(probes) if probes else 0.0
        missing = [n for n in metrics.LAYER_UNITS if n not in layers]
        if missing:
            problems.append(f"{name}: per-layer metrics missing: {missing}")
        out["layers"] = {n: float(layers[n]) for n in metrics.LAYER_UNITS if n in layers}
    return out


def _format(value: float) -> str:
    return f"{value:.6g}"


def report(name: str, outcome: dict, plan, trace: bool) -> None:
    passes, warmup, units = plan
    print(f"\n== {name}: {passes} passes x ({warmup} warm-up + {units} measured units), "
          f"unit = {metrics.WORKLOADS[name][3]} ==")
    if "rounds_compared" in outcome:
        print(f"  rounds on the same instance as the centralized oracle: {outcome['rounds_compared']}")
    print(f"  ops_attempted {outcome['attempted']}  ops_failed {outcome['failed']}  "
          f"samples behind unit_ref_ms_p50: {outcome['samples']}  "
          f"audit violations (recorded, not gated): {outcome.get('audit_violations', 0)}")
    for metric, value in outcome["e2e"].items():
        print(f"  {metric:<46} {_format(value):>12} {metrics.E2E_UNITS[metric]}")
    for metric, value in (outcome["layers"] if trace else outcome["raw"]).items():
        print(f"  {metric:<46} {_format(value):>12} {metrics.LAYER_UNITS[metric]}")
    for problem in outcome["problems"]:
        print(f"  CHECK FAILED: {problem}")


def run(
    names: List[str], seed: int, seconds: float, trace: bool, smoke: bool,
    out: Optional[str] = None, raw: Optional[str] = None,
):
    """Run ``names`` with their passes interleaved; returns name -> outcome."""
    plans = {name: plan_for(name, seconds, smoke) for name in names}
    traced_passes = (1 if smoke else 2) if trace else 0
    if trace and len(names) == 1:
        # The driver's per-layer run reports no end-to-end metric: two
        # untraced passes (overhead baseline, raw wall clock) are enough
        # and keep it inside the same time budget as an untraced run.
        plans = {name: (min(p, 2), w, u) for name, (p, w, u) in plans.items()}
    records = {name: {"untraced": [], "traced": [], "reference": []} for name in names}
    schedule = []
    for index in range(max(p[0] for p in plans.values()) + traced_passes + 1):
        for name in names:
            passes = plans[name][0]
            if index < passes:
                schedule.append((name, "untraced"))
            elif index < passes + traced_passes:
                schedule.append((name, "traced"))
            elif index == passes + traced_passes and name == "dist_churn_k16":
                schedule.append((name, "reference"))
    for name, kind in schedule:
        _, warmup, units = plans[name]
        # The reference is the centralized workload on dist_churn's inputs.
        target = "lp_churn_k16" if kind == "reference" else name
        record = run_pass(target, seed, warmup, units, smoke, kind == "traced", out)
        records[name][kind].append(record)
        if "crashed" in record:
            break  # fail fast: the run is lost, do not spend the time budget
    if raw:
        with open(raw, "w") as fh:
            json.dump({"seed": seed, "plans": plans, "passes": records}, fh)
    return {name: evaluate(name, records[name], plans[name][2]) for name in names}, plans


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS), default=None,
                        help="run one workload (default: all four, passes interleaved)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS,
                        help="measuring time to aim for; unit counts scale with it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true", help="k=4 fabrics, 2 passes, < 15 s")
    parser.add_argument("--out", default=None,
                        help="directory for Chrome-trace JSON (traced passes; default: not written)")
    parser.add_argument("--raw", default=None,
                        help="file for every pass record as JSON (default: not written)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC}/repro not found - run from a checkout of the repository", file=sys.stderr)
        return 2

    trace = bool(args.trace or args.traced)
    names = [args.workload] if args.workload else list(metrics.WORKLOADS)
    started = time.perf_counter()
    outcomes, plans = run(names, args.seed, args.seconds, trace, args.smoke, args.out, args.raw)
    for name in names:
        report(name, outcomes[name], plans[name], trace)
    correct = all(not o["problems"] and o["failed"] == 0 for o in outcomes.values())
    print(f"\n{'all checks passed' if correct else 'CHECKS FAILED'} "
          f"(seed {args.seed}, {time.perf_counter() - started:.1f} s)")

    def block(outcome: dict) -> dict:
        if args.workload and trace:
            values, units = outcome["layers"], metrics.LAYER_UNITS
        elif args.workload:
            values, units = outcome["e2e"], metrics.E2E_UNITS
        else:
            values = {**outcome["e2e"], **outcome["layers"]}
            units = {**metrics.E2E_UNITS, **metrics.LAYER_UNITS}
        return {n: {"value": v, "unit": units[n]} for n, v in values.items()}

    payload = {
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": block(outcomes[args.workload]) if args.workload
        else {name: block(outcomes[name]) for name in names},
    }
    print(json.dumps(payload))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
