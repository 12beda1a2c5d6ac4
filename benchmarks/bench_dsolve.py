"""Benchmark the distributed placement solve against the centralized LP.

Measures, per fat-tree ``k`` (default 16 and 32; k=8 with ``--smoke``),
one randomized snapshot solved two ways on identical inputs:

* **centralized** — one ``PlacementEngine`` holding the whole network
  view (DP response model);
* **distributed** — per-pod zone managers presolving their local
  blocks and pricing only their own busy rows, with the thin
  price-exchange coordinator of ``repro.lp.distributed``.

The distributed reading is the *modeled parallel wall-clock*:
coordinator time plus the slowest zone (Trmin pricing + presolve +
lane pricing), i.e. the critical path if every zone manager ran on its
own host. Both solves run in this one process, so the model is
conservative — it charges full serial cost to the slowest zone and
all coordination to the coordinator.

Correctness is gated before speed: on every point the distributed
objective must match the centralized solve within ``1e-6`` relative
(it is the same transportation simplex, distributed, so the match is
typically exact to float noise). The full run additionally gates the
k=16 modeled speedup at ``--min-speedup`` (default 2x); ``--smoke``
records ratios without gating. Results land in ``BENCH_dsolve.json`` —
regenerate with::

    PYTHONPATH=src python benchmarks/bench_dsolve.py

Honest-numbers note: timings come from whatever box runs this; the
recorded ``cpu_count`` and the explicit critical-path model make the
numbers comparable across boxes but not identical.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from repro.experiments.extra_distributed import OBJECTIVE_TOLERANCE, solve_point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="one k=8 point, no speedup gate",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=2.0,
        help="required modeled speedup at k=16 (full run only)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_dsolve.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    ks = (8,) if args.smoke else (16, 32)
    failures: List[str] = []
    points = []
    for k in ks:
        try:
            point = solve_point(k, seed=args.seed)
        except AssertionError as exc:  # objective/status divergence
            failures.append(str(exc))
            continue
        points.append(point)
        if point["objective_rel_diff"] > OBJECTIVE_TOLERANCE:
            failures.append(
                f"k={k}: objective rel diff {point['objective_rel_diff']:.3e} "
                f"exceeds {OBJECTIVE_TOLERANCE:g}"
            )

    gated = not args.smoke
    gate_point = next((p for p in points if p["k"] == 16), None)
    if gated:
        if gate_point is None:
            failures.append("k=16 point missing; cannot apply the speedup gate")
        elif gate_point["speedup"] < args.min_speedup:
            failures.append(
                f"modeled speedup {gate_point['speedup']:.2f}x at k=16 is "
                f"below the {args.min_speedup:.1f}x gate"
            )

    report = {
        "bench": "dsolve",
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "objective_tolerance": OBJECTIVE_TOLERANCE,
        "min_speedup_gate": args.min_speedup if gated else None,
        "points": points,
        "objectives_match": not any("rel diff" in f or "diverge" in f for f in failures),
        "passed": not failures,
    }
    if failures:
        report["failures"] = failures

    path = os.path.abspath(args.output)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"report written to {path}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
