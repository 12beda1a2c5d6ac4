"""Benchmark the matrix Trmin DP kernel against per-source pricing.

Measures, on a fat-tree k=16 (k=4 with ``--smoke``), best-of-N wall
time for all-sources hop-constrained pricing:

* ``matrix_hop_constrained`` — one degree-class-blocked DP over the
  cached CSR, carrying a ``(nodes, sources)`` distance plane per layer;
* the per-source comparator — an explicit
  ``repro.routing.hop_constrained_shortest`` loop, the formulation the
  matrix kernel replaced in the pricing pipeline.

Every timed matrix run is compared **bit-for-bit** (``np.array_equal``
on the ``best`` and ``hops`` matrices, no tolerances) against the
per-source loop; any disagreement makes the script exit non-zero. The
full run additionally gates on the matrix kernel being at least
``--min-speedup`` (default 3x) faster than the per-source loop at
k=16; ``--smoke`` records the ratio without gating, since a 20-node
instance is too small to amortize plane setup. Results land in
``BENCH_trmin_matrix.json`` — regenerate with::

    PYTHONPATH=src python benchmarks/bench_trmin_matrix.py

Honest-numbers note: timings come from whatever box runs this; the
recorded ``cpu_count`` and best-of-N protocol make cross-box numbers
comparable but not identical. The baseline is the *unpadded* per-source
DP without path materialization — the cheapest honest formulation of
"one source at a time".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List

import numpy as np

from repro.routing import hop_constrained_shortest
from repro.routing.matrix import matrix_hop_constrained
from repro.topology import LinkUtilizationModel
from repro.topology.fattree import build_fat_tree


def build_fixture(smoke: bool, seed: int):
    k = 4 if smoke else 16
    topo = build_fat_tree(k)
    LinkUtilizationModel(0.2, 0.8, seed=seed).apply(topo)
    weights = 1.0 / topo.effective_bandwidths()
    max_hops = 6 if smoke else 8
    sources = list(range(topo.num_nodes))
    return topo, k, sources, max_hops, weights


def timed(fn, repeats: int) -> float:
    """Best-of-N wall time (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def per_source_sweep(topo, sources, max_hops, weights):
    rows, hop_rows = [], []
    for s in sources:
        result = hop_constrained_shortest(topo, s, max_hops, weights)
        rows.append(result.best)
        hop_rows.append(result.best_hops())
    return np.vstack(rows), np.vstack(hop_rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixture (4-k fat-tree), no speedup gate",
    )
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N timing")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=3.0,
        help="required matrix-vs-per-source ratio at k=16 (full run only)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(
            os.path.dirname(__file__), "..", "BENCH_trmin_matrix.json"
        ),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else max(1, args.repeats)

    topo, k, sources, max_hops, weights = build_fixture(args.smoke, seed=0)
    failures: List[str] = []

    # Bit-identity first, on fresh computations of both formulations.
    ref_best, ref_hops = per_source_sweep(topo, sources, max_hops, weights)
    result = matrix_hop_constrained(topo, sources, max_hops, weights)
    if not np.array_equal(result.best, ref_best):
        failures.append("matrix best matrix differs from the per-source DP")
    if not np.array_equal(result.hops, ref_hops):
        failures.append("matrix hops matrix differs from the per-source DP")

    matrix_s = timed(
        lambda: matrix_hop_constrained(topo, sources, max_hops, weights), repeats
    )
    per_source_s = timed(
        lambda: per_source_sweep(topo, sources, max_hops, weights), repeats
    )
    with_parents_s = timed(
        lambda: matrix_hop_constrained(
            topo, sources, max_hops, weights, with_parents=True
        ),
        repeats,
    )

    speedup = per_source_s / matrix_s if matrix_s else float("inf")
    gated = not args.smoke
    if gated and speedup < args.min_speedup:
        failures.append(
            f"matrix speedup {speedup:.2f}x over the per-source loop at k={k} "
            f"is below the {args.min_speedup:.1f}x gate"
        )

    report = {
        "bench": "trmin_matrix",
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "fixture": {
            "topology": f"fat-tree k={k}",
            "nodes": topo.num_nodes,
            "edges": topo.num_edges,
            "sources": len(sources),
            "max_hops": max_hops,
            "repeats": repeats,
        },
        "matrix_s": matrix_s,
        "per_source_s": per_source_s,
        "matrix_with_parents_s": with_parents_s,
        "speedup_vs_per_source": speedup,
        "min_speedup_gate": args.min_speedup if gated else None,
        "bit_identical": not any("differs" in f for f in failures),
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
