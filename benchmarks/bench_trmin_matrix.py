"""Benchmark the matrix Trmin DP kernel against per-source pricing.

Measures, on a fat-tree k=16 (k=4 with ``--smoke``), best-of-N wall
time for all-sources hop-constrained pricing:

* ``matrix_hop_constrained`` — one degree-class-blocked DP over the
  cached CSR, carrying a ``(nodes, sources)`` distance plane per layer;
* the per-source comparator — an explicit
  ``repro.routing.hop_constrained_shortest`` loop, the formulation the
  matrix kernel replaced in the pricing pipeline.

It also times the kernel at the shape a churn round calls it with:
``churn_points`` price 3 and 25 sources at ``max_hops = 4`` with
parents on a fat-tree k=16 (k=8 with ``--smoke``), best-of-N over
batches of calls, reported per call.

Every timed matrix run is compared **bit-for-bit** (``np.array_equal``
on the ``best`` and ``hops`` matrices, no tolerances) against the
per-source loop, and each churn point's parent planes against
``tests.oracles.dp_witness_planes`` (the last CSR lane reaching each
layer minimum); any disagreement makes the script exit non-zero. The
full run additionally gates on the matrix kernel being at least
``--min-speedup`` (default 3x) faster than the per-source loop at
k=16; ``--smoke`` records the ratio without gating, since a 20-node
instance is too small to amortize plane setup. Results land in
``BENCH_trmin_matrix.json`` — regenerate with::

    PYTHONPATH=src python benchmarks/bench_trmin_matrix.py

To record a kernel change against its parent, run the script on the
parent checkout with ``--output parent.json``, then on the change with
``--compare parent.json``: every point then carries the parent's
timing (``parent_*_s``) beside its own.

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

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from tests.oracles import dp_witness_planes  # noqa: E402

#: Source counts and hop budget of the churn-round points.
CHURN_SOURCES = (3, 25)
CHURN_MAX_HOPS = 4
#: Kernel calls per timing sample at a churn point (one call is ~1 ms).
CHURN_CALLS = 50


def loaded_fat_tree(k: int, seed: int):
    topo = build_fat_tree(k)
    LinkUtilizationModel(0.2, 0.8, seed=seed).apply(topo)
    return topo, 1.0 / topo.effective_bandwidths()


def build_fixture(smoke: bool, seed: int):
    k = 4 if smoke else 16
    topo, weights = loaded_fat_tree(k, seed)
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


def churn_points(smoke: bool, seed: int, repeats: int, failures: List[str]):
    """Time and check the kernel at the churn round's shape: a few
    sources, ``max_hops = 4``, parents on."""
    k = 8 if smoke else 16
    topo, weights = loaded_fat_tree(k, seed)
    rng = np.random.default_rng(seed)
    points = []
    for num_sources in CHURN_SOURCES:
        sources = rng.choice(topo.num_nodes, size=num_sources, replace=False).tolist()
        result = matrix_hop_constrained(
            topo, sources, CHURN_MAX_HOPS, weights, with_parents=True
        )
        ref_best, ref_hops = per_source_sweep(topo, sources, CHURN_MAX_HOPS, weights)
        planes = dp_witness_planes(topo, sources, CHURN_MAX_HOPS, weights)
        kept = (result.layer_dist, result.parent_node, result.parent_edge)
        identical = (
            np.array_equal(result.best, ref_best)
            and np.array_equal(result.hops, ref_hops)
            and all(
                len(got) == len(want) and all(map(np.array_equal, got, want))
                for got, want in zip(kept, planes)
            )
        )
        if not identical:
            failures.append(
                f"churn point S={num_sources} differs from the per-source DP "
                "or the last-lane witness oracle"
            )

        def batch():
            for _ in range(CHURN_CALLS):
                matrix_hop_constrained(
                    topo, sources, CHURN_MAX_HOPS, weights, with_parents=True
                )

        points.append(
            {
                "topology": f"fat-tree k={k}",
                "sources": num_sources,
                "max_hops": CHURN_MAX_HOPS,
                "with_parents": True,
                "calls_per_sample": CHURN_CALLS,
                "matrix_with_parents_s": timed(batch, repeats) / CHURN_CALLS,
                "bit_identical": identical,
            }
        )
    return points


def add_parent_timings(report: dict, parent: dict) -> None:
    """Copy the parent run's timings beside this run's, per point."""
    for key in ("matrix_s", "matrix_with_parents_s"):
        report[f"parent_{key}"] = parent[key]
    by_shape = {
        (p["topology"], p["sources"]): p for p in parent.get("churn_points", [])
    }
    for point in report["churn_points"]:
        before = by_shape.get((point["topology"], point["sources"]))
        if before is not None:
            point["parent_matrix_with_parents_s"] = before["matrix_with_parents_s"]


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
    parser.add_argument(
        "--compare",
        metavar="PARENT_JSON",
        help="a report of this script run on the parent checkout; its "
        "timings are recorded beside this run's",
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

    churn = churn_points(args.smoke, seed=0, repeats=repeats, failures=failures)

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
        "churn_points": churn,
        "bit_identical": not any("differs" in f for f in failures),
        "passed": not failures,
    }
    if args.compare:
        with open(args.compare) as fh:
            add_parent_timings(report, json.load(fh))
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
