"""Benchmark the frontier-expansion enumeration kernel vs the exhaustive DFS.

Measures, on a fat-tree k=16 (k=4 with ``--smoke``), best-of-N wall
time for enumeration-engine Trmin pricing of a spread busy x candidate
pair sample at hop budgets 4 and 5 (3 and 4 with ``--smoke``):

* kernel — ``ResponseTimeModel.resistance_matrix``, i.e. the
  :mod:`repro.routing.enumkernel` frontier expansion (one frontier for
  all pairs of the call) + admissible lower-bound pruning, picking each
  pair's winner by the judge's fold rule (the one enumeration pricing
  route in ``src/``);
* reference — the pure-Python ``tests.oracles.iter_simple_paths_raw``
  DFS stream of every pair through the judge's fold
  (``tests.oracles._fold_raw_paths``).

A second point has the shape ``benchmarks/e2e``'s ``fig11_sweep_k8``
actually prices: fat-tree(8), 18 x 22 pairs, hop 5,
``with_paths=False`` — at k=8 under ``--smoke`` too, so the smoke run
checks bit-identity on the claimed shape (its reference costs ~1 s).

A split point prices a uniform-cost fat-tree(8) call (every
equal-cost path survives) with the kernel's live-row cap patched down
to ``SPLIT_CAP``, so its pairs split between many frontiers mid-flight,
and holds it bit-for-bit to the reference too (``--smoke`` included).

A tie-heavy point records memory: fat-tree(16) with uniform links,
70 x 90 pairs, hop 5, kernel only, run in a fresh subprocess that
reports its best-of-N seconds and ``peak_rss_mb`` (the process's
maximum resident set, imports included).

Every timed configuration is compared **bit-for-bit** against the
reference: ``np.array_equal`` on the resistance and hop matrices (no
tolerances) and equality of every materialized optimal path. Path
*counts* are additionally checked exhaustively on a pair sample
(``count_paths_kernel`` vs the raw DFS) — the kernel must never prune
on the counting path. Any disagreement makes the script exit non-zero.
The full run gates on the kernel being at least ``--min-speedup``
(default 5x) faster at the k=16 hop-5 point; ``--smoke`` records the
ratio without gating (a 20-node instance cannot amortize the kernel's
bound-DP setup). Results land in ``BENCH_enum.json`` — regenerate
with::

    PYTHONPATH=src python benchmarks/bench_enum_kernel.py

Honest-numbers note: timings come from whatever box runs this; the
recorded ``cpu_count`` and best-of-N protocol make cross-box numbers
comparable but not identical. The baseline is the exact code path the
repo shipped before the kernel: DFS stream into the batched
``np.add.reduceat`` fold, no Path construction per path.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import List

import numpy as np

from repro.obs import get_registry
from repro.routing import Path, count_paths_kernel, enumkernel
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology import LinkUtilizationModel
from repro.topology.fattree import build_fat_tree

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
from tests.oracles import _fold_raw_paths, iter_simple_paths_raw  # noqa: E402


def build_fixture(smoke: bool, seed: int):
    k = 4 if smoke else 16
    topo = build_fat_tree(k)
    LinkUtilizationModel(0.2, 0.8, seed=seed).apply(topo)
    hop_budgets = (3, 4) if smoke else (4, 5)
    n = topo.num_nodes
    # Spread pair sample standing in for a busy x candidate matrix.
    n_src = min(12, n)
    n_dst = min(16, n)
    sources = [int(i) for i in np.linspace(0, n - 1, n_src).astype(int)]
    destinations = [int(i) for i in np.linspace(1, n - 2, n_dst).astype(int)]
    return topo, k, sources, destinations, hop_budgets


def timed(fn, repeats: int) -> float:
    """Best-of-N wall time (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def build_fig11_fixture(seed: int):
    """The busy x candidate shape of a ``fig11_sweep_k8`` unit."""
    k = 8
    topo = build_fat_tree(k)
    LinkUtilizationModel(0.2, 0.8, seed=seed).apply(topo)
    nodes = np.random.default_rng(seed).permutation(topo.num_nodes)
    n_src = min(18, topo.num_nodes // 2)
    sources = [int(i) for i in nodes[:n_src]]
    destinations = [int(i) for i in nodes[n_src : n_src + 22]]
    return topo, k, sources, destinations


#: Live-row cap of the split point: small enough that the uniform-cost
#: call splits down to frontiers of one or two pairs.
SPLIT_CAP = 4


def build_split_fixture():
    """A uniform-cost fat-tree(8) call: every equal-cost path survives."""
    topo = build_fat_tree(8)
    n = topo.num_nodes
    sources = [int(i) for i in np.linspace(0, n - 1, 6).astype(int)]
    destinations = [int(i) for i in np.linspace(1, n - 2, 8).astype(int)]
    return topo, sources, destinations


#: Child of the tie-heavy point: a fresh interpreter importing only what
#: the kernel call needs, so its peak RSS is the call's plus the imports.
_TIE_HEAVY_CHILD = """
import json, resource, sys, time
import numpy as np
from repro.routing.response_time import PathEngine, ResponseTimeModel
from repro.topology.fattree import build_fat_tree

repeats = int(sys.argv[1])
topo = build_fat_tree(16)
n = topo.num_nodes
sources = [int(i) for i in np.linspace(0, n - 1, 70).astype(int)]
destinations = [int(i) for i in np.linspace(1, n - 2, 90).astype(int)]
model = ResponseTimeModel(engine=PathEngine.ENUMERATION, max_hops=5)
best = float("inf")
for _ in range(repeats):
    t0 = time.perf_counter()
    model.resistance_matrix(topo, sources, destinations, with_paths=False)
    best = min(best, time.perf_counter() - t0)
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"kernel_s": best, "peak_rss_mb": peak_kib / 1024.0}))
"""


def tie_heavy_point(repeats: int):
    """Time and peak RSS of the tie-heavy k=16 call, in a fresh process."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", _TIE_HEAVY_CHILD, str(repeats)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    point = json.loads(child.stdout)
    point.update(
        topology="fat-tree k=16", costs="uniform", shape=[70, 90], max_hops=5,
        with_paths=False, repeats=repeats,
    )
    return point


def price_kernel(topo, sources, destinations, max_hops, with_paths=True):
    model = ResponseTimeModel(engine=PathEngine.ENUMERATION, max_hops=max_hops)
    return model.resistance_matrix(topo, sources, destinations, with_paths=with_paths)


def price_reference(topo, sources, destinations, max_hops, with_paths=True):
    """Every pair's full DFS stream through the judge's fold."""
    weights = ResponseTimeModel(max_hops=max_hops).edge_weights(topo)
    R = np.full((len(sources), len(destinations)), np.inf)
    hops = np.full(R.shape, -1, dtype=np.int64)
    paths = {}
    for a, s in enumerate(sources):
        for b, d in enumerate(destinations):
            res, nh, raw = _fold_raw_paths(
                iter_simple_paths_raw(topo, s, d, max_hops), weights
            )
            if raw is not None:
                R[a, b], hops[a, b] = res, nh
                if with_paths:
                    paths[(s, d)] = Path(nodes=raw[0], edges=raw[1])
    return R, hops, paths


def measure_point(
    topo, sources, destinations, max_hops, with_paths, repeats, label, failures
):
    """Bit-compare kernel vs reference, then time both (best-of-N)."""
    args = (topo, sources, destinations, max_hops, with_paths)
    ref_R, ref_hops, ref_paths = price_reference(*args)
    ker_R, ker_hops, ker_paths = price_kernel(*args)
    identical = (
        np.array_equal(ref_R, ker_R)
        and np.array_equal(ref_hops, ker_hops)
        and ref_paths == ker_paths
    )
    if not identical:
        failures.append(f"{label}: kernel result differs from the exhaustive DFS")
    kernel_s = timed(lambda: price_kernel(*args), repeats)
    reference_s = timed(lambda: price_reference(*args), repeats)
    return {
        "max_hops": max_hops,
        "pairs": len(sources) * len(destinations),
        "with_paths": with_paths,
        "kernel_s": kernel_s,
        "reference_s": reference_s,
        "speedup": reference_s / kernel_s if kernel_s else float("inf"),
        "bit_identical": identical,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small fixture (4-k fat-tree), no speedup gate",
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required kernel-vs-reference ratio at the k=16 hop-5 point "
        "(full run only)",
    )
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_enum.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    repeats = 1 if args.smoke else max(1, args.repeats)

    topo, k, sources, destinations, hop_budgets = build_fixture(args.smoke, seed=0)
    failures: List[str] = []
    points = [
        measure_point(
            topo, sources, destinations, h, True, repeats, f"hop {h}", failures
        )
        for h in hop_budgets
    ]
    f_topo, f_k, f_sources, f_destinations = build_fig11_fixture(seed=0)
    fig11_point = measure_point(
        f_topo, f_sources, f_destinations, 5, False, repeats, "fig11 shape", failures
    )
    fig11_point["topology"] = f"fat-tree k={f_k}"
    fig11_point["shape"] = [len(f_sources), len(f_destinations)]

    s_topo, s_sources, s_destinations = build_split_fixture()
    frontiers = get_registry().counter("routing.enum_kernel_calls")
    row_cap = enumkernel._FRONTIER_ROWS
    enumkernel._FRONTIER_ROWS = SPLIT_CAP
    try:
        split_point = measure_point(
            s_topo, s_sources, s_destinations, 5, True, 1, "split frontiers", failures
        )
        calls_before = frontiers.value
        price_kernel(s_topo, s_sources, s_destinations, 5)
        split_point["frontiers_per_call"] = int(frontiers.value - calls_before)
    finally:
        enumkernel._FRONTIER_ROWS = row_cap
    split_point.update(
        topology="fat-tree k=8", costs="uniform", frontier_rows_cap=SPLIT_CAP,
        shape=[len(s_sources), len(s_destinations)],
    )
    if split_point["frontiers_per_call"] <= 1:
        failures.append("split frontiers: the call did not split")

    tie_point = tie_heavy_point(repeats)

    # Exhaustive count parity on a pair sample at the largest budget.
    count_hops = hop_budgets[-1]
    count_checks = 0
    for s in sources[:4]:
        for d in destinations[:4]:
            ref_count = sum(1 for _ in iter_simple_paths_raw(topo, s, d, count_hops))
            if count_paths_kernel(topo, s, d, count_hops) != ref_count:
                failures.append(f"count mismatch for pair ({s}, {d})")
            count_checks += 1

    gate_point = points[-1]
    gated = not args.smoke
    if gated and gate_point["speedup"] < args.min_speedup:
        failures.append(
            f"kernel speedup {gate_point['speedup']:.2f}x at k={k} "
            f"hop {gate_point['max_hops']} is below the "
            f"{args.min_speedup:.1f}x gate"
        )

    report = {
        "bench": "enum_kernel",
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "fixture": {
            "topology": f"fat-tree k={k}",
            "nodes": topo.num_nodes,
            "edges": topo.num_edges,
            "sources": len(sources),
            "destinations": len(destinations),
            "hop_budgets": list(hop_budgets),
            "repeats": repeats,
        },
        "points": points,
        "fig11_shape_point": fig11_point,
        "split_point": split_point,
        "tie_heavy_point": tie_point,
        "count_checks": count_checks,
        "gate_hop": gate_point["max_hops"],
        "speedup_at_gate": gate_point["speedup"],
        "min_speedup_gate": args.min_speedup if gated else None,
        "bit_identical": all(
            p["bit_identical"] for p in points + [fig11_point, split_point]
        ),
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
