"""Prove the observability layer is free when idle.

Three measurements, written to ``BENCH_obs.json``:

1. **no-op span microbench** — ns per disabled :func:`trace_span` call
   (the single-branch fast path) and, for contrast, per enabled call;
2. **registry update microbench** — ns per ``Counter.inc`` /
   ``Histogram.observe`` (the locked slow path instrumented call sites
   actually pay);
3. **real-workload overhead** — on a Trmin pricing op and a whole
   ``PlacementEngine.solve`` (pricing + LP) of a fat-tree state, count
   the instrumentation touches one operation performs (spans recorded
   with the tracer forced on; registry updates counted with bench-local
   wrappers) and price them at the measured unit costs. The estimated
   disabled-instrumentation overhead must stay **under 3%** of the
   operation's wall time or the script exits non-zero (CI runs
   ``--smoke``).

Regenerate with::

    PYTHONPATH=src python benchmarks/bench_obs.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.placement import PlacementEngine, PlacementProblem
from repro.core.thresholds import ThresholdPolicy
from repro.experiments.common import IterationSampler
from repro.obs import MetricsRegistry, get_tracer, trace_span
from repro.obs import registry as registry_module
from repro.routing import PathEngine, ResponseTimeModel, TrminEngine
from repro.topology import LinkUtilizationModel, NodeKind, build_fat_tree

#: Acceptance ceiling for disabled-instrumentation overhead.
MAX_OVERHEAD_PCT = 3.0


def timed_best(
    fn: Callable[[], object],
    repeats: int,
    prepare: Optional[Callable[[], None]] = None,
) -> float:
    """Fastest of ``repeats`` calls of ``fn``, each after an untimed
    ``prepare()`` when one is given."""
    best = float("inf")
    for _ in range(repeats):
        if prepare is not None:
            prepare()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- unit costs ---------------------------------------------------------------------
def bench_disabled_span(calls: int) -> float:
    """ns per ``trace_span`` call with the tracer disabled."""
    tracer = get_tracer()
    assert not tracer.enabled, "tracer must be disabled for the no-op bench"
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        with trace_span("bench.noop"):
            pass
    return (time.perf_counter_ns() - t0) / calls


def bench_enabled_span(calls: int) -> float:
    """ns per recorded span (for contrast; not part of the gate)."""
    tracer = get_tracer()
    tracer.enable()
    try:
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            with trace_span("bench.live"):
                pass
        return (time.perf_counter_ns() - t0) / calls
    finally:
        tracer.disable()
        tracer.clear()


def bench_registry_update(calls: int) -> Tuple[float, float]:
    """(counter-inc ns, histogram-observe ns) on a scratch registry."""
    scratch = MetricsRegistry("bench")
    counter = scratch.counter("bench.c")
    hist = scratch.histogram("bench.h")
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        counter.inc()
    inc_ns = (time.perf_counter_ns() - t0) / calls
    t0 = time.perf_counter_ns()
    for _ in range(calls):
        hist.observe(1.0)
    observe_ns = (time.perf_counter_ns() - t0) / calls
    return inc_ns, observe_ns


# -- instrumentation census ---------------------------------------------------------
def count_touches(op: Callable[[], object]) -> Tuple[int, int]:
    """(spans recorded, registry updates) one ``op()`` performs.

    Spans are counted with the tracer forced on; registry updates with
    bench-local wrappers around the instrument methods. Both are
    restored before returning.
    """
    updates = {"n": 0}
    originals = {
        "inc": registry_module.Counter.inc,
        "set_max": registry_module.Counter.set_max,
        "observe": registry_module.Histogram.observe,
        "set": registry_module.Gauge.set,
    }

    def wrap(name):
        orig = originals[name]

        def wrapped(self, *args, **kwargs):
            updates["n"] += 1
            return orig(self, *args, **kwargs)

        return wrapped

    tracer = get_tracer()
    registry_module.Counter.inc = wrap("inc")
    registry_module.Counter.set_max = wrap("set_max")
    registry_module.Histogram.observe = wrap("observe")
    registry_module.Gauge.set = wrap("set")
    tracer.enable()
    tracer.clear()
    try:
        op()
        spans = len(tracer.records())
    finally:
        tracer.disable()
        tracer.clear()
        registry_module.Counter.inc = originals["inc"]
        registry_module.Counter.set_max = originals["set_max"]
        registry_module.Histogram.observe = originals["observe"]
        registry_module.Gauge.set = originals["set"]
    return spans, updates["n"]


# -- workloads ----------------------------------------------------------------------
def trmin_workload(smoke: bool) -> Callable[[], object]:
    """One pricing op: a resistance_matrix sweep."""
    k = 4 if smoke else 8
    topo = build_fat_tree(k)
    LinkUtilizationModel(0.2, 0.8, seed=0).apply(topo)
    edge = topo.nodes_of_kind(NodeKind.EDGE_SWITCH)
    sources, destinations = edge[: k], edge[-k:]
    model = ResponseTimeModel(engine=PathEngine.ENUMERATION, max_hops=4)
    engine = TrminEngine(model)
    return lambda: engine.resistance_matrix(topo, sources, destinations)


def placement_solve_workload(
    smoke: bool,
) -> Tuple[Callable[[], None], Callable[[], object]]:
    """One Eq.-3 op: ``PlacementEngine.solve`` (pricing + LP) of one state.

    Returns ``(prepare, op)``. ``prepare`` writes the same link state back
    and rebuilds the problem, so each op prices its rows anew instead of
    reading the ones the topology kept from the op before."""
    k = 4 if smoke else 8
    policy = ThresholdPolicy(c_max=80.0, co_max=35.0, x_min=10.0)
    topo = build_fat_tree(k)
    sampler = IterationSampler(topo, x_min=policy.x_min, seed=0)
    for _, capacities in sampler.states(200):
        problem = PlacementProblem.from_loads(topo, capacities, policy)
        if len(problem.busy) < 2 or len(problem.candidates) < 4:
            continue
        if problem.cs.sum() <= problem.cd.sum():
            break
    else:
        raise RuntimeError("no feasible busy/candidate split sampled")
    engine = PlacementEngine(
        response_model=ResponseTimeModel(engine=PathEngine.DP, max_hops=None),
        with_routes=False,
    )
    current = [problem]

    def prepare() -> None:
        topo.set_link_utilizations(topo.to_arrays().utilization)
        current[0] = PlacementProblem.from_loads(topo, capacities, policy)

    return prepare, lambda: engine.solve(current[0])


def bench_workload(
    name: str,
    op: Callable[[], object],
    repeats: int,
    unit: Dict[str, float],
    failures: List[str],
    prepare: Optional[Callable[[], None]] = None,
) -> Dict:
    if prepare is not None:
        prepare()
    spans, updates = count_touches(op)
    op_s = timed_best(op, repeats, prepare)
    overhead_ns = spans * unit["disabled_span_ns"] + updates * max(
        unit["counter_inc_ns"], unit["histogram_observe_ns"]
    )
    overhead_pct = 100.0 * overhead_ns / (op_s * 1e9) if op_s > 0 else 0.0
    if overhead_pct >= MAX_OVERHEAD_PCT:
        failures.append(
            f"{name}: disabled-instrumentation overhead {overhead_pct:.2f}% "
            f">= {MAX_OVERHEAD_PCT}%"
        )
    return {
        "op_seconds": op_s,
        "spans_per_op": spans,
        "registry_updates_per_op": updates,
        "estimated_overhead_ns_per_op": overhead_ns,
        "estimated_overhead_pct": overhead_pct,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small fixtures + fewer calls, finishes well under 60 s",
    )
    parser.add_argument("--repeats", type=int, default=5, help="best-of-N timing")
    parser.add_argument(
        "--output",
        default=os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json"),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    calls = 50_000 if args.smoke else 500_000
    repeats = 2 if args.smoke else max(1, args.repeats)

    inc_ns, observe_ns = bench_registry_update(calls)
    unit = {
        "disabled_span_ns": bench_disabled_span(calls),
        "enabled_span_ns": bench_enabled_span(calls),
        "counter_inc_ns": inc_ns,
        "histogram_observe_ns": observe_ns,
    }

    failures: List[str] = []
    placement_prepare, placement_op = placement_solve_workload(args.smoke)
    report = {
        "bench": "obs_overhead",
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "unit_costs_ns": unit,
        "workloads": {
            "trmin_pricing": bench_workload(
                "trmin_pricing", trmin_workload(args.smoke), repeats, unit, failures
            ),
            "placement_solve": bench_workload(
                "placement_solve",
                placement_op,
                repeats,
                unit,
                failures,
                prepare=placement_prepare,
            ),
        },
        "failures": failures,
    }
    output = os.path.abspath(args.output)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    print(f"disabled span: {unit['disabled_span_ns']:.0f} ns"
          f" (enabled: {unit['enabled_span_ns']:.0f} ns)")
    for name, data in report["workloads"].items():
        print(
            f"{name}: {data['spans_per_op']} spans + "
            f"{data['registry_updates_per_op']} updates per "
            f"{data['op_seconds'] * 1e3:.2f} ms op -> "
            f"{data['estimated_overhead_pct']:.3f}% overhead"
        )
    print(f"report written to {output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
