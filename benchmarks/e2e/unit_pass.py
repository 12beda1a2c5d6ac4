"""One pass of one workload in a fresh process (spawned by run.py).

Set-up and warm-up units first, then ``gc.collect(); gc.freeze()``,
then the measured units, each timed on its own. Prints one JSON object
on the last line of stdout; writes nothing unless ``--out`` is given.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse
import gc
import heapq
import json
import os
import resource
import sys
import traceback


class HostProbe:
    """A fixed, allocation-light loop (~0.25 ms) of what the program is
    made of — interpreter arithmetic, small-object and heap churn, short
    NumPy calls: a reading of the host, not of the program. A burst of
    it brackets every timed unit, so a unit's time can also be stated
    at a reference host speed (metrics.REFERENCE_PROBE_MS)."""

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._block = np.arange(2048, dtype=np.float64)
        self._scratch = np.empty_like(self._block)
        self.samples_ms: list = []

    def burst(self, reps: int = 12) -> float:
        """Median milliseconds per repetition over ``reps`` repetitions."""
        np, block, scratch = self._np, self._block, self._scratch
        push, pop = heapq.heappush, heapq.heappop
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            acc = 0.0
            for i in range(1_500):
                acc += i * 0.5
            heap, table = [], {}
            for i in range(150):
                item = (i * 7 % 101, i)
                push(heap, item)
                table[i] = {"seq": item}
            while heap:
                pop(heap)
            for _ in range(25):
                np.multiply(block, 1.0001, out=scratch)
                acc += float(scratch.sum())
            samples.append((time.perf_counter() - start) * 1e3)
        self.samples_ms.extend(samples)
        samples.sort()
        return 0.5 * (samples[(reps - 1) // 2] + samples[reps // 2])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--warmup", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", default=None, help="directory for the Chrome trace")
    parser.add_argument(
        "--t0", type=float, default=_PROCESS_START,
        help="perf_counter() of the parent just before it spawned this process",
    )
    args = parser.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    recorder = undo = None
    if args.traced:
        import spans

        recorder = spans.Recorder()
        undo = spans.install(recorder)
    try:
        result = _run(args, workloads, recorder)
    finally:
        if undo is not None:
            spans.restore(undo)
    if recorder is not None and args.out:
        os.makedirs(args.out, exist_ok=True)
        recorder.write_chrome_trace(
            os.path.join(args.out, f"{args.workload}.trace.json"), args.t0
        )
    print(json.dumps(result))
    return 0


def _run(args, workloads, recorder) -> dict:
    workload = workloads.build(args.workload, args.seed, args.smoke)
    workload.setup()
    errors = []

    probe = HostProbe()

    def run_unit(u: int, measured_index: int):
        workload.prepare(u)
        before = probe.burst() if measured_index >= 0 else 0.0
        if recorder is not None:
            recorder.unit = measured_index
        start = time.perf_counter()
        try:
            workload.unit(u)
        finally:
            elapsed = time.perf_counter() - start
            if recorder is not None:
                recorder.unit = -1
        host_ms = 0.5 * (before + probe.burst()) if measured_index >= 0 else 0.0
        workload.after(u)
        return elapsed, host_ms

    for u in range(args.warmup):
        run_unit(u, -1)
    workload.start_measuring()
    # GC stays on while measuring; what set-up left behind is collected
    # once and frozen so it is not re-scanned inside timed units.
    gc.collect()
    gc.freeze()
    setup_s = time.perf_counter() - args.t0

    # Per measured unit: seconds, and the host-probe reading (ms per
    # repetition) taken right around it; None for a unit that failed.
    unit_s, probe_ms, failed = [], [], 0
    for index in range(args.units):
        u = args.warmup + index
        try:
            elapsed, host_ms = run_unit(u, index)
            unit_s.append(elapsed)
            probe_ms.append(host_ms)
        except Exception:
            failed += 1
            unit_s.append(None)
            probe_ms.append(None)
            errors.append(f"unit {u}: {traceback.format_exc(limit=4)}")
    finished = workload.finish()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "unit_s": unit_s,
        "failed": failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "probe_ms": probe_ms,
        "probe_min_ms": min(probe.samples_ms, default=0.0),
        **finished,
    }
    if recorder is not None:
        import metrics

        build_id = recorder.name_id("topology.build")
        summary = recorder.summarize()
        result["layers"] = metrics.layer_metrics(
            summary,
            recorder.counts,
            recorder.facts,
            finished["extras"],
            [s for s in unit_s if s is not None],
            [end - start for _, nid, start, end, _, _ in recorder.rows if nid == build_id],
        )
        # Public report timings are taken inside the wrapper's span, so
        # they can never exceed it; a violation means the wrappers sit
        # on the wrong callables.
        placement_s = summary.get("core.placement.solve", {}).get("total_s", 0.0)
        reported = recorder.counts.get("report.total_s", 0.0)
        result["report_within_span"] = bool(
            recorder.counts.get("report.trmin_s", 0.0) + recorder.counts.get("report.lp_s", 0.0)
            <= reported * (1 + 1e-9) + 1e-9
            and reported <= placement_s * (1 + 1e-9) + 1e-9
        )
    return result


if __name__ == "__main__":
    sys.exit(main())
