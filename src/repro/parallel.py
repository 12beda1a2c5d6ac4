"""Worker-pool plumbing for the sharded experiment sweeps (fig10–12);
nothing under ``core/``, ``routing/`` or ``lp/`` uses it.

One knob controls everything: the ``REPRO_WORKERS`` environment
variable (or an explicit ``workers=`` argument, which wins). The
resolution heuristic is deliberately conservative — parallelism only
engages when the caller has more than one independent task and more
than one core is available, so small problems keep their serial
(zero-overhead, trivially deterministic) code path.

Process pools are preferred because the solver hot loops are largely
Python (GIL-bound); the ``fork`` start method is used when the platform
offers it. Payloads stay small — a sweep point carries its scale
parameters and seed, and each worker builds its own topology through
the fat-tree blueprint LRU. Environments where process pools cannot
start (restricted sandboxes) fall back to threads, and ultimately the
callers themselves fall back to serial execution.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import ReproError

#: Environment variable consulted when no explicit worker count is given.
ENV_WORKERS = "REPRO_WORKERS"

T = TypeVar("T")


class ParallelismError(ReproError):
    """Raised for malformed worker configuration (e.g. REPRO_WORKERS=x)."""


def resolve_workers(
    workers: Optional[int] = None, task_count: Optional[int] = None
) -> int:
    """Resolve the effective worker count (always >= 1).

    Priority: explicit ``workers`` argument > ``REPRO_WORKERS``
    environment variable > ``os.cpu_count()``. The result is clamped to
    ``task_count`` — there is no point spawning more workers than
    independent tasks.
    """
    if workers is None:
        env = os.environ.get(ENV_WORKERS)
        if env is not None and env.strip():
            try:
                workers = int(env)
            except ValueError:
                raise ParallelismError(
                    f"{ENV_WORKERS} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    workers = max(int(workers), 1)
    if task_count is not None:
        workers = min(workers, max(int(task_count), 1))
    return workers


def make_executor(workers: int) -> Executor:
    """Build a process pool, preferring the ``fork`` start method."""
    try:
        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
        else:
            context = multiprocessing.get_context()
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)
    except (OSError, PermissionError, ValueError):
        # Pool machinery unavailable (restricted sandbox): degrade to
        # threads — correctness is unaffected, only speed.
        return ThreadPoolExecutor(max_workers=workers)


def _call_with_metrics(args):
    """Worker-side shim: run one task and capture the registry delta and
    the span records it produced, so the parent can fold both back in."""
    fn, payload = args
    from repro.obs import get_registry, get_tracer

    registry = get_registry()
    tracer = get_tracer()
    baseline = registry.snapshot()
    start_ns = time.perf_counter_ns()
    result = fn(payload)
    spans = [r for r in tracer.records() if r.start_ns >= start_ns] if tracer.enabled else []
    return result, registry.collect_delta(baseline), spans


def map_with_pool_retry(
    fn: Callable[..., T],
    payloads: Sequence,
    workers: int,
    collect_metrics: bool = False,
) -> Optional[List[T]]:
    """``pool.map`` that survives worker death.

    A ``BrokenProcessPool`` (a worker was OOM-killed or segfaulted)
    poisons the whole executor, so the pending round would otherwise
    crash with it. This helper rebuilds the pool once and replays the
    full payload list — tasks are pure functions of their payloads, so
    a replay is safe. Returns ``None`` when the retry also fails (or
    the pool cannot run at all): callers keep their existing serial
    fallback, which is always correct, just slower.

    With ``collect_metrics=True`` each task also snapshots the worker's
    :mod:`repro.obs` registry before/after and ships the delta home,
    with the spans the task recorded while tracing is on; the parent
    merges deltas and spans whose pid differs from its own, the spans
    tagged with the worker's pid. (The pid guard matters: when
    :func:`make_executor` silently degrades to threads, the "workers"
    share the parent registry and tracer and their increments and spans
    already landed — merging them again would double count.)
    """
    if collect_metrics:
        call: Callable = _call_with_metrics
        items: Sequence = [(fn, payload) for payload in payloads]
    else:
        call, items = fn, payloads
    for attempt in range(2):
        try:
            with make_executor(workers) as pool:
                results = list(pool.map(call, items))
            if not collect_metrics:
                return results
            from repro.obs import get_registry, get_tracer

            registry = get_registry()
            tracer = get_tracer()
            own_pid = os.getpid()
            unpacked: List[T] = []
            for result, delta, spans in results:
                if delta.get("pid") != own_pid:
                    registry.merge_delta(delta)
                    tracer.merge(spans, pid=delta["pid"])
                unpacked.append(result)
            return unpacked
        except BrokenExecutor:
            # Worker death; one rebuild, then give up to the caller.
            # (Must precede RuntimeError: BrokenExecutor subclasses it.)
            if attempt == 1:
                return None
        except (OSError, PermissionError, RuntimeError, pickle.PicklingError):
            return None
    return None
