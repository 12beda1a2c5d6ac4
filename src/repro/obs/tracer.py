"""Span-based tracer with a ring-buffer recorder and trace exporters.

One placement round decomposes into nested phases — Trmin route pricing
inside ``placement.solve``, the LP solve, the manager's message
exchange, retransmissions under loss — and this tracer records them as
spans so the whole round renders as a single timeline::

    with trace_span("lp.transportation.solve", rows=m, cols=n):
        ...                       # nested trace_span calls nest visibly

Tracing is **off by default** and the disabled path is a single branch:
:func:`trace_span` returns a shared, stateless no-op context manager
without allocating anything (``benchmarks/bench_obs.py`` proves the
cost is nanoseconds per call — see ``BENCH_obs.json``). Enable it with
:meth:`Tracer.enable`, the ``REPRO_TRACE=1`` environment variable, or
the experiment CLI's ``--trace`` flag.

Completed spans land in a bounded ring buffer (oldest evicted first)
and :meth:`Tracer.export_chrome_trace` writes them in the
Chrome/Perfetto ``traceEvents`` JSON format (open in
``chrome://tracing`` or https://ui.perfetto.dev).

Examples
--------
>>> from repro.obs import get_tracer, trace_span
>>> tracer = get_tracer()
>>> tracer.enable()
>>> with trace_span("docs.example", step=1):
...     pass
>>> tracer.records()[-1].name
'docs.example'
>>> tracer.disable(); tracer.clear()
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "trace_span",
    "trace_event",
]


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (or instant event) in the ring buffer.

    Attributes
    ----------
    name :
        Dotted span name, e.g. ``"placement.lp"``.
    start_ns :
        ``time.perf_counter_ns`` at entry.
    duration_ns :
        Wall-clock nanoseconds spent inside the span (0 for events).
    depth :
        Nesting level within the recording thread (0 = top level).
    thread_id :
        ``threading.get_ident()`` of the recording thread.
    tags :
        Caller-supplied key/value annotations.
    phase :
        ``"X"`` for a complete span, ``"i"`` for an instant event —
        mirrors the Chrome-trace phase field.
    """

    name: str
    start_ns: int
    duration_ns: int
    depth: int
    thread_id: int
    tags: Tuple[Tuple[str, object], ...] = ()
    phase: str = "X"


class _NoopSpan:
    """Shared, stateless context manager for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def tag(self, **tags: object) -> None:
        """No-op counterpart of :meth:`_LiveSpan.tag`."""


_NOOP_SPAN = _NoopSpan()


class _LiveSpan:
    """Context manager recording one span into the tracer."""

    __slots__ = ("_tracer", "_name", "_tags", "_start_ns", "_depth")

    def __init__(self, tracer: "Tracer", name: str, tags: Dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._start_ns = 0
        self._depth = 0

    def tag(self, **tags: object) -> None:
        """Attach tags discovered mid-span (e.g. the solve status)."""
        self._tags.update(tags)

    def __enter__(self) -> "_LiveSpan":
        local = self._tracer._local
        self._depth = getattr(local, "depth", 0)
        local.depth = self._depth + 1
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        end_ns = time.perf_counter_ns()
        tracer = self._tracer
        tracer._local.depth = self._depth
        tracer._record(
            SpanRecord(
                name=self._name,
                start_ns=self._start_ns,
                duration_ns=end_ns - self._start_ns,
                depth=self._depth,
                thread_id=threading.get_ident(),
                tags=tuple(self._tags.items()),
            )
        )
        return False


class Tracer:
    """Ring-buffer span recorder.

    Parameters
    ----------
    max_records :
        Ring-buffer capacity; the oldest spans are evicted once full.
    enabled :
        Initial recording state. Defaults to the ``REPRO_TRACE``
        environment variable (any non-empty value other than ``"0"``).

    Notes
    -----
    All methods are thread-safe: spans carry their thread id and the
    buffer append is atomic (``collections.deque``). Nesting depth is
    tracked per thread.
    """

    def __init__(
        self, max_records: int = 65536, enabled: Optional[bool] = None
    ) -> None:
        if enabled is None:
            env = os.environ.get("REPRO_TRACE", "")
            enabled = bool(env) and env != "0"
        self.enabled = bool(enabled)
        self._records: Deque[SpanRecord] = deque(maxlen=max_records)
        self._local = threading.local()

    # -- recording ------------------------------------------------------------
    def span(self, name: str, tags: Optional[Dict[str, object]] = None) -> object:
        """Context manager for one span (no-op while disabled)."""
        if not self.enabled:
            return _NOOP_SPAN
        return _LiveSpan(self, name, dict(tags or {}))

    def event(self, name: str, **tags: object) -> None:
        """Record an instant event (e.g. one retransmission fired)."""
        if not self.enabled:
            return
        self._record(
            SpanRecord(
                name=name,
                start_ns=time.perf_counter_ns(),
                duration_ns=0,
                depth=getattr(self._local, "depth", 0),
                thread_id=threading.get_ident(),
                tags=tuple(tags.items()),
                phase="i",
            )
        )

    def _record(self, record: SpanRecord) -> None:
        self._records.append(record)

    # -- state ----------------------------------------------------------------
    def enable(self) -> None:
        """Start recording."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; the buffer is kept for export."""
        self.enabled = False

    def clear(self) -> None:
        """Drop every buffered record."""
        self._records.clear()

    def records(self) -> List[SpanRecord]:
        """Buffered records, oldest first."""
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    # -- analysis -------------------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-name aggregate: count, total/mean/max seconds."""
        out: Dict[str, Dict[str, float]] = {}
        for record in self._records:
            entry = out.setdefault(
                record.name,
                {"count": 0, "total_s": 0.0, "max_s": 0.0},
            )
            entry["count"] += 1
            entry["total_s"] += record.duration_ns / 1e9
            entry["max_s"] = max(entry["max_s"], record.duration_ns / 1e9)
        for entry in out.values():
            entry["mean_s"] = entry["total_s"] / entry["count"] if entry["count"] else 0.0
        return out

    # -- exporters ------------------------------------------------------------
    def chrome_trace(self) -> Dict[str, object]:
        """The buffer as a Chrome-trace ``traceEvents`` document.

        Timestamps are microseconds relative to the earliest buffered
        record, so the timeline starts at zero regardless of process
        uptime.
        """
        records = self.records()
        t0 = min((r.start_ns for r in records), default=0)
        pid = os.getpid()
        events = []
        for r in records:
            event: Dict[str, object] = {
                "name": r.name,
                "ph": r.phase,
                "ts": (r.start_ns - t0) / 1000.0,
                "pid": pid,
                "tid": r.thread_id,
            }
            if r.phase == "X":
                event["dur"] = r.duration_ns / 1000.0
            if r.tags:
                event["args"] = dict(r.tags)
            if r.phase == "i":
                event["s"] = "t"  # thread-scoped instant marker
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome_trace(self, path: str) -> int:
        """Write :meth:`chrome_trace` as JSON; returns the event count."""
        document = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
            handle.write("\n")
        return len(document["traceEvents"])  # type: ignore[arg-type]


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer (shared with :func:`trace_span`)."""
    return _TRACER


def trace_span(name: str, **tags: object) -> object:
    """Open a span on the global tracer — the primary instrumentation
    entry point.

    Returns a context manager; while tracing is disabled (the default)
    this is a single branch returning a shared no-op object, cheap
    enough for per-solve call sites (not per-pivot loops — those keep
    plain local counters).

    Examples
    --------
    >>> with trace_span("lp.transportation.solve", rows=4, cols=7):
    ...     pass
    """
    tracer = _TRACER
    if not tracer.enabled:
        return _NOOP_SPAN
    return _LiveSpan(tracer, name, tags)


def trace_event(name: str, **tags: object) -> None:
    """Record an instant event on the global tracer (no-op when
    disabled) — used for point occurrences like message retransmits."""
    tracer = _TRACER
    if tracer.enabled:
        tracer.event(name, **tags)
