"""Unified observability layer: metrics registry, tracer, JSON bundle.

``repro.obs`` is the one place every layer of this codebase reports
into. It is stdlib-only (importable from anywhere without cycles) and
free when idle: with tracing disabled a :func:`trace_span` call is a
single branch returning a shared no-op object, and the registry is
untouched by hot loops (they keep local counters and mirror totals in
at call granularity).

Three cooperating pieces:

* **Metrics registry** (:mod:`repro.obs.registry`) — process-wide named
  counters / gauges / histograms with snapshot, delta-collect and merge
  semantics so totals survive the process-pool fan-out in
  :func:`repro.parallel.map_with_pool_retry`. The full metric catalog
  is declared in :mod:`repro.obs.catalog` and documented (and
  CI-checked) in ``docs/observability.md``.
* **Tracer** (:mod:`repro.obs.tracer`) — span-based timeline recorder
  with a Chrome-trace exporter; one placement round (Trmin pricing →
  LP solve → message exchange → convergence) renders as a single
  nested timeline.
* **JSON bundle** (:mod:`repro.obs.profiling`) —
  :func:`observability_artifact`, the metrics snapshot, span summary
  and process profile embedded in ``--json`` artifacts.

Examples
--------
Count an event and read it back:

>>> from repro.obs import get_registry
>>> get_registry().counter("example.hits", owner="docs").inc()
>>> get_registry().value("example.hits") >= 1
True

Trace a phase (tracing is off by default; enable explicitly, with
``REPRO_TRACE=1``, or via the experiment CLI's ``--trace``):

>>> from repro.obs import get_tracer, trace_span
>>> get_tracer().enable()
>>> with trace_span("example.phase", size=3):
...     pass
>>> get_tracer().records()[-1].name
'example.phase'
>>> get_tracer().disable(); get_tracer().clear()
"""

from repro.obs.adapters import (
    CLIENT_MIRROR,
    FAULTY_NETWORK_MIRROR,
    MANAGER_COUNTERS_MIRROR,
    NETWORK_MIRROR,
    mirror_counters,
)
from repro.obs.catalog import CATALOG, register_catalog
from repro.obs.profiling import observability_artifact, profile_snapshot
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    get_registry,
)
from repro.obs.tracer import (
    SpanRecord,
    Tracer,
    get_tracer,
    trace_event,
    trace_span,
)

__all__ = [
    # registry
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "get_registry",
    # tracer
    "SpanRecord",
    "Tracer",
    "get_tracer",
    "trace_span",
    "trace_event",
    # JSON bundle
    "profile_snapshot",
    "observability_artifact",
    # catalog
    "CATALOG",
    "register_catalog",
    # adapters
    "mirror_counters",
    "MANAGER_COUNTERS_MIRROR",
    "CLIENT_MIRROR",
    "NETWORK_MIRROR",
    "FAULTY_NETWORK_MIRROR",
]

# The catalog exists (at zero) the moment the package is imported, so
# docs/registry cross-checks and artifact snapshots are complete even
# for code paths that never ran.
register_catalog()
