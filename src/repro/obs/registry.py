"""Process-wide metrics registry: named counters, gauges and histograms.

The registry is the single source of truth for every quantitative
signal this package emits — solver activity (``trmin.*``, ``lp.*``,
``placement.*``), control-plane protocol activity (``manager.*``,
``client.*``), transport behaviour (``network.*``, ``transport.*``)
and recovery machinery (``failover.*``, ``chaos.*``). The full catalog,
with units and owning modules, lives in ``docs/observability.md``; a CI
check keeps that document and this registry in lockstep.

Design constraints, in order:

1. **zero dependencies** — stdlib only, importable from any layer
   without cycles;
2. **cheap** — instruments are plain attribute updates under one
   re-entrant lock; hot loops keep their own local counters (e.g.
   :class:`~repro.routing.engine.EngineStats`) and mirror them in at
   call granularity via :meth:`Counter.set_max`;
3. **mergeable** — a process-pool worker collects the *delta* its task
   produced (:meth:`MetricsRegistry.collect_delta`) and the parent
   folds it back in (:meth:`MetricsRegistry.merge_delta`), so metrics
   survive the fan-out in :func:`repro.parallel.map_with_pool_retry`.

Examples
--------
>>> from repro.obs import get_registry
>>> reg = get_registry()
>>> c = reg.counter("example.events", unit="count", owner="docs")
>>> c.inc()
>>> reg.value("example.events") >= 1
True
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]


class MetricError(ValueError):
    """Raised for conflicting registrations or unknown metric names."""


class _Instrument:
    """Common base: name, unit, owner, description, shared lock."""

    kind = "instrument"

    def __init__(
        self, name: str, unit: str, owner: str, description: str, lock: threading.RLock
    ) -> None:
        self.name = name
        self.unit = unit
        self.owner = owner
        self.description = description
        self._lock = lock


class Counter(_Instrument):
    """Monotonically non-decreasing count.

    Two update styles coexist:

    * :meth:`inc` — direct increments from the owning code path
      (e.g. one retransmission fired);
    * :meth:`set_max` — mirroring an external cumulative counter (a
      dataclass field like ``ManagerCounters.acks_sent``) without
      double-counting: the stored value only ever moves up to the
      mirrored total.
    """

    kind = "counter"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0)."""
        if amount < 0:
            raise MetricError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self._value += amount

    def set_max(self, value: float) -> None:
        """Raise the stored value to ``value`` if it is higher (mirror
        of an external cumulative counter; never decreases)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def _snapshot(self) -> Dict[str, float]:
        return {"value": self._value}

    def _merge(self, delta: Mapping[str, float]) -> None:
        self.inc(float(delta.get("value", 0.0)))

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Gauge(_Instrument):
    """Point-in-time value (last write wins)."""

    kind = "gauge"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def _snapshot(self) -> Dict[str, float]:
        return {"value": self._value}

    def _merge(self, delta: Mapping[str, float]) -> None:
        self.set(float(delta.get("value", 0.0)))

    def _reset(self) -> None:
        with self._lock:
            self._value = 0.0


class Histogram(_Instrument):
    """Streaming summary of observations: count, sum, min, max, mean.

    Deliberately bucket-free — the consumers here (bench reports,
    experiment artifacts) want per-phase totals and extremes, and a
    four-float summary merges exactly across threads and pool workers.
    """

    kind = "histogram"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value

    def observe_many(self, values: Iterable[float]) -> None:
        """Record each of ``values``, in order, under one lock: what as
        many :meth:`observe` calls would record. ``total`` is summed left
        to right, as they sum it (the builtin ``sum`` compensates float
        sums from Python 3.12)."""
        values = [float(value) for value in values]
        with self._lock:
            total = self.total
            for value in values:
                total += value
            self.total = total
            self.count += len(values)
            # ``min``/``max`` replace their pick on ``<``/``>``, as
            # ``observe`` does, starting from the kept extremes.
            self.minimum = min(itertools.chain((self.minimum,), values))
            self.maximum = max(itertools.chain((self.maximum,), values))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else float("nan")

    @property
    def value(self) -> float:
        """The mean — so ``registry.value(name)`` works uniformly."""
        return self.mean

    def _snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    def _merge(self, delta: Mapping[str, float]) -> None:
        with self._lock:
            self.count += int(delta.get("count", 0))
            self.total += float(delta.get("total", 0.0))
            self.minimum = min(self.minimum, float(delta.get("min", float("inf"))))
            self.maximum = max(self.maximum, float(delta.get("max", float("-inf"))))

    def _reset(self) -> None:
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.minimum = float("inf")
            self.maximum = float("-inf")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named instrument store with idempotent registration.

    Registering the same name twice returns the existing instrument;
    registering it with a *different* kind raises :class:`MetricError`
    (a name means one thing, forever — that is what makes the metric
    catalog checkable).

    Parameters
    ----------
    name :
        Label included in snapshots (purely informational; the default
        process-wide registry is named ``"default"``).
    """

    def __init__(self, name: str = "default") -> None:
        self.name = name
        self._lock = threading.RLock()
        self._metrics: Dict[str, _Instrument] = {}

    # -- registration ---------------------------------------------------------
    def _register(
        self, kind: str, name: str, unit: str, owner: str, description: str
    ) -> _Instrument:
        # Fast path: repeat lookups of an existing metric skip name
        # validation and the lock (dict reads are atomic in CPython).
        existing = self._metrics.get(name)
        if existing is not None and existing.kind == kind:
            return existing
        if not name or any(ch.isspace() for ch in name):
            raise MetricError(f"invalid metric name {name!r}")
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise MetricError(
                        f"metric {name!r} already registered as {existing.kind}, "
                        f"cannot re-register as {kind}"
                    )
                return existing
            metric = _KINDS[kind](name, unit, owner, description, self._lock)
            self._metrics[name] = metric
            return metric

    def counter(
        self, name: str, unit: str = "count", owner: str = "", description: str = ""
    ) -> Counter:
        """Register (or fetch) the counter ``name``."""
        return self._register("counter", name, unit, owner, description)  # type: ignore[return-value]

    def gauge(
        self, name: str, unit: str = "value", owner: str = "", description: str = ""
    ) -> Gauge:
        """Register (or fetch) the gauge ``name``."""
        return self._register("gauge", name, unit, owner, description)  # type: ignore[return-value]

    def histogram(
        self, name: str, unit: str = "seconds", owner: str = "", description: str = ""
    ) -> Histogram:
        """Register (or fetch) the histogram ``name``."""
        return self._register("histogram", name, unit, owner, description)  # type: ignore[return-value]

    # -- lookup ---------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        """All registered metric names, sorted."""
        return sorted(self._metrics)

    def get(self, name: str) -> Optional[_Instrument]:
        return self._metrics.get(name)

    def value(self, name: str) -> float:
        """Current value of ``name`` (histograms report their mean)."""
        metric = self._metrics.get(name)
        if metric is None:
            raise MetricError(f"unknown metric {name!r}")
        return metric.value

    # -- snapshots & merging --------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Serializable dump of every metric's current state.

        The result is a plain dict (JSON-safe apart from infinities in
        empty histograms) tagged with the producing ``pid`` so pool
        merge logic can tell a forked worker's snapshot from its own.
        """
        with self._lock:
            return {
                "registry": self.name,
                "pid": os.getpid(),
                "metrics": {
                    name: dict(m._snapshot(), kind=m.kind, unit=m.unit, owner=m.owner)
                    for name, m in self._metrics.items()
                },
            }

    def collect_delta(self, baseline: Mapping[str, object]) -> Dict[str, object]:
        """What changed since ``baseline`` (a prior :meth:`snapshot`).

        Counter and histogram deltas are exact differences; gauges
        report their current value (last-write-wins has no meaningful
        delta). Metrics absent from the baseline contribute their full
        state. Used by pool workers: the fork inherited the parent's
        totals, so only the task's own contribution must travel back.
        """
        base: Mapping[str, Mapping[str, float]] = baseline.get("metrics", {})  # type: ignore[assignment]
        delta: Dict[str, object] = {"pid": os.getpid(), "metrics": {}}
        with self._lock:
            for name, metric in self._metrics.items():
                snap = metric._snapshot()
                prior = base.get(name, {})
                if metric.kind == "counter":
                    d = snap["value"] - float(prior.get("value", 0.0))
                    if d <= 0:
                        continue
                    entry = {"value": d}
                elif metric.kind == "gauge":
                    if snap["value"] == float(prior.get("value", 0.0)):
                        continue
                    entry = {"value": snap["value"]}
                else:  # histogram
                    d_count = snap["count"] - int(prior.get("count", 0))
                    if d_count <= 0:
                        continue
                    # min/max cannot be differenced; the cumulative
                    # extremes are merge-safe as-is (min/max are
                    # idempotent under re-merging).
                    entry = {
                        "count": d_count,
                        "total": snap["total"] - float(prior.get("total", 0.0)),
                        "min": snap["min"],
                        "max": snap["max"],
                    }
                entry.update(kind=metric.kind, unit=metric.unit, owner=metric.owner)
                delta["metrics"][name] = entry  # type: ignore[index]
        return delta

    def merge_delta(self, delta: Mapping[str, object]) -> None:
        """Fold a :meth:`collect_delta` result into this registry.

        Unknown metrics are registered on the fly from the metadata the
        delta carries, so a worker may legitimately be the first to
        touch a metric.
        """
        for name, entry in delta.get("metrics", {}).items():  # type: ignore[union-attr]
            kind = entry.get("kind", "counter")
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._register(
                    kind, name, entry.get("unit", ""), entry.get("owner", ""), ""
                )
            elif metric.kind != kind:
                raise MetricError(
                    f"cannot merge {kind} delta into {metric.kind} {name!r}"
                )
            metric._merge(entry)

    def reset(self) -> None:
        """Zero every value; registrations (the catalog) are kept."""
        with self._lock:
            for metric in self._metrics.values():
                metric._reset()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every layer publishes into."""
    return _REGISTRY
