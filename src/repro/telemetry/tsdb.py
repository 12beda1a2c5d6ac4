"""Time-series database with fixed-capacity ring buffers.

The DUST architecture stores agent metrics in a per-node "Time Series
Database (TSDB)" (Fig. 2). This module implements that store: numpy
ring buffers per series (bounded memory, the property that makes the
monitoring footprint predictable — the ~1.2 GiB of Fig. 6), range
queries and bucketed downsampling.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.errors import TelemetryError

#: Bytes per stored sample: float64 timestamp + float64 value.
BYTES_PER_SAMPLE = 16


def series_key(metric: str, tags: Optional[Mapping[str, str]] = None) -> str:
    """Canonical series identity: ``metric{k=v,k2=v2}`` with sorted tags."""
    if not tags:
        return metric
    inner = ",".join(f"{k}={tags[k]}" for k in sorted(tags))
    return f"{metric}{{{inner}}}"


class Series:
    """One metric stream in a fixed-capacity ring buffer."""

    __slots__ = ("key", "capacity", "_times", "_values", "_head", "_count", "total_appended")

    def __init__(self, key: str, capacity: int) -> None:
        if capacity < 1:
            raise TelemetryError(f"series capacity must be >= 1, got {capacity}")
        self.key = key
        self.capacity = capacity
        self._times = np.zeros(capacity)
        self._values = np.zeros(capacity)
        self._head = 0  # next write slot
        self._count = 0
        self.total_appended = 0

    def append(self, timestamp: float, value: float) -> None:
        """Append one sample; overwrites the oldest when full.

        Timestamps must be non-decreasing (monitoring clocks move
        forward; the simulator guarantees it).
        """
        if self._count:
            last = self._times[(self._head - 1) % self.capacity]
            if timestamp < last:
                raise TelemetryError(
                    f"timestamp {timestamp} is older than last sample {last} "
                    f"in series {self.key!r}"
                )
        self._times[self._head] = timestamp
        self._values[self._head] = value
        self._head = (self._head + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)
        self.total_appended += 1

    def __len__(self) -> int:
        return self._count

    def _ordered(self) -> Tuple[np.ndarray, np.ndarray]:
        """Samples in chronological order (copies)."""
        if self._count < self.capacity:
            idx = np.arange(self._count)
        else:
            idx = (np.arange(self.capacity) + self._head) % self.capacity
        return self._times[idx].copy(), self._values[idx].copy()

    def range(self, start: float = -np.inf, end: float = np.inf) -> Tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t <= end`` in chronological order."""
        times, values = self._ordered()
        mask = (times >= start) & (times <= end)
        return times[mask], values[mask]

    def latest(self) -> Tuple[float, float]:
        """Most recent (timestamp, value); raises when empty."""
        if not self._count:
            raise TelemetryError(f"series {self.key!r} is empty")
        idx = (self._head - 1) % self.capacity
        return float(self._times[idx]), float(self._values[idx])

    def memory_bytes(self) -> int:
        """Buffer memory footprint (capacity, not fill, drives it)."""
        return self.capacity * BYTES_PER_SAMPLE


_AGGREGATORS: Dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda a: float(np.mean(a)),
    "max": lambda a: float(np.max(a)),
    "min": lambda a: float(np.min(a)),
    "sum": lambda a: float(np.sum(a)),
    "last": lambda a: float(a[-1]),
    "count": lambda a: float(a.size),
}


class TimeSeriesDatabase:
    """Per-node TSDB: named ring-buffer series."""

    def __init__(self, name: str = "tsdb", default_capacity: int = 4096) -> None:
        if default_capacity < 1:
            raise TelemetryError(f"default capacity must be >= 1, got {default_capacity}")
        self.name = name
        self.default_capacity = default_capacity
        self._series: Dict[str, Series] = {}

    # -- series management ---------------------------------------------------------
    def create_series(
        self,
        metric: str,
        tags: Optional[Mapping[str, str]] = None,
        capacity: Optional[int] = None,
    ) -> Series:
        """Create (or return existing) series for ``metric``/``tags``."""
        key = series_key(metric, tags)
        if key not in self._series:
            self._series[key] = Series(key, capacity or self.default_capacity)
        return self._series[key]

    def series(self, metric: str, tags: Optional[Mapping[str, str]] = None) -> Series:
        key = series_key(metric, tags)
        try:
            return self._series[key]
        except KeyError:
            raise TelemetryError(f"unknown series {key!r} in TSDB {self.name!r}") from None

    def has_series(self, metric: str, tags: Optional[Mapping[str, str]] = None) -> bool:
        return series_key(metric, tags) in self._series

    @property
    def series_keys(self) -> Tuple[str, ...]:
        return tuple(self._series)

    def drop_series(self, metric: str, tags: Optional[Mapping[str, str]] = None) -> None:
        """Remove a series (frees its buffer); missing series is an error."""
        key = series_key(metric, tags)
        if key not in self._series:
            raise TelemetryError(f"unknown series {key!r} in TSDB {self.name!r}")
        del self._series[key]

    # -- writes ----------------------------------------------------------------------
    def append(
        self,
        metric: str,
        timestamp: float,
        value: float,
        tags: Optional[Mapping[str, str]] = None,
    ) -> None:
        """Append to a series, creating it on first write."""
        self.create_series(metric, tags).append(timestamp, value)

    # -- queries -----------------------------------------------------------------------
    def query(
        self,
        metric: str,
        start: float = -np.inf,
        end: float = np.inf,
        tags: Optional[Mapping[str, str]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw samples of one series in ``[start, end]``."""
        return self.series(metric, tags).range(start, end)

    def aggregate(
        self,
        metric: str,
        aggregate: str,
        start: float = -np.inf,
        end: float = np.inf,
        tags: Optional[Mapping[str, str]] = None,
    ) -> float:
        """Scalar aggregate over a time range (``nan`` when empty)."""
        try:
            fn = _AGGREGATORS[aggregate]
        except KeyError:
            raise TelemetryError(
                f"unknown aggregate {aggregate!r}; expected one of {sorted(_AGGREGATORS)}"
            ) from None
        _, values = self.query(metric, start, end, tags)
        if values.size == 0:
            return float("nan")
        return fn(values)

    def downsample(
        self,
        metric: str,
        bucket_s: float,
        aggregate: str = "mean",
        start: float = -np.inf,
        end: float = np.inf,
        tags: Optional[Mapping[str, str]] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bucketed aggregation: returns (bucket_start_times, values).

        This is the in-situ compression step the architecture performs
        before federating data upstream.
        """
        if bucket_s <= 0:
            raise TelemetryError(f"bucket width must be positive, got {bucket_s}")
        if aggregate not in _AGGREGATORS:
            raise TelemetryError(f"unknown aggregate {aggregate!r}")
        times, values = self.query(metric, start, end, tags)
        if times.size == 0:
            return np.zeros(0), np.zeros(0)
        buckets = np.floor(times / bucket_s).astype(np.int64)
        fn = _AGGREGATORS[aggregate]
        uniq = np.unique(buckets)
        out_t = uniq.astype(float) * bucket_s
        out_v = np.array([fn(values[buckets == b]) for b in uniq])
        return out_t, out_v

    # -- accounting ------------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Total buffer memory across series."""
        return sum(s.memory_bytes() for s in self._series.values())

    def total_samples(self) -> int:
        return sum(s.total_appended for s in self._series.values())
