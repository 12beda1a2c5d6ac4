"""Time-series database with fixed-capacity ring buffers.

The DUST architecture stores agent metrics in a per-node "Time Series
Database (TSDB)" (Fig. 2). This module implements that store: numpy
ring buffers per series (bounded memory, the property that makes the
monitoring footprint predictable — the ~1.2 GiB of Fig. 6).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

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

    __slots__ = ("key", "capacity", "_times", "_values", "_head", "_count")

    def __init__(self, key: str, capacity: int) -> None:
        if capacity < 1:
            raise TelemetryError(f"series capacity must be >= 1, got {capacity}")
        self.key = key
        self.capacity = capacity
        self._times = np.zeros(capacity)
        self._values = np.zeros(capacity)
        self._head = 0  # next write slot
        self._count = 0

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

    def memory_bytes(self) -> int:
        """Buffer memory footprint (capacity, not fill, drives it)."""
        return self.capacity * BYTES_PER_SAMPLE


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

    # -- accounting ------------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Total buffer memory across series."""
        return sum(s.memory_bytes() for s in self._series.values())
