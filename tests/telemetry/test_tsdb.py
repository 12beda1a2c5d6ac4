"""Tests for the ring-buffer time-series database."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    BYTES_PER_SAMPLE,
    Series,
    TimeSeriesDatabase,
    series_key,
)


class TestSeriesKey:
    def test_no_tags(self):
        assert series_key("cpu") == "cpu"

    def test_tags_sorted(self):
        assert series_key("cpu", {"b": "2", "a": "1"}) == "cpu{a=1,b=2}"

    def test_empty_tags_equals_none(self):
        assert series_key("cpu", {}) == series_key("cpu")


class TestSeries:
    def test_out_of_order_timestamp_rejected(self):
        s = Series("cpu", capacity=4)
        s.append(5.0, 1.0)
        with pytest.raises(TelemetryError, match="older"):
            s.append(4.0, 1.0)

    def test_equal_timestamps_allowed(self):
        s = Series("cpu", capacity=4)
        s.append(5.0, 1.0)
        s.append(5.0, 2.0)

    def test_memory_is_capacity_based(self):
        s = Series("cpu", capacity=100)
        assert s.memory_bytes() == 100 * BYTES_PER_SAMPLE

    def test_invalid_capacity(self):
        with pytest.raises(TelemetryError):
            Series("cpu", capacity=0)


class TestTimeSeriesDatabase:
    def test_append_creates_series(self):
        tsdb = TimeSeriesDatabase(default_capacity=10)
        tsdb.append("cpu", 1.0, 50.0, tags={"device": "sw1"})
        tsdb.append("cpu", 2.0, 51.0, tags={"device": "sw1"})
        assert tsdb.memory_bytes() == 10 * BYTES_PER_SAMPLE
        tsdb.append("cpu", 1.0, 50.0)  # untagged: a second series
        assert tsdb.memory_bytes() == 20 * BYTES_PER_SAMPLE

    def test_memory_accounting(self):
        tsdb = TimeSeriesDatabase(default_capacity=100)
        tsdb.create_series("a")
        tsdb.create_series("b", capacity=50)
        assert tsdb.memory_bytes() == (100 + 50) * BYTES_PER_SAMPLE
