"""Tests for the ring-buffer time-series database."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    def test_append_and_latest(self):
        s = Series("cpu", capacity=4)
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert len(s) == 2
        assert s.latest() == (2.0, 20.0)

    def test_ring_overwrites_oldest(self):
        s = Series("cpu", capacity=3)
        for t in range(5):
            s.append(float(t), float(t * 10))
        times, values = s.range()
        np.testing.assert_allclose(times, [2.0, 3.0, 4.0])
        np.testing.assert_allclose(values, [20.0, 30.0, 40.0])
        assert s.total_appended == 5

    def test_range_filters(self):
        s = Series("cpu", capacity=10)
        for t in range(10):
            s.append(float(t), float(t))
        times, _ = s.range(3.0, 6.0)
        np.testing.assert_allclose(times, [3.0, 4.0, 5.0, 6.0])

    def test_out_of_order_timestamp_rejected(self):
        s = Series("cpu", capacity=4)
        s.append(5.0, 1.0)
        with pytest.raises(TelemetryError, match="older"):
            s.append(4.0, 1.0)

    def test_equal_timestamps_allowed(self):
        s = Series("cpu", capacity=4)
        s.append(5.0, 1.0)
        s.append(5.0, 2.0)
        assert len(s) == 2

    def test_empty_latest_raises(self):
        with pytest.raises(TelemetryError, match="empty"):
            Series("cpu", capacity=2).latest()

    def test_memory_is_capacity_based(self):
        s = Series("cpu", capacity=100)
        assert s.memory_bytes() == 100 * BYTES_PER_SAMPLE

    def test_invalid_capacity(self):
        with pytest.raises(TelemetryError):
            Series("cpu", capacity=0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=20),
        st.lists(st.floats(min_value=0, max_value=1e6), min_size=0, max_size=60),
    )
    def test_property_ring_keeps_last_k_sorted(self, capacity, raw_times):
        """After any append sequence the buffer holds the last
        min(n, capacity) samples in chronological order."""
        times = sorted(raw_times)
        s = Series("x", capacity=capacity)
        for t in times:
            s.append(t, t)
        got_t, got_v = s.range()
        expect = times[-min(len(times), capacity):]
        np.testing.assert_allclose(got_t, expect)
        np.testing.assert_allclose(got_v, expect)


class TestTimeSeriesDatabase:
    def test_append_creates_series(self):
        tsdb = TimeSeriesDatabase()
        tsdb.append("cpu", 1.0, 50.0, tags={"device": "sw1"})
        assert tsdb.has_series("cpu", {"device": "sw1"})
        assert not tsdb.has_series("cpu")

    def test_query(self):
        tsdb = TimeSeriesDatabase()
        for t in range(5):
            tsdb.append("cpu", float(t), float(t))
        times, values = tsdb.query("cpu", 1.0, 3.0)
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0])

    def test_unknown_series_raises(self):
        with pytest.raises(TelemetryError, match="unknown series"):
            TimeSeriesDatabase().query("nope")

    def test_aggregate(self):
        tsdb = TimeSeriesDatabase()
        for t, v in enumerate([1.0, 2.0, 3.0, 4.0]):
            tsdb.append("cpu", float(t), v)
        assert tsdb.aggregate("cpu", "mean") == pytest.approx(2.5)
        assert tsdb.aggregate("cpu", "max") == 4.0
        assert tsdb.aggregate("cpu", "sum") == 10.0
        assert tsdb.aggregate("cpu", "count") == 4.0
        assert tsdb.aggregate("cpu", "last") == 4.0

    def test_aggregate_empty_is_nan(self):
        tsdb = TimeSeriesDatabase()
        tsdb.create_series("cpu")
        assert np.isnan(tsdb.aggregate("cpu", "mean"))

    def test_unknown_aggregate(self):
        tsdb = TimeSeriesDatabase()
        tsdb.append("cpu", 0.0, 1.0)
        with pytest.raises(TelemetryError, match="unknown aggregate"):
            tsdb.aggregate("cpu", "median")

    def test_downsample_means(self):
        tsdb = TimeSeriesDatabase()
        for t in range(10):
            tsdb.append("cpu", float(t), float(t))
        times, values = tsdb.downsample("cpu", bucket_s=5.0)
        np.testing.assert_allclose(times, [0.0, 5.0])
        np.testing.assert_allclose(values, [2.0, 7.0])

    def test_downsample_max(self):
        tsdb = TimeSeriesDatabase()
        for t in range(4):
            tsdb.append("cpu", float(t), float(t))
        _, values = tsdb.downsample("cpu", bucket_s=2.0, aggregate="max")
        np.testing.assert_allclose(values, [1.0, 3.0])

    def test_downsample_empty(self):
        tsdb = TimeSeriesDatabase()
        tsdb.create_series("cpu")
        times, values = tsdb.downsample("cpu", bucket_s=5.0)
        assert times.size == 0 and values.size == 0

    def test_drop_series(self):
        tsdb = TimeSeriesDatabase()
        tsdb.append("cpu", 0.0, 1.0)
        tsdb.drop_series("cpu")
        assert not tsdb.has_series("cpu")
        with pytest.raises(TelemetryError):
            tsdb.drop_series("cpu")

    def test_memory_accounting(self):
        tsdb = TimeSeriesDatabase(default_capacity=100)
        tsdb.create_series("a")
        tsdb.create_series("b", capacity=50)
        assert tsdb.memory_bytes() == (100 + 50) * BYTES_PER_SAMPLE

    def test_total_samples(self):
        tsdb = TimeSeriesDatabase()
        for t in range(7):
            tsdb.append("cpu", float(t), 1.0)
        assert tsdb.total_samples() == 7
