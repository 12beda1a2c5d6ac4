"""Tests for the device workload driver."""

import numpy as np
import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    BurstModel,
    DeviceProfile,
    DeviceWorkloadDriver,
    NetworkDevice,
    UpdateRateProfile,
)


def device():
    return NetworkDevice(DeviceProfile(
        name="d", cores=4, memory_gb=8.0, base_cpu_pct=10.0, base_memory_mb=512.0,
    ))


class TestUpdateRateProfile:
    def test_default_total_rate(self):
        profile = UpdateRateProfile()
        assert profile.total_rate_per_s == pytest.approx(3080.0)

    def test_scaled(self):
        profile = UpdateRateProfile({"a": 10.0}).scaled(2.5)
        assert profile.rates_per_s["a"] == 25.0

    def test_negative_rate_rejected(self):
        with pytest.raises(TelemetryError):
            UpdateRateProfile({"a": -1.0})

    def test_negative_scale_rejected(self):
        with pytest.raises(TelemetryError):
            UpdateRateProfile({"a": 1.0}).scaled(-1.0)


class TestBurstModel:
    def test_no_burst_is_unity(self):
        model = BurstModel(burst_probability=0.0)
        rng = np.random.default_rng(0)
        assert all(model.sample_multiplier(rng) == 1.0 for _ in range(20))

    def test_always_burst_in_range(self):
        model = BurstModel(burst_probability=1.0, min_multiplier=2.0, max_multiplier=5.0)
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = model.sample_multiplier(rng)
            assert 2.0 <= m <= 5.0

    def test_validation(self):
        with pytest.raises(TelemetryError):
            BurstModel(burst_probability=1.5)
        with pytest.raises(TelemetryError):
            BurstModel(min_multiplier=0.5)
        with pytest.raises(TelemetryError):
            BurstModel(min_multiplier=5.0, max_multiplier=2.0)


class TestDeviceWorkloadDriver:
    def test_advance_generates_poisson_volume(self):
        dev = device()
        driver = DeviceWorkloadDriver(
            dev, profile=UpdateRateProfile({"t": 100.0}), seed=0
        )
        recorded = []
        dev.database.subscribe_bulk("t", lambda table, count: recorded.append(count))
        total = driver.advance(10.0)
        # Poisson(1000): overwhelmingly within +-20%.
        assert 800 <= total <= 1200
        assert sum(recorded) == total

    def test_intensity_scales_volume(self):
        totals = []
        for intensity in (0.5, 2.0):
            dev = device()
            driver = DeviceWorkloadDriver(
                dev, profile=UpdateRateProfile({"t": 200.0}),
                intensity=intensity, seed=1,
            )
            totals.append(driver.advance(10.0))
        assert totals[1] > totals[0] * 2.5

    def test_zero_intensity_silent(self):
        dev = device()
        driver = DeviceWorkloadDriver(
            dev, profile=UpdateRateProfile({"t": 100.0}), intensity=0.0, seed=0
        )
        assert driver.advance(10.0) == 0

    def test_deterministic_for_seed(self):
        runs = []
        for _ in range(2):
            dev = device()
            driver = DeviceWorkloadDriver(
                dev, profile=UpdateRateProfile({"t": 50.0}), seed=9
            )
            runs.append([driver.advance(5.0) for _ in range(4)])
        assert runs[0] == runs[1]

    def test_invalid_dt(self):
        driver = DeviceWorkloadDriver(device(), profile=UpdateRateProfile({"t": 1.0}))
        with pytest.raises(TelemetryError):
            driver.advance(0.0)

    def test_invalid_intensity(self):
        with pytest.raises(TelemetryError):
            DeviceWorkloadDriver(device(), intensity=-1.0)
