"""Tests for the hardware-testbed emulation (Figs. 1/5/6 substrate)."""

import pytest

from repro.errors import TelemetryError
from repro.testbed import (
    VxlanWorkload,
    aruba_8325_profile,
    build_dut,
    compare_local_vs_offloaded,
    offload_server_profile,
    run_monitoring,
)


class TestProfiles:
    def test_aruba_specs_match_paper(self):
        profile = aruba_8325_profile()
        assert profile.cores == 8
        assert profile.memory_gb == 16.0

    def test_dut_has_all_ten_agents(self):
        dut = build_dut()
        assert len(dut.local_agents) == 10

    def test_other_profiles_valid(self):
        assert offload_server_profile().cores > aruba_8325_profile().cores


class TestVxlanWorkload:
    def test_reference_intensity(self):
        workload = VxlanWorkload()
        assert workload.line_rate_fraction == 0.20
        assert workload.intensity == pytest.approx(1.3)

    def test_intensity_linear_in_line_rate(self):
        assert VxlanWorkload(line_rate_fraction=0.4).intensity == pytest.approx(2.6)
        assert VxlanWorkload(line_rate_fraction=0.0).intensity == 0.0

    def test_invalid_fraction(self):
        with pytest.raises(TelemetryError):
            VxlanWorkload(line_rate_fraction=1.5)

    def test_driver_attached_to_device(self):
        dut = build_dut()
        driver = VxlanWorkload(seed=0).driver_for(dut)
        assert driver.advance(60.0) > 0


class TestMonitoringRun:
    def test_local_mode_bands(self):
        """Fig. 1 band: module CPU ~100% average on the 8-core DUT."""
        result = run_monitoring("local", intervals=40, seed=42)
        assert result.mode == "local"
        assert 80.0 <= result.avg_module_cpu_pct <= 200.0
        assert result.peak_module_cpu_pct <= 800.0  # 8 cores cap
        assert result.remote_samples == ()

    def test_offloaded_mode_has_remote_samples(self):
        result = run_monitoring("offloaded", intervals=10, seed=42)
        assert len(result.remote_samples) == 10
        # The DUT only pays stub costs now.
        assert result.avg_module_cpu_pct < 30.0

    def test_invalid_mode(self):
        with pytest.raises(TelemetryError):
            run_monitoring("hybrid")

    def test_invalid_intervals(self):
        with pytest.raises(TelemetryError):
            run_monitoring("local", intervals=0)

    def test_monitoring_memory_footprint_about_1_2_gib(self):
        result = run_monitoring("local", intervals=5, seed=1)
        assert 1150.0 <= result.monitoring_memory_mb <= 1350.0


class TestOffloadComparison:
    @pytest.fixture(scope="class")
    def cmp(self):
        return compare_local_vs_offloaded(intervals=40, seed=42)

    def test_cpu_reduction_in_paper_band(self, cmp):
        """Paper: 31% -> 15% (~52% relative). Accept 35-65%."""
        assert 25.0 <= cmp.local.avg_device_cpu_pct <= 38.0
        assert 12.0 <= cmp.offloaded.avg_device_cpu_pct <= 20.0
        assert 35.0 <= cmp.cpu_reduction_pct <= 65.0

    def test_memory_reduction_in_paper_band(self, cmp):
        """Paper: 70% -> 62% (~12% relative). Accept 5-20%."""
        assert 65.0 <= cmp.local.avg_memory_pct <= 75.0
        assert 58.0 <= cmp.offloaded.avg_memory_pct <= 67.0
        assert 5.0 <= cmp.memory_reduction_pct <= 20.0

    def test_offloading_always_helps(self, cmp):
        assert cmp.offloaded.avg_device_cpu_pct < cmp.local.avg_device_cpu_pct
        assert cmp.offloaded.avg_memory_pct < cmp.local.avg_memory_pct
