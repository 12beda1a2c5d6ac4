"""Soak driver: arrival streams applied at their tick, drift watchdog,
and the composed-chaos acceptance scenario.

The calm and chaos soak runs are module-scoped fixtures — each is one
full control-plane simulation, shared by every assertion against it.
"""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.simulation import (
    BurstyArrivals,
    ChaosScenario,
    DiurnalArrivals,
    FaultSchedule,
    PoissonArrivals,
    SoakConfig,
    StreamSpec,
    default_soak_chaos,
    run_soak,
)

#: The acceptance floor from the issue: 1e5 simulated events per wall
#: minute. Measured headroom on one CI core is ~30x.
THROUGHPUT_FLOOR_PER_MIN = 1e5


class TestStreamSpec:
    def test_builds_each_kind(self):
        assert isinstance(StreamSpec("poisson", 5.0).build(0, 1), PoissonArrivals)
        assert isinstance(StreamSpec("diurnal", 5.0).build(0, 1), DiurnalArrivals)
        assert isinstance(StreamSpec("bursty", 5.0).build(0, 1), BurstyArrivals)
        with pytest.raises(SimulationError):
            StreamSpec("fractal", 5.0).build(0, 1)

    def test_seed_and_salt_separate_streams(self):
        spec = StreamSpec("poisson", 5.0)
        assert spec.build(0, 1).take(20) == spec.build(0, 1).take(20)
        assert spec.build(0, 1).take(20) != spec.build(0, 2).take(20)
        assert spec.build(0, 1).take(20) != spec.build(1, 1).take(20)


class TestConfigValidation:
    def test_crash_outside_horizon_rejected(self):
        with pytest.raises(SimulationError):
            SoakConfig(horizon_s=100.0, chaos=default_soak_chaos(crash_at=150.0))

    def test_partition_needs_groups(self):
        with pytest.raises(SimulationError):
            FaultSchedule(partition_at=10.0)
        with pytest.raises(SimulationError):
            FaultSchedule(partition_at=10.0, partition_heal_at=5.0,
                      partition_groups=((1, 2),))

    def test_basic_field_validation(self):
        with pytest.raises(SimulationError):
            SoakConfig(horizon_s=0.0)
        with pytest.raises(SimulationError):
            SoakConfig(drain_period_s=0.0)
        with pytest.raises(SimulationError):
            SoakConfig(watchdog_strikes=0)
        with pytest.raises(SimulationError):
            SoakConfig(standby_node=0, manager_node=0)

    @pytest.mark.parametrize(
        "config, field",
        [
            *(pytest.param(SoakConfig, f, id=f)
              for f in ("horizon_s", "drain_period_s", "oracle_period_s")),
            *(pytest.param(ChaosScenario, f, id=f"ChaosScenario-{f}")
              for f in ("horizon_s", "checkpoint_period_s")),
        ],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_periods_rejected(self, config, field, value):
        with pytest.raises(SimulationError, match="finite"):
            config(**{field: value})

    def test_default_chaos_is_composed(self):
        chaos = default_soak_chaos(crash_at=200.0)
        assert not chaos.is_null
        assert chaos.faults.drop_probability == pytest.approx(0.20)
        assert chaos.partition_at == 100.0
        assert chaos.partition_heal_at == 160.0
        assert chaos.manager_crash_at == 200.0


@pytest.fixture(scope="module")
def calm_run():
    return run_soak(SoakConfig(seed=0, horizon_s=420.0))


@pytest.fixture(scope="module")
def chaos_run():
    return run_soak(SoakConfig(
        seed=0, horizon_s=400.0, chaos=default_soak_chaos(crash_at=200.0),
    ))


class TestCalmSoak:
    def test_throughput_floor(self, calm_run):
        assert calm_run.events_applied > 1000
        assert calm_run.events_per_min >= THROUGHPUT_FLOOR_PER_MIN

    def test_no_production_loss(self, calm_run):
        assert calm_run.qos.production_loss_mb == pytest.approx(0.0)

    def test_all_generated_events_accounted_for(self, calm_run):
        assert calm_run.events_applied == calm_run.events_generated

    def test_control_plane_actually_worked(self, calm_run):
        assert calm_run.counters.optimization_rounds > 0
        assert calm_run.counters.offloads_established > 0
        assert calm_run.took_over_at is None  # no crash: primary held

    def test_drift_converges_within_bound(self, calm_run):
        assert calm_run.drift_samples  # watchdog actually sampled
        assert calm_run.final_drift <= calm_run.config.drift_bound

    def test_latency_percentiles_ordered(self, calm_run):
        assert 0.0 <= calm_run.latency_p50_s <= calm_run.latency_p95_s
        assert calm_run.latency_p95_s <= calm_run.latency_p99_s
        # Events wait at most ~one drain period plus scheduling slack.
        assert calm_run.latency_p99_s <= 5.0 * calm_run.config.drain_period_s


class TestDeterminism:
    def test_same_seed_same_simulated_quantities(self):
        config = SoakConfig(seed=3, horizon_s=60.0)
        a = run_soak(config)
        b = run_soak(dataclasses.replace(config))
        # Wall-clock-derived numbers differ; simulated ones must not.
        assert a.events_generated == b.events_generated
        assert a.events_applied == b.events_applied
        assert a.drift_samples == b.drift_samples
        assert a.watchdog_resets == b.watchdog_resets

    def test_different_seed_different_stream(self):
        a = run_soak(SoakConfig(seed=1, horizon_s=60.0))
        b = run_soak(SoakConfig(seed=2, horizon_s=60.0))
        assert a.events_generated != b.events_generated


class TestBurstLoad:
    def test_every_arrival_applied_within_its_tick(self):
        """A 400/s burst on the default config: hundreds of arrivals per
        tick, and each is applied at the first tick after it arrives."""
        result = run_soak(SoakConfig(
            seed=0,
            horizon_s=120.0,
            load_stream=StreamSpec(
                "bursty", 40.0, burst_rate_per_s=400.0,
                mean_calm_s=10.0, mean_burst_s=30.0,
            ),
        ))
        assert result.events_applied == result.events_generated
        assert result.latency_p99_s < result.config.drain_period_s


class TestComposedChaos:
    """The acceptance scenario: 20% loss + dup/reorder + one partition
    + one mid-soak manager crash, under sustained traffic."""

    def test_standby_took_over(self, chaos_run):
        assert chaos_run.took_over_at is not None
        assert chaos_run.took_over_at > chaos_run.config.chaos.manager_crash_at
        assert chaos_run.standby.promoted

    def test_recovers_within_drift_bound(self, chaos_run):
        assert chaos_run.final_drift <= chaos_run.config.drift_bound

    def test_zero_production_class_loss(self, chaos_run):
        assert chaos_run.qos.production_loss_mb == pytest.approx(0.0)

    def test_traffic_sustained_through_chaos(self, chaos_run):
        assert chaos_run.events_per_min >= THROUGHPUT_FLOOR_PER_MIN
        assert chaos_run.events_applied > 1000

    def test_chaos_actually_hurt(self, chaos_run):
        """Guard against a vacuous pass: the fabric really dropped and
        partitioned, and the control plane really retransmitted."""
        network = chaos_run.network
        assert network.faults_dropped > 0
        assert network.partition_dropped > 0
        assert chaos_run.counters.retransmissions > 0
