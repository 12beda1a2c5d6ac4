"""Tests for time-varying client load and the soak's arrival processes."""

import math

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation import BurstyArrivals, DiurnalArrivals, PoissonArrivals


class TestProfilesDriveClients:
    def test_diurnal_client_offloads_at_peak_and_reclaims_at_trough(self):
        """Full control loop on a sinusoidal load: offload near the peak
        and reclaim after the load subsides."""
        from repro.core import DUSTClient, DUSTManager, ThresholdPolicy
        from repro.simulation import MessageNetwork, SimulationEngine
        from repro.topology import LinkUtilizationModel, build_fat_tree

        policy = ThresholdPolicy(c_max=80.0, co_max=50.0, x_min=10.0)
        topology = build_fat_tree(4)
        LinkUtilizationModel(0.2, 0.6, seed=0).apply(topology)
        engine = SimulationEngine()
        network = MessageNetwork(topology, engine)
        manager = DUSTManager(
            node_id=0, topology=topology, engine=engine, network=network,
            policy=policy, update_interval_s=30.0, optimization_period_s=60.0,
        )
        manager.start()
        # Node 5 follows a 1-hour "day": peaks at 90%, troughs at 30%.
        def profile(t):
            return 60.0 + 30.0 * math.sin(2.0 * math.pi * t / 3600.0)

        clients = {}
        for node in range(1, topology.num_nodes):
            clients[node] = DUSTClient(
                node_id=node, engine=engine, network=network, manager_node=0,
                policy=policy,
                base_capacity=profile if node == 5 else 30.0,
            )
            clients[node].start()
        engine.run_until(1100.0)  # past the peak at t=900
        assert clients[5].offloaded_amount > 0, "peak load should offload"
        engine.run_until(3200.0)  # past the trough at t=2700
        assert clients[5].offloaded_amount == 0, "trough should reclaim"
        assert manager.counters.reclaims_issued >= 1


class TestArrivalProcesses:
    def test_poisson_monotone_and_deterministic(self):
        a = PoissonArrivals(rate_per_s=5.0, seed=11)
        b = PoissonArrivals(rate_per_s=5.0, seed=11)
        times = a.take(500)
        assert times == b.take(500)
        assert all(x < y for x, y in zip(times, times[1:]))
        assert times[0] > 0.0

    def test_poisson_rate_approximately_honoured(self):
        process = PoissonArrivals(rate_per_s=10.0, seed=0)
        times = process.take(5000)
        empirical = len(times) / times[-1]
        assert empirical == pytest.approx(10.0, rel=0.1)

    def test_poisson_seeds_decorrelate(self):
        assert PoissonArrivals(5.0, seed=1).take(10) != PoissonArrivals(5.0, seed=2).take(10)

    def test_diurnal_rate_peaks_and_troughs(self):
        process = DiurnalArrivals(base_rate_per_s=2.0, swing=0.5, period_s=100.0)
        assert process.rate_at(25.0) == pytest.approx(3.0)   # peak
        assert process.rate_at(75.0) == pytest.approx(1.0)   # trough
        assert process.rate_at(0.0) == pytest.approx(2.0)

    def test_diurnal_rate_on_an_array_is_elementwise(self):
        process = DiurnalArrivals(base_rate_per_s=2.0, swing=0.5, period_s=100.0)
        times = np.array([0.0, 25.0, 75.0, 12.3])
        assert process.rate_at(times) == pytest.approx(
            [process.rate_at(float(t)) for t in times], rel=1e-15
        )

    def test_diurnal_thinning_tracks_intensity(self):
        """More arrivals land in the peak half-period than the trough."""
        process = DiurnalArrivals(base_rate_per_s=20.0, swing=0.8,
                                  period_s=200.0, seed=3)
        times = [t for t in process.take(4000) if t < 200.0]
        peak_half = sum(1 for t in times if t < 100.0)
        trough_half = len(times) - peak_half
        assert peak_half > 2.0 * trough_half

    def test_diurnal_deterministic(self):
        a = DiurnalArrivals(1.0, seed=4)
        b = DiurnalArrivals(1.0, seed=4)
        assert a.take(100) == b.take(100)

    def test_bursty_regimes_change_rate(self):
        """Inter-arrival gaps inside bursts are visibly tighter."""
        process = BurstyArrivals(calm_rate_per_s=1.0, burst_rate_per_s=50.0,
                                 mean_calm_s=50.0, mean_burst_s=20.0, seed=2)
        gaps_by_regime = {True: [], False: []}
        previous = 0.0
        for _ in range(3000):
            t = process.next_arrival()
            gaps_by_regime[process.bursting].append(t - previous)
            previous = t
        assert gaps_by_regime[True] and gaps_by_regime[False]
        assert np.mean(gaps_by_regime[True]) < np.mean(gaps_by_regime[False]) / 5.0

    def test_bursty_monotone_and_deterministic(self):
        a = BurstyArrivals(2.0, 40.0, seed=9)
        b = BurstyArrivals(2.0, 40.0, seed=9)
        times = a.take(1000)
        assert times == b.take(1000)
        assert all(x < y for x, y in zip(times, times[1:]))

    def test_validation(self):
        with pytest.raises(SimulationError):
            PoissonArrivals(rate_per_s=0.0)
        with pytest.raises(SimulationError):
            DiurnalArrivals(base_rate_per_s=1.0, swing=1.0)
        with pytest.raises(SimulationError):
            DiurnalArrivals(base_rate_per_s=1.0, period_s=0.0)
        with pytest.raises(SimulationError):
            BurstyArrivals(calm_rate_per_s=5.0, burst_rate_per_s=1.0)
        with pytest.raises(SimulationError):
            BurstyArrivals(1.0, 10.0, mean_calm_s=0.0)

    # Non-finite parameters: a NaN rate stalls Lewis–Shedler thinning or
    # emits NaN times; an infinite one emits zero gaps, which would spin
    # any consumer that admits "every arrival up to t".
    @pytest.mark.parametrize(
        "build",
        [
            lambda: DiurnalArrivals(float("nan")),
            lambda: DiurnalArrivals(float("inf")),
            lambda: DiurnalArrivals(1.0, period_s=float("nan")),
            lambda: DiurnalArrivals(1.0, phase_s=float("nan")),
            lambda: PoissonArrivals(float("nan")),
            lambda: PoissonArrivals(float("inf")),
            lambda: BurstyArrivals(1.0, float("inf")),
            lambda: BurstyArrivals(float("nan"), 2.0),
            lambda: BurstyArrivals(1.0, 2.0, mean_calm_s=float("nan")),
            lambda: BurstyArrivals(1.0, 2.0, mean_burst_s=float("inf")),
        ],
        ids=[
            "diurnal-nan-rate", "diurnal-inf-rate", "diurnal-nan-period",
            "diurnal-nan-phase", "poisson-nan-rate", "poisson-inf-rate",
            "bursty-inf-burst-rate", "bursty-nan-calm-rate",
            "bursty-nan-calm-mean", "bursty-inf-burst-mean",
        ],
    )
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(SimulationError, match="finite"):
            build()
