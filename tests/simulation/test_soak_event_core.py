"""The soak's event core against its per-arrival oracle.

``run_soak`` draws and applies a tick's arrivals when the tick fires
and draws ``low + (high - low) * random()`` instead of ``uniform``; both
are meant to leave the simulated trajectory bit-identical. The oracles in
:mod:`tests.oracles.soak` keep one engine event per arrival, drawn when
it fires and applied by the next tick, and the ``uniform`` calls, and
every simulated quantity is held ``==`` to them.
"""

import numpy as np
import pytest

from repro.core.messages import ReliableSender, RetryPolicy, _Outstanding
from repro.simulation import (
    DiurnalArrivals,
    FaultConfig,
    FaultyNetwork,
    SimulationEngine,
    SoakConfig,
    StreamSpec,
    default_soak_chaos,
    run_soak,
)
from repro.topology.fattree import build_fat_tree
from repro.simulation import profiles
from tests.oracles.soak import (
    ScalarDiurnalArrivals,
    UniformDiurnalArrivals,
    UniformJitterNetwork,
    UniformJitterSender,
    run_soak_per_arrival,
)

SEEDS = (0, 7, 2024)

TWIN_CONFIGS = {
    "chaos": SoakConfig(seed=0, pods=4, horizon_s=120.0, chaos=default_soak_chaos(crash_at=60.0)),
    # 0.7 s does not divide 50 s: the arrivals after the last tick are
    # applied by the closing call at the horizon.
    "odd-drain-period": SoakConfig(
        seed=5, horizon_s=50.0, drain_period_s=0.7, chaos=default_soak_chaos(crash_at=25.0)
    ),
    # 400 arrivals/s in bursts: hundreds of arrivals per tick.
    "burst": SoakConfig(
        seed=0,
        horizon_s=120.0,
        load_stream=StreamSpec(
            "bursty", 40.0, burst_rate_per_s=400.0, mean_calm_s=10.0, mean_burst_s=30.0
        ),
    ),
    "calm": SoakConfig(seed=3, horizon_s=90.0),
}


def _trajectory(result):
    return {
        "events_generated": result.events_generated,
        "events_applied": result.events_applied,
        "drift_samples": result.drift_samples,
        "latency_percentiles": (
            result.latency_p50_s, result.latency_p95_s, result.latency_p99_s
        ),
        "took_over_at": result.took_over_at,
        "messages_sent": result.network.messages_sent,
        "event_log": result.network.event_log,
        "counters": result.counters,
    }


@pytest.fixture(scope="module", params=sorted(TWIN_CONFIGS))
def twins(request):
    config = TWIN_CONFIGS[request.param]
    return request.param, run_soak(config), run_soak_per_arrival(config)


class TestTrajectoryTwins:
    def test_simulated_trajectory_identical(self, twins):
        _, fast, oracle = twins
        assert _trajectory(fast) == _trajectory(oracle)

    def test_arrivals_left_the_engine(self, twins):
        name, fast, oracle = twins
        assert fast.events_generated > 0
        assert (
            fast.engine.events_processed
            <= oracle.engine.events_processed - fast.events_generated
        ), name

    def test_exercises_what_it_names(self, twins):
        name, fast, _ = twins
        if name == "burst":
            assert fast.events_applied == fast.events_generated > 20_000
        if name == "odd-drain-period":
            # Some arrival lands after the last tick, so only the
            # closing call at the horizon can apply it.
            config = fast.config
            last_tick = 0.0
            while last_tick + config.drain_period_s <= config.horizon_s:
                last_tick += config.drain_period_s
            stream = config.load_stream.build(config.seed, salt=1)
            arrival = stream.next_arrival()
            while arrival <= last_tick:
                arrival = stream.next_arrival()
            assert last_tick < arrival < config.horizon_s
        if name == "chaos":
            assert fast.took_over_at is not None
            assert fast.network.faults_dropped > 0


def _used_state(seed, words):
    """``PCG64(seed)``'s state after ``words`` raw words."""
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(words)
    return bit_generator.state


class TestDiurnalBlockStream:
    """``DiurnalArrivals`` draws its candidates a block of raw words at a
    time; each arrival must be the one the scalar thinning loop returns."""

    ARRIVALS = 200_000
    # 0, 13, and a phase whose rate starts at its peak (sin = 1 at t = 0).
    PHASES = (0.0, 13.0, 450.0)

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_equals_the_scalar_thinning(self, seed, phase):
        params = dict(base_rate_per_s=20.0, swing=0.8, period_s=600.0, phase_s=phase, seed=seed)
        fast, oracle = DiurnalArrivals(**params), ScalarDiurnalArrivals(**params)
        # Half one at a time, half a soak tick (1 s) at a time.
        arrivals = fast.take(self.ARRIVALS // 2)
        at, tick = fast.next_arrival(), float(int(arrivals[-1]))
        while len(arrivals) < self.ARRIVALS:
            tick += 1.0
            due, at = fast.arrivals_through(at, tick)
            assert all(a <= tick for a in due) and at > tick
            arrivals += due
        assert arrivals == oracle.take(len(arrivals))
        assert at == oracle.next_arrival()
        assert _used_state(seed, int(fast._ends[fast._i - 1])) == oracle._rng.bit_generator.state

    def test_an_arrival_off_its_candidate_clock(self):
        """An arrival is ``start + (t - start)``, which is not ``t`` for
        some early arrivals (``t > 2 * start``); the next gap starts
        there. Seed 19's second arrival is one."""

        class CandidateClock(ScalarDiurnalArrivals):
            def next_arrival(self):
                t = self._now
                while True:
                    t += float(self._rng.exponential(self._peak_scale))
                    if self._rng.random() <= self.rate_at(t) / self._peak:
                        self._now = t
                        return t

        params = dict(base_rate_per_s=20.0, swing=0.8, period_s=600.0, phase_s=13.0, seed=19)
        expected = ScalarDiurnalArrivals(**params).take(1000)
        assert CandidateClock(**params).take(2) != expected[:2]
        assert DiurnalArrivals(**params).take(1000) == expected

    def test_bounds_near_a_draw_are_decided_by_math_sin(self, monkeypatch):
        """Every candidate goes through the ``rate_at`` recheck when the
        slack covers all of ``[0, 1]``."""
        monkeypatch.setattr(profiles, "_SIN_SLACK", 2.0)
        params = dict(base_rate_per_s=20.0, swing=0.8, period_s=600.0, phase_s=13.0, seed=7)
        assert DiurnalArrivals(**params).take(20_000) == ScalarDiurnalArrivals(**params).take(
            20_000
        )


class TestSameDraws:
    """``random()`` forms against the ``uniform`` calls they replaced."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_diurnal_thinning(self, seed):
        fast = DiurnalArrivals(20.0, swing=0.8, period_s=600.0, phase_s=13.0, seed=seed)
        oracle = UniformDiurnalArrivals(20.0, swing=0.8, period_s=600.0, phase_s=13.0, seed=seed)
        assert fast.take(5000) == oracle.take(5000)
        # The block stream draws words ahead of its arrivals; the words
        # its 5000 arrivals used are the words the oracle's used.
        assert _used_state(seed, int(fast._ends[fast._i - 1])) == oracle._rng.bit_generator.state

    @pytest.mark.parametrize("seed", SEEDS)
    def test_delivery_jitter(self, seed):
        faults = FaultConfig(jitter_s=0.2, reorder_probability=0.05)
        topology = build_fat_tree(4)
        fast = FaultyNetwork(topology, SimulationEngine(), faults=faults, seed=seed)
        oracle = UniformJitterNetwork(topology, SimulationEngine(), faults=faults, seed=seed)
        assert [fast._extra_delay(0, 1, None) for _ in range(5000)] == [
            oracle._extra_delay(0, 1, None) for _ in range(5000)
        ]
        assert fast.reordered == oracle.reordered > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_retransmission_timeouts(self, seed):
        policy = RetryPolicy(base_timeout_s=2.0, max_retries=5, jitter=0.5)
        network = FaultyNetwork(build_fat_tree(4), SimulationEngine(), seed=seed)
        draws = []
        for cls in (ReliableSender, UniformJitterSender):
            sender = cls(network, network.engine, node_id=3, policy=policy, seed=seed)
            series = []
            for chain in range(500):
                entry = _Outstanding(
                    destination=1, payload=None, attempt=0, timer=None, on_give_up=None
                )
                for attempt in range(chain % 6 + 1):
                    entry.attempt = attempt
                    series.append(sender._timeout_for(entry))
            draws.append(series)
        fast, oracle = draws
        assert fast == oracle
        assert len(set(fast)) > 1000

    @pytest.mark.parametrize("seed", SEEDS)
    def test_interleaved_with_integers_and_exponential(self, seed):
        """The identity holds mid-stream, between the draws the driver
        keeps (``integers`` uses the bit generator's 32-bit stash)."""
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for i in range(20_000):
            lo, hi = (-4.0, 4.0) if i % 2 else (82.0, 95.0)
            assert a.integers(77) == b.integers(77)
            assert lo + (hi - lo) * a.random() == float(b.uniform(lo, hi))
            if i % 3 == 0:
                assert a.exponential(0.05) == b.exponential(0.05)
