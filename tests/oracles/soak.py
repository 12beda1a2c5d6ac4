"""The soak event core as one engine event per arrival, drawn with numpy
``uniform``.

``repro.simulation.soak`` draws and applies a tick's arrivals when the
tick fires and draws ``low + (high - low) * random()`` from raw PCG64
words (``repro.simulation.draws.BlockDraws``); the classes here keep the
per-arrival scheduling (a self-rescheduling ``fire`` closure per stream
that draws its arrival onto a pending list the tick applies) and the
``Generator.integers`` / ``Generator.uniform`` calls that replaced, so
the suites hold the trajectory and the draws ``==`` to them. The diurnal
load stream's block form (``DiurnalArrivals``) is held to the
candidate-by-candidate thinning it replaced
(:class:`ScalarDiurnalArrivals`).
"""

from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.messages import ReliableSender
from repro.obs import get_registry
from repro.simulation.engine import SimulationEngine
from repro.simulation.network_sim import FaultyNetwork
from repro.simulation.profiles import ArrivalProcess, DiurnalArrivals
from repro.simulation.soak import SoakConfig, SoakResult, _SoakDriver


class PerArrivalSoakDriver(_SoakDriver):
    """Every arrival is its own engine event that draws it; the tick
    applies what was drawn since the last one."""

    def __init__(self, config: SoakConfig) -> None:
        super().__init__(config)
        # The driver's own draws come from raw words; this one redraws
        # the initial loads, and then every arrival, through numpy's
        # ``Generator`` calls.
        self._rng = np.random.default_rng(config.seed)
        low, high = config.load_range
        for node in self.loads:
            self.loads[node] = float(self._rng.uniform(low, min(high, 60.0)))
        self._churnable = np.array(sorted(self.clients))
        self._pending: List[Tuple[str, int, float, float]] = []

    def _draw(self, kind: str) -> Tuple[int, float]:
        node = int(self._churnable[self._rng.integers(len(self._churnable))])
        low, high = self.config.load_range
        if kind == "load":
            step = self.config.load_step_pct
            value = float(self._rng.uniform(-step, step))
        elif kind == "offload":
            value = float(
                self._rng.uniform(min(self.config.policy.c_max + 2.0, high), high)
            )
        else:
            value = 0.0
        return node, value

    def _streams(self) -> List[Tuple[int, str, ArrivalProcess]]:
        # The diurnal stream thinned one candidate at a time, from the
        # same fresh generator.
        streams = super()._streams()
        for i, (salt, kind, process) in enumerate(streams):
            if type(process) is DiurnalArrivals:
                scalar = ScalarDiurnalArrivals(
                    process.base_rate_per_s,
                    process.swing,
                    process.period_s,
                    process.phase_s,
                )
                scalar._rng = process._rng
                streams[i] = (salt, kind, scalar)
        return streams

    def _start_streams(self) -> None:
        # Leaves the tick's heads empty, so it draws nothing itself.
        for _salt, kind, process in self._streams():
            self._schedule_stream(kind, process)

    def _apply_arrivals(self, until: float) -> None:
        pending, self._pending = self._pending, []
        for entry in pending:
            self._apply(*entry)

    def _apply(self, kind: str, node: int, value: float, at: float) -> None:
        if kind == "load":
            low, high = self.config.load_range
            self.loads[node] = min(high, max(low, self.loads[node] + value))
        elif kind == "offload":
            self.loads[node] = value
        else:  # churn
            client = self.clients[node]
            if client.alive:
                client.fail()
            else:
                client.recover()
        self.latencies.append(self.engine.now - at)

    def _schedule_stream(self, kind: str, process: ArrivalProcess) -> None:
        horizon = self.config.horizon_s

        def fire(engine: SimulationEngine, k: str = kind, p: ArrivalProcess = process) -> None:
            self.events_generated += 1
            get_registry().counter("soak.events_generated").inc()
            self._pending.append((k, *self._draw(k), engine.now))
            nxt = p.next_arrival()
            if nxt < horizon:
                engine.schedule_at(nxt, fire, label=f"soak-{k}")

        first = process.next_arrival()
        if first < horizon:
            self.engine.schedule_at(first, fire, label=f"soak-{kind}")


def run_soak_per_arrival(config: SoakConfig) -> SoakResult:
    """What ``run_soak(config)`` must equal on every simulated quantity."""
    return PerArrivalSoakDriver(config).run()


class ScalarDiurnalArrivals(DiurnalArrivals):
    """Thinning one candidate at a time through ``Generator`` calls:
    what ``DiurnalArrivals``' block stream must return, arrival for
    arrival, and the words it must use."""

    next_arrival = ArrivalProcess.next_arrival
    arrivals_through = ArrivalProcess.arrivals_through

    def _gap(self) -> float:
        start = self._now
        t = start
        while True:
            t += float(self._rng.exponential(self._peak_scale))
            # ``random()`` is ``uniform()`` bit for bit (``0 + 1 *
            # next_double``) at a third of the call cost.
            if self._rng.random() <= self.rate_at(t) / self._peak:
                return t - start


class UniformDiurnalArrivals(ScalarDiurnalArrivals):
    """Thinning with ``uniform()`` and a ``rate_at`` call per candidate."""

    def _gap(self) -> float:
        start = self._now
        t = start
        while True:
            t += float(self._rng.exponential(1.0 / self._peak))
            if self._rng.uniform() <= self.rate_at(t) / self._peak:
                return t - start


class UniformJitterNetwork(FaultyNetwork):
    """Delivery jitter drawn as ``uniform(0, jitter_s)`` from a numpy
    ``Generator`` of the network's seed."""

    def __init__(self, *args: Any, seed: Optional[int] = None, **kwargs: Any) -> None:
        super().__init__(*args, seed=seed, **kwargs)
        self._uniform_rng = np.random.default_rng(seed)

    def _extra_delay(self, source: int, destination: int, payload: Any) -> float:
        delay = 0.0
        if self.faults.jitter_s > 0.0:
            delay += float(self._uniform_rng.uniform(0.0, self.faults.jitter_s))
        if (
            self.faults.reorder_probability > 0.0
            and self._uniform_rng.random() < self.faults.reorder_probability
        ):
            self.reordered += 1
            delay += self.faults.reorder_extra_s
            self._log("reorder", source, destination, payload)
        return delay


class UniformJitterSender(ReliableSender):
    """Retransmission timeouts drawn as ``uniform(low, cap)``."""

    def _timeout_for(self, entry) -> float:
        policy = self.policy
        if policy.jitter <= 0.0:
            return policy.timeout_for(entry.attempt)
        if self._jitter_rng is None:
            self._jitter_rng = np.random.default_rng(self._jitter_seed)
        prev = entry.prev_timeout if entry.prev_timeout > 0.0 else policy.base_timeout_s
        cap = min(policy.max_timeout_s, max(policy.base_timeout_s, prev * policy.backoff))
        low = policy.base_timeout_s + (1.0 - policy.jitter) * (cap - policy.base_timeout_s)
        timeout = float(self._jitter_rng.uniform(low, cap))
        entry.prev_timeout = timeout
        return timeout
