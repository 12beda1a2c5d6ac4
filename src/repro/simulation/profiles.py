"""Open-loop arrival processes.

The arrival processes drive the soak engine's *open-loop* event
streams (the environment emits events at its own pace, regardless of
whether the control plane keeps up — closed-loop load generators hide
overload by self-throttling):

* :class:`PoissonArrivals` — homogeneous Poisson, i.i.d. exponential
  gaps;
* :class:`DiurnalArrivals` — inhomogeneous Poisson with a sinusoidal
  rate, sampled exactly via Lewis–Shedler thinning;
* :class:`BurstyArrivals` — two-state MMPP (Markov-modulated Poisson):
  calm/burst regimes with exponential sojourns and distinct rates.

All are deterministic functions of virtual time for a given seed, so
simulations using them stay reproducible.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import SimulationError


def _require_positive(what: str, value: float) -> None:
    """Reject NaN, infinite and non-positive process parameters: a NaN
    rate stalls thinning, an infinite one emits zero gaps forever."""
    if not (value > 0.0 and math.isfinite(value)):
        raise SimulationError(f"{what} must be positive and finite, got {value}")


class ArrivalProcess:
    """Base class: a stateful stream of strictly increasing event times.

    Subclasses implement :meth:`_gap`, the (possibly time-dependent)
    wait from the current position to the next arrival. The stream is
    consumed via :meth:`next_arrival`; :meth:`take` is a convenience
    for tests and rate calibration.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = np.random.default_rng(seed)
        self._now = 0.0

    def _gap(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def next_arrival(self) -> float:
        """Advance to and return the next arrival time (seconds)."""
        self._now += self._gap()
        return self._now

    def take(self, n: int) -> list:
        """The next ``n`` arrival times, consuming them."""
        return [self.next_arrival() for _ in range(n)]


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson process: exponential i.i.d. inter-arrivals."""

    def __init__(self, rate_per_s: float, seed: int = 0) -> None:
        _require_positive("arrival rate", rate_per_s)
        super().__init__(seed)
        self.rate_per_s = rate_per_s

    def _gap(self) -> float:
        return float(self._rng.exponential(1.0 / self.rate_per_s))


class DiurnalArrivals(ArrivalProcess):
    """Inhomogeneous Poisson with a sinusoidal day/night rate.

    ``rate(t) = base * (1 + swing * sin(2π (t - phase)/period))`` with
    ``0 <= swing < 1`` so the rate stays positive. Sampling is exact
    via Lewis–Shedler thinning against the peak rate: candidate gaps
    are drawn from a homogeneous process at ``base * (1 + swing)`` and
    each candidate is accepted with probability ``rate(t)/peak``.
    """

    def __init__(
        self,
        base_rate_per_s: float,
        swing: float = 0.8,
        period_s: float = 86_400.0,
        phase_s: float = 0.0,
        seed: int = 0,
    ) -> None:
        _require_positive("arrival rate", base_rate_per_s)
        if not 0.0 <= swing < 1.0:
            raise SimulationError("swing must be in [0, 1)")
        _require_positive("period", period_s)
        if not math.isfinite(phase_s):
            raise SimulationError(f"phase must be finite, got {phase_s}")
        super().__init__(seed)
        self.base_rate_per_s = base_rate_per_s
        self.swing = swing
        self.period_s = period_s
        self.phase_s = phase_s
        self._peak = base_rate_per_s * (1.0 + swing)
        self._peak_scale = 1.0 / self._peak  # mean candidate gap

    def rate_at(self, t: float) -> float:
        """Instantaneous intensity at time ``t``."""
        return self.base_rate_per_s * (
            1.0 + self.swing * math.sin(2.0 * math.pi * (t - self.phase_s) / self.period_s)
        )

    def _gap(self) -> float:
        start = self._now
        t = start
        while True:
            t += float(self._rng.exponential(self._peak_scale))
            # ``random()`` is ``uniform()`` bit for bit (``0 + 1 *
            # next_double``) at a third of the call cost.
            if self._rng.random() <= self.rate_at(t) / self._peak:
                return t - start


class BurstyArrivals(ArrivalProcess):
    """Two-state MMPP: calm/burst regimes with exponential sojourns.

    The process sits in the *calm* state emitting at ``calm_rate`` and
    occasionally jumps into a *burst* state emitting at ``burst_rate``
    (typically an order of magnitude higher). Sojourn times in each
    state are exponential with the given means, so burst onsets are
    memoryless — the stress pattern a backpressure gate must absorb.
    """

    def __init__(
        self,
        calm_rate_per_s: float,
        burst_rate_per_s: float,
        mean_calm_s: float = 300.0,
        mean_burst_s: float = 30.0,
        seed: int = 0,
    ) -> None:
        _require_positive("calm arrival rate", calm_rate_per_s)
        _require_positive("burst arrival rate", burst_rate_per_s)
        if burst_rate_per_s < calm_rate_per_s:
            raise SimulationError("burst rate must be >= calm rate")
        _require_positive("calm sojourn mean", mean_calm_s)
        _require_positive("burst sojourn mean", mean_burst_s)
        super().__init__(seed)
        self.calm_rate_per_s = calm_rate_per_s
        self.burst_rate_per_s = burst_rate_per_s
        self.mean_calm_s = mean_calm_s
        self.mean_burst_s = mean_burst_s
        self._bursting = False
        # Absolute time at which the current regime ends.
        self._regime_end = float(self._rng.exponential(mean_calm_s))

    @property
    def bursting(self) -> bool:
        """Whether the process is currently in the burst regime."""
        return self._bursting

    def _gap(self) -> float:
        start = self._now
        t = start
        while True:
            rate = self.burst_rate_per_s if self._bursting else self.calm_rate_per_s
            candidate = t + float(self._rng.exponential(1.0 / rate))
            if candidate <= self._regime_end:
                return candidate - start
            # Regime flips before the candidate lands: discard it
            # (memorylessness makes the restart exact) and re-draw
            # from the regime boundary under the new rate.
            t = self._regime_end
            self._bursting = not self._bursting
            mean = self.mean_burst_s if self._bursting else self.mean_calm_s
            self._regime_end = t + float(self._rng.exponential(mean))
