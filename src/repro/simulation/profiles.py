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

import bisect
import math
from typing import List, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simulation.draws import exponential_walk

#: Raw words a :class:`DiurnalArrivals` block pulls (≈ half as many
#: candidates).
_BLOCK_WORDS = 4096

#: How close a thinning draw may come to its bound before the bound is
#: recomputed with ``math.sin``: ``np.sin`` and ``math.sin`` are each
#: within a few ulp of ``sin``, far inside this.
_SIN_SLACK = 2.0**-40


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

    def arrivals_through(self, at: float, limit: float) -> Tuple[List[float], float]:
        """``at`` (an arrival the caller took) and every later arrival at
        or before ``limit``, in order, plus the first arrival after
        ``limit``, which is taken too; ``([], at)`` if ``at > limit``."""
        due: List[float] = []
        while at <= limit:
            due.append(at)
            at = self.next_arrival()
        return due, at


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

    Each candidate is ``t += exponential(1/peak)`` and is kept when
    ``random() <= rate_at(t)/peak``; a kept one is the next arrival,
    ``start + (t - start)`` from the previous arrival ``start``, and the
    next gap starts there. The arrivals are produced a block of raw
    PCG64 words at a time (:func:`repro.simulation.draws.exponential_walk`
    with one gap word for the ``random()``) and are exactly those of that
    candidate-by-candidate loop on ``default_rng(seed)``
    (``tests.oracles.soak.ScalarDiurnalArrivals``); only the generator
    runs ahead of the arrivals returned so far.
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
        # The block form's clock: ``_now`` is the last arrival drawn (the
        # start of the next gap), ``_t`` the last candidate.
        self._t = 0.0
        self._words = np.empty(0, dtype=np.uint64)  # drawn, not yet used
        self._used = 0  # words used by every candidate drawn
        #: Arrivals drawn ahead, the next one returned at ``_i``, and the
        #: number of raw words used through each.
        self._times: List[float] = []
        self._ends = np.empty(0, dtype=np.int64)
        self._i = 0

    def rate_at(self, t):
        """Instantaneous intensity at time ``t``: a float through
        ``math.sin``, or elementwise on an array through ``np.sin``."""
        sin = np.sin if isinstance(t, np.ndarray) else math.sin
        return self.base_rate_per_s * (
            1.0 + self.swing * sin(2.0 * math.pi * (t - self.phase_s) / self.period_s)
        )

    def next_arrival(self) -> float:
        while self._i == len(self._times):
            self._draw_block()
        self._i += 1
        return self._times[self._i - 1]

    def arrivals_through(self, at: float, limit: float) -> Tuple[List[float], float]:
        due: List[float] = []
        if at > limit:
            return due, at
        due.append(at)
        while True:
            times, i = self._times, self._i
            j = bisect.bisect_right(times, limit, i)
            due += times[i:j]
            if j < len(times):
                self._i = j + 1
                return due, times[j]
            self._draw_block()

    def _draw_block(self) -> None:
        """Thin one block's candidates into ``_times``, replacing the
        arrivals already returned."""
        words = np.concatenate((self._words, self._rng.bit_generator.random_raw(_BLOCK_WORDS)))
        values, tails = exponential_walk(words, gap=1)
        if not len(tails):
            self._words = words
            return
        used = int(tails[-1]) + 1
        self._words = words[used:]
        # ``exponential(scale)`` is ``scale * standard_exponential()``;
        # the word after each draw is its ``random()``.
        gaps = self._peak_scale * values
        draws = (words[tails] >> np.uint64(11)) * 2.0**-53
        times: List[float] = []
        kept: List[np.ndarray] = []
        t, start, first = self._t, self._now, 0
        while True:
            # ``cumsum`` adds left to right, as the loop's ``t += gap``.
            clock = np.cumsum(np.concatenate(((t,), gaps[first:])))[1:]
            hits = np.flatnonzero(self._keep(clock, draws[first:]))
            arrivals = clock[hits]
            previous = np.concatenate(((start,), arrivals[:-1]))
            # An arrival is ``start + (t - start)``: ``t`` itself while
            # ``t <= 2 * start`` (Sterbenz), so it moves only near the
            # stream's start; the clock then restarts from it.
            moved = np.flatnonzero(previous + (arrivals - previous) != arrivals)
            if not len(moved):
                times += arrivals.tolist()
                kept.append(first + hits)
                if len(hits):
                    start = times[-1]
                t = float(clock[-1]) if len(clock) else t
                break
            k = int(moved[0])
            times += arrivals[:k].tolist()
            start = t = float(previous[k] + (arrivals[k] - previous[k]))
            times.append(start)
            kept.append(first + hits[: k + 1])
            first += int(hits[k]) + 1
        self._t, self._now = t, start
        self._times = times
        self._ends = self._used + tails[np.concatenate(kept)] + 1
        self._i = 0
        self._used += used

    def _keep(self, clock: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """``draws <= rate_at(clock) / peak`` elementwise, as the scalar
        test decides it. numpy's ``sin`` may differ from ``math.sin`` in
        the last bits, so a draw within ``_SIN_SLACK`` of its bound is
        decided again by ``rate_at``."""
        bound = self.rate_at(clock) / self._peak
        keep = draws <= bound
        for i in np.flatnonzero(np.abs(draws - bound) <= _SIN_SLACK).tolist():
            keep[i] = draws[i] <= self.rate_at(float(clock[i])) / self._peak
        return keep


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
