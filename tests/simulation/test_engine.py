"""Tests for the discrete-event engine."""

import random

import pytest

from repro.errors import SimulationError
from repro.simulation import SimulationEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(3.0, lambda e: fired.append("c"))
        engine.schedule_at(1.0, lambda e: fired.append("a"))
        engine.schedule_at(2.0, lambda e: fired.append("b"))
        engine.run_until(100.0)
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        engine = SimulationEngine()
        fired = []
        for tag in "abc":
            engine.schedule_at(5.0, lambda e, t=tag: fired.append(t))
        engine.run_until(100.0)
        assert fired == ["a", "b", "c"]

    def test_schedule_after_is_relative(self):
        engine = SimulationEngine(start_time=10.0)
        times = []
        engine.schedule_after(2.5, lambda e: times.append(e.now))
        engine.run_until(100.0)
        assert times == [12.5]

    def test_past_scheduling_rejected(self):
        engine = SimulationEngine(start_time=5.0)
        with pytest.raises(SimulationError, match="before now"):
            engine.schedule_at(4.0, lambda e: None)
        with pytest.raises(SimulationError, match="negative delay"):
            engine.schedule_after(-1.0, lambda e: None)

    def test_cancel_skips_event(self):
        engine = SimulationEngine()
        fired = []
        event = engine.schedule_at(1.0, lambda e: fired.append(1))
        event.cancel()
        engine.run_until(100.0)
        assert fired == []

    def test_handlers_can_schedule_followups(self):
        engine = SimulationEngine()
        fired = []

        def first(e):
            fired.append(e.now)
            e.schedule_after(1.0, lambda e2: fired.append(e2.now))

        engine.schedule_at(1.0, first)
        engine.run_until(100.0)
        assert fired == [1.0, 2.0]


class TestRunUntil:
    def test_clock_advances_to_end(self):
        engine = SimulationEngine()
        engine.run_until(100.0)
        assert engine.now == 100.0

    def test_future_events_stay_queued(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule_at(50.0, lambda e: fired.append(1))
        engine.schedule_at(150.0, lambda e: fired.append(2))
        engine.run_until(100.0)
        assert fired == [1]
        assert engine.pending_events == 1
        engine.run_until(200.0)
        assert fired == [1, 2]

    def test_backwards_run_rejected(self):
        engine = SimulationEngine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.run_until(5.0)

    def test_max_events_stops_early(self):
        engine = SimulationEngine()
        for t in range(10):
            engine.schedule_at(float(t), lambda e: None)
        processed = engine.run_until(100.0, max_events=4)
        assert processed == 4

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        for t in range(5):
            engine.schedule_at(float(t), lambda e: None)
        engine.run_until(100.0)
        assert engine.events_processed == 5


class TestPeriodic:
    def test_periodic_fires_repeatedly(self):
        engine = SimulationEngine()
        ticks = []
        engine.schedule_periodic(10.0, lambda e: ticks.append(e.now))
        engine.run_until(35.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_first_delay_override(self):
        engine = SimulationEngine()
        ticks = []
        engine.schedule_periodic(10.0, lambda e: ticks.append(e.now), first_delay=0.0)
        engine.run_until(25.0)
        assert ticks == [0.0, 10.0, 20.0]

    def test_condition_stops_chain(self):
        engine = SimulationEngine()
        ticks = []
        engine.schedule_periodic(
            5.0, lambda e: ticks.append(e.now), condition=lambda: len(ticks) < 3
        )
        engine.run_until(100.0)
        assert len(ticks) == 3

    def test_invalid_period(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_periodic(0.0, lambda e: None)

    def test_cancelling_the_handle_mid_chain_stops_it(self):
        engine = SimulationEngine()
        ticks = []
        handle = engine.schedule_periodic(10.0, lambda e: ticks.append(e.now))
        engine.run_until(25.0)
        handle.cancel()
        engine.run_until(100.0)
        assert ticks == [10.0, 20.0]
        assert engine.pending_events == 0

    def test_a_handler_may_cancel_its_own_chain(self):
        engine = SimulationEngine()
        ticks = []

        def tick(e):
            ticks.append(e.now)
            if len(ticks) == 2:
                handle.cancel()

        handle = engine.schedule_periodic(5.0, tick, first_delay=0.0)
        engine.run_until(100.0)
        assert ticks == [0.0, 5.0]
        assert engine._heap == []

    def test_one_event_object_per_chain(self):
        engine = SimulationEngine()
        handle = engine.schedule_periodic(1.0, lambda e: None)
        for end in (1.5, 2.5, 3.5):
            engine.run_until(end)
            assert [entry[2] for entry in engine._heap] == [handle]
        assert handle.time == 4.0

    def test_firing_order_matches_a_closure_chain(self):
        """The re-armed chain fires in exactly the order the old chain —
        a fresh ``schedule_after`` after each firing — gave, with
        one-shot events and follow-ups landing on the same instants."""

        def closure_chain(engine, period, handler, label, first_delay, condition):
            def tick(e):
                if condition is not None and not condition():
                    return
                handler(e)
                e.schedule_after(period, tick, label)

            engine.schedule_after(period if first_delay is None else first_delay, tick, label)

        def run(periodic):
            rng = random.Random(7)
            engine = SimulationEngine()
            fired = []

            def note(tag):
                def handler(e):
                    fired.append((e.now, tag))
                    if rng.random() < 0.3:  # a follow-up on a shared instant
                        e.schedule_after(float(rng.choice((0, 1, 2, 3))),
                                         lambda e2: fired.append((e2.now, tag + "'")))
                return handler

            for i, (period, first) in enumerate([(1.0, None), (2.0, 0.0), (3.0, 1.0), (1.0, 0.0)]):
                count = [0]

                def limited(e, i=i, count=count):
                    count[0] += 1
                    note(f"p{i}")(e)

                periodic(engine, period, limited, f"p{i}", first,
                         (lambda count=count: count[0] < 9) if i == 2 else None)
            for j in range(40):
                engine.schedule_at(float(rng.randrange(0, 20)), note(f"o{j}"))
            engine.run_until(20.0)
            return fired

        new = run(lambda engine, *args: engine.schedule_periodic(*args))
        assert new == run(closure_chain)
        assert len(new) > 100


NAN = float("nan")


class TestNonFiniteTimes:
    """NaN compares False against everything, so ``time < now`` guards
    used to wave it through."""

    def test_schedule_at_nan_rejected(self):
        # Accepted, it fired first and set the clock to NaN, then back.
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(NAN, lambda e: None)
        assert engine.pending_events == 0

    def test_schedule_after_nan_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_after(NAN, lambda e: None)

    def test_schedule_periodic_nan_rejected(self):
        # Accepted, its NaN-time ticks made ``run_until`` spin forever.
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_periodic(NAN, lambda e: None)
        with pytest.raises(SimulationError):
            engine.schedule_periodic(1.0, lambda e: None, first_delay=NAN)

    def test_run_until_nan_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.run_until(NAN)


#: Few distinct offsets, so equal-time ties are the common case.
_OFFSETS = (0.0, 0.0, 0.5, 1.0, 1.0, 2.5)


def _drive_random_schedule(seed):
    """Random schedule with ties, cancellations and handlers that
    schedule at ``now``, driven by a random mix of one-event, bounded
    and horizon ``run_until`` calls. A model of the pending set checks every
    firing against the minimum ``(time, insertion)`` of what is left."""
    rng = random.Random(seed)
    engine = SimulationEngine()
    pending = {}  # insertion index -> (time, handle)
    scheduled = []  # (time, insertion index)
    fired = []
    cancelled = set()

    def add(time):
        ident = len(scheduled)
        handle = engine.schedule_at(time, lambda e, i=ident: handler(e, i))
        pending[ident] = (time, handle)
        scheduled.append((time, ident))

    def cancel_one():
        if pending:
            ident = rng.choice(sorted(pending))
            pending.pop(ident)[1].cancel()
            cancelled.add(ident)

    def handler(e, ident):
        assert ident == min(pending, key=lambda i: (pending[i][0], i))
        assert e.now == pending.pop(ident)[0]
        fired.append(ident)
        roll = rng.random()
        if roll < 0.35:
            add(e.now)  # same instant: must fire after everything already due
        elif roll < 0.6:
            add(e.now + rng.choice(_OFFSETS))
        if rng.random() < 0.15:
            cancel_one()

    for _ in range(rng.randint(5, 40)):
        add(rng.choice(_OFFSETS) * rng.randint(0, 4))
    while pending:
        roll = rng.random()
        if roll < 0.3:
            due = min(time for time, _ in pending.values())
            assert engine.run_until(due, max_events=1) == 1
        elif roll < 0.8:
            end = engine.now + rng.choice(_OFFSETS)
            limit = rng.choice((None, 1, 2, 5))
            processed = engine.run_until(end, max_events=limit)
            if limit is None:
                assert engine.now == end
                assert all(time > end for time, _ in pending.values())
            else:
                assert processed <= limit
        else:
            engine.run_until(engine.now + 20.0, max_events=rng.choice((None, 1, 3)))
        if rng.random() < 0.2:
            cancel_one()
        assert engine.pending_events == len(pending)
    assert engine.run_until(engine.now + 20.0) == 0
    live = [ident for time, ident in sorted(scheduled) if ident not in cancelled]
    assert fired == live


class TestFiringOrderProperty:
    @pytest.mark.parametrize("seed", range(60))
    def test_fires_in_time_then_insertion_order(self, seed):
        _drive_random_schedule(seed)
