"""Registry semantics: registration, threading, snapshot/delta/merge."""

import threading

import pytest

from repro.obs import MetricError, MetricsRegistry
from repro.obs.registry import get_registry


class TestRegistration:
    def test_idempotent_registration_returns_same_instrument(self):
        reg = MetricsRegistry("t")
        a = reg.counter("x.events", unit="count", owner="tests")
        b = reg.counter("x.events")
        assert a is b

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry("t")
        reg.counter("x.events")
        with pytest.raises(MetricError, match="already registered"):
            reg.gauge("x.events")

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry("t")
        with pytest.raises(MetricError):
            reg.counter("")
        with pytest.raises(MetricError):
            reg.counter("has space")

    def test_counter_cannot_decrease(self):
        reg = MetricsRegistry("t")
        with pytest.raises(MetricError):
            reg.counter("x.c").inc(-1)

    def test_value_of_unknown_metric_raises(self):
        with pytest.raises(MetricError, match="unknown"):
            MetricsRegistry("t").value("nope")


class TestInstruments:
    def test_counter_set_max_never_decreases(self):
        c = MetricsRegistry("t").counter("x.c")
        c.set_max(10)
        c.set_max(4)
        assert c.value == 10
        c.set_max(12)
        assert c.value == 12

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry("t").gauge("x.g")
        g.set(3.5)
        g.set(1.0)
        assert g.value == 1.0

    def test_histogram_summary(self):
        h = MetricsRegistry("t").histogram("x.h")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == 6.0
        assert h.minimum == 1.0
        assert h.maximum == 3.0
        assert h.mean == 2.0

    @pytest.mark.parametrize(
        "values",
        [
            # Cancellation: a left-to-right sum reads 0.0 + 3 + ..., a
            # compensated one (builtin ``sum`` from Python 3.12) 0.1 + ...
            [0.1, 1e16, 3, -1e16, 0.2, -0.5, 7.25, 1e-300],
            # A NaN is never an extreme, as in ``observe``.
            [float("nan"), 4.0, -1.0, float("nan")],
            [],
        ],
        ids=["cancellation", "nan", "empty"],
    )
    def test_observe_many_equals_one_observe_each(self, values):
        one, many = (MetricsRegistry("t").histogram("x.h") for _ in range(2))
        for h in (one, many):
            h.observe(2.0)
        for v in values:
            one.observe(v)
        many.observe_many(iter(values))
        assert repr(many._snapshot()) == repr(one._snapshot())
        assert many.count == 1 + len(values)

    def test_observe_many_sums_left_to_right(self):
        h = MetricsRegistry("t").histogram("x.h")
        h.observe_many([0.1, 1e16, -1e16])
        assert h.total == (0.1 + 1e16) - 1e16 == 0.0

    def test_reset_zeroes_values_but_keeps_catalog(self):
        reg = MetricsRegistry("t")
        reg.counter("x.c").inc(5)
        reg.histogram("x.h").observe(1.0)
        reg.reset()
        assert reg.value("x.c") == 0
        assert reg.names() == ["x.c", "x.h"]


class TestThreading:
    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry("t")
        counter = reg.counter("x.c")
        hist = reg.histogram("x.h")
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                counter.inc()
                hist.observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * per_thread
        assert hist.count == n_threads * per_thread
        assert hist.total == float(n_threads * per_thread)


class TestSnapshotDeltaMerge:
    def test_snapshot_is_json_shaped(self):
        reg = MetricsRegistry("t")
        reg.counter("x.c").inc()
        snap = reg.snapshot()
        assert snap["registry"] == "t"
        assert snap["metrics"]["x.c"]["kind"] == "counter"


def test_global_registry_carries_the_catalog():
    reg = get_registry()
    for name in ("trmin.full_computes", "placement.solves",
                 "transport.retransmissions", "network.messages_dropped",
                 "failover.takeovers", "chaos.runs"):
        assert name in reg, name
