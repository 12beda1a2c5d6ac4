"""Pool-death hardening in :func:`repro.parallel.map_with_pool_retry`."""

import os
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor

import pytest

import repro.parallel as parallel
from repro.parallel import map_with_pool_retry


def double(x):
    return 2 * x


class FlakyExecutor:
    """Executor double whose map() raises for the first ``failures``
    pools built, then behaves; built via a monkeypatched make_executor
    so the retry loop is exercised without killing real workers."""

    built = 0

    def __init__(self, failures, exc):
        self.failures = failures
        self.exc = exc

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, payloads):
        type(self).built += 1
        if type(self).built <= self.failures:
            raise self.exc
        return map(fn, payloads)


@pytest.fixture
def flaky(monkeypatch):
    def install(failures, exc=BrokenExecutor("worker died")):
        FlakyExecutor.built = 0
        monkeypatch.setattr(
            parallel, "make_executor", lambda w: FlakyExecutor(failures, exc)
        )

    return install


def test_plain_success_thread_pool(monkeypatch):
    # The pool make_executor degrades to where processes cannot start.
    monkeypatch.setattr(
        parallel, "make_executor", lambda w: ThreadPoolExecutor(max_workers=w)
    )
    assert map_with_pool_retry(double, [1, 2, 3], workers=2) == [2, 4, 6]


def test_broken_pool_once_is_rebuilt_and_replayed(flaky):
    flaky(failures=1)
    assert map_with_pool_retry(double, [1, 2, 3], workers=2) == [2, 4, 6]
    assert FlakyExecutor.built == 2  # one death, one full replay


def test_broken_pool_twice_gives_up_to_serial_fallback(flaky):
    flaky(failures=2)
    assert map_with_pool_retry(double, [1], workers=2) is None


def test_non_pool_errors_are_not_retried(flaky):
    flaky(failures=2, exc=RuntimeError("cannot schedule new futures"))
    assert map_with_pool_retry(double, [1], workers=2) is None
    assert FlakyExecutor.built == 1  # no pointless rebuild


def _die_in_worker(payload):
    """Kills every pool worker; only the parent's serial fallback
    returns a result."""
    if os.getpid() != payload["parent"]:
        os._exit(1)
    return payload["x"]


class TestBrokenPool:
    def test_killed_workers_fall_back_to_serial(self):
        """Workers dying in both the first pool and its one rebuild must
        not lose the sweep: the serial fallback completes it in order."""
        from repro.experiments.common import run_sharded_sweep

        payloads = [{"x": i, "parent": os.getpid()} for i in range(3)]
        assert run_sharded_sweep(_die_in_worker, payloads, workers=2) == [0, 1, 2]


@pytest.mark.parametrize("pool", ["process", "thread"])
def test_traced_sweep_on_two_workers_records_the_serial_spans(monkeypatch, pool):
    """Spans recorded on pool workers come home with their results; on
    the thread fallback they landed in the shared tracer already and
    are not merged twice."""
    from collections import Counter

    from repro.experiments import fig11_scalability
    from repro.obs import get_tracer

    if pool == "thread":
        monkeypatch.setattr(parallel, "make_executor", lambda w: ThreadPoolExecutor(max_workers=w))
    scales = ((4, 2, True, None), (8, 1, False, None))
    tracer = get_tracer()
    tracer.enable()
    try:
        spans = []
        for workers in (1, 2):
            tracer.clear()
            fig11_scalability.run(scales=scales, workers=workers)
            spans.append(Counter(r.name for r in tracer.records()))
    finally:
        tracer.disable()
        tracer.clear()
    serial, sharded = spans
    assert serial["placement.solve"] > 0
    assert sharded == serial
