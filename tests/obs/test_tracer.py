"""Tracer behaviour: no-op fast path, nesting, ring buffer, exporters."""

import json
import os

import pytest

from repro.obs import SpanRecord, Tracer, get_tracer, trace_event, trace_span
from repro.obs.tracer import _NOOP_SPAN


@pytest.fixture()
def tracer():
    t = Tracer(enabled=True)
    yield t
    t.clear()


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_noop(self):
        t = Tracer(enabled=False)
        assert t.span("anything") is t.span("anything") is _NOOP_SPAN

    def test_global_trace_span_returns_noop_when_disabled(self):
        assert not get_tracer().enabled  # default state for the suite
        assert trace_span("x") is _NOOP_SPAN

    def test_disabled_records_nothing(self):
        t = Tracer(enabled=False)
        with t.span("x"):
            pass
        t.event("y")
        assert len(t) == 0

    def test_noop_span_supports_tag(self):
        with trace_span("x") as span:
            span.tag(status="ok")  # must not raise


class TestRecording:
    def test_span_records_name_duration_and_tags(self, tracer):
        with tracer.span("phase.a", {"size": 3}) as span:
            span.tag(status="done")
        (rec,) = tracer.records()
        assert rec.name == "phase.a"
        assert rec.duration_ns >= 0
        assert dict(rec.tags) == {"size": 3, "status": "done"}
        assert rec.phase == "X"

    def test_nested_spans_track_depth(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1

    def test_depth_restored_after_exception(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        with tracer.span("after"):
            pass
        assert {r.depth for r in tracer.records()} == {0}

    def test_event_is_instant(self, tracer):
        tracer.event("tick", attempt=2)
        (rec,) = tracer.records()
        assert rec.phase == "i"
        assert rec.duration_ns == 0
        assert dict(rec.tags) == {"attempt": 2}

    def test_ring_buffer_evicts_oldest(self):
        t = Tracer(max_records=4, enabled=True)
        for i in range(10):
            with t.span(f"s{i}"):
                pass
        names = [r.name for r in t.records()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_summary_aggregates_per_name(self, tracer):
        for _ in range(3):
            with tracer.span("phase.a"):
                pass
        summary = tracer.summary()
        assert summary["phase.a"]["count"] == 3
        assert summary["phase.a"]["total_s"] >= 0
        assert "mean_s" in summary["phase.a"]


class TestExporters:
    def test_chrome_trace_document_shape(self, tracer, tmp_path):
        with tracer.span("outer", {"k": "v"}):
            tracer.event("mark")
        path = tmp_path / "trace.json"
        count = tracer.export_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert count == len(events) == 2
        complete = next(e for e in events if e["ph"] == "X")
        instant = next(e for e in events if e["ph"] == "i")
        assert complete["name"] == "outer"
        assert complete["args"] == {"k": "v"}
        assert "dur" in complete
        assert instant["s"] == "t"
        # Timeline is re-based to zero.
        assert min(e["ts"] for e in events) == 0.0

    def test_merged_spans_keep_the_worker_pid(self, tracer):
        with tracer.span("parent"):
            pass
        worker = Tracer(enabled=True)
        with worker.span("worker", {"k": 8}):
            pass
        tracer.merge(worker.records(), pid=4242)
        events = {e["name"]: e for e in tracer.chrome_trace()["traceEvents"]}
        assert events["worker"]["pid"] == 4242
        assert events["worker"]["args"] == {"k": 8}
        assert events["parent"]["pid"] == os.getpid()


class TestGlobalHelpers:
    def test_trace_span_and_event_record_when_enabled(self):
        t = get_tracer()
        t.enable()
        try:
            with trace_span("global.span", size=1):
                trace_event("global.event")
            names = [r.name for r in t.records()]
            assert "global.span" in names and "global.event" in names
        finally:
            t.disable()
            t.clear()


def test_span_record_is_frozen():
    rec = SpanRecord(name="x", start_ns=0, duration_ns=1, depth=0, thread_id=0)
    with pytest.raises(Exception):
        rec.name = "y"
