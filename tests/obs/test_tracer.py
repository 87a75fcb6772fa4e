"""Tracer unit tests: spans, instants, tracks, disabled no-op, export."""

import pytest

from repro.obs import Observability
from repro.obs.trace import NULL_SPAN, NULL_TRACK, TraceEvent, Tracer


class Clock:
    """Minimal stand-in for the simulation environment (only ``now``)."""

    def __init__(self, now: float = 0.0):
        self.now = now


class TestDisabledTracer:
    def test_records_nothing(self):
        tracer = Tracer(Clock(), enabled=False)
        with tracer.span("a", "cat", tracer.track("p", "t"), x=1) as sp:
            sp.set(y=2)
        assert len(tracer) == 0
        assert tracer.to_chrome()["traceEvents"] == []

    def test_returns_shared_null_objects(self):
        tracer = Tracer(Clock(), enabled=False)
        assert tracer.span("a", "cat", NULL_TRACK) is NULL_SPAN
        assert tracer.track("p", "t") is NULL_TRACK
        assert tracer.track_names() == {}


class TestSpans:
    def test_span_bounds_from_clock(self):
        clock = Clock(10.0)
        tracer = Tracer(clock, enabled=True)
        with tracer.span("work", "task", tracer.track("w", "slot0"), op="m"):
            clock.now = 12.5
        (ev,) = tracer.spans()
        assert ev.ts == 10.0
        assert ev.dur == 2.5
        assert ev.end == 12.5
        assert ev.args == {"op": "m"}

    def test_nested_spans_contain_each_other(self):
        clock = Clock(0.0)
        tracer = Tracer(clock, enabled=True)
        track = tracer.track("w", "t")
        with tracer.span("outer", "task", track):
            clock.now = 1.0
            with tracer.span("inner", "task", track):
                clock.now = 2.0
            clock.now = 3.0
        inner = tracer.spans(name="inner")[0]
        outer = tracer.spans(name="outer")[0]
        assert outer.ts <= inner.ts
        assert inner.end <= outer.end
        assert inner.overlaps(outer)

    def test_set_attaches_late_args(self):
        tracer = Tracer(Clock(), enabled=True)
        with tracer.span("s", "c", tracer.track("p", "t")) as sp:
            sp.set(bytes=42)
        assert tracer.spans()[0].args["bytes"] == 42

    def test_exception_recorded_and_propagated(self):
        tracer = Tracer(Clock(), enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("s", "c", tracer.track("p", "t")):
                raise ValueError("boom")
        assert tracer.spans()[0].args["error"] == "ValueError"

    def test_complete_with_explicit_bounds(self):
        # A fact stated over an interval the model measured draws a span
        # with exactly those bounds.
        obs = Observability(Clock(5.0), tracing=True)
        obs.emit("h2d", "d", "copy:h2d", 3.0, 5.0, nbytes=1)
        (ev,) = obs.tracer.spans()
        assert (ev.ts, ev.dur) == (3.0, 2.0)

    def test_instant_at_current_time(self):
        obs = Observability(Clock(7.0), tracing=True)
        obs.emit("fault.injected", "p", "t", op="m")
        (ev,) = [e for e in obs.tracer.events if e.ph == "i"]
        assert ev.ts == 7.0
        assert ev.dur == 0.0

    def test_filters_by_cat_and_name(self):
        tracer = Tracer(Clock(), enabled=True)
        track = tracer.track("p", "t")
        with tracer.span("a", "cat1", track):
            pass
        with tracer.span("b", "cat2", track):
            pass
        assert [e.name for e in tracer.spans(cat="cat1")] == ["a"]
        assert [e.name for e in tracer.spans(name="b")] == ["b"]


class TestTracks:
    def test_ids_deterministic_first_use_order(self):
        tracer = Tracer(Clock(), enabled=True)
        t1 = tracer.track("worker0", "slot0")
        t2 = tracer.track("worker0", "slot1")
        t3 = tracer.track("worker1", "slot0")
        assert tracer.track("worker0", "slot0") == t1
        assert t1.pid == t2.pid != t3.pid
        assert t1.tid != t2.tid
        assert tracer.track_names() == {
            "worker0": ["slot0", "slot1"],
            "worker1": ["slot0"],
        }

    def test_overlap_detection(self):
        a = TraceEvent("a", "c", "X", 0.0, 2.0, 1, 1, None)
        b = TraceEvent("b", "c", "X", 1.0, 2.0, 1, 1, None)
        c = TraceEvent("c", "c", "X", 2.0, 1.0, 1, 1, None)
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)  # touching endpoints do not overlap


class TestChromeExport:
    def test_metadata_first_then_events_in_microseconds(self):
        clock = Clock(0.0)
        obs = Observability(clock, tracing=True)
        with obs.span("job", "worker0", "slot0", job="j"):
            clock.now = 0.5
        obs.emit("fault.injected", "worker0", "slot0", op="m")
        events = obs.tracer.to_chrome()["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases == ["M", "M", "X", "i"]
        span = events[2]
        assert span["dur"] == pytest.approx(0.5e6)
        assert events[3]["s"] == "t"
        assert events[0]["name"] == "process_name"
        assert events[0]["args"]["name"] == "worker0"
