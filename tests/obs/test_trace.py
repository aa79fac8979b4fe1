"""Tests for the hierarchical span tracer (repro.obs.trace)."""

import gc

import pytest

from repro import obs
from repro.obs.trace import NULL_SPAN, Span, Tracer, format_span_tree


class FakeClock:
    """Deterministic clock: advances by a fixed step per call."""

    def __init__(self, step: float = 0.5):
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner_a"):
                pass
            with tracer.span("inner_b"):
                pass
        root = tracer.finish()
        assert [c.name for c in root.children] == ["outer"]
        outer = root.children[0]
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]

    def test_durations_come_from_the_clock(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("timed"):
            pass
        span = tracer.finish().children[0]
        assert span.duration_s == pytest.approx(1.0)
        assert span.duration_ms == pytest.approx(1000.0)

    def test_attributes_and_counters(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("work", label="x") as span:
            span.annotate(extra=3)
            span.incr("items", 2)
            span.incr("items", 3)
        done = tracer.finish().children[0]
        assert done.attributes == {"label": "x", "extra": 3}
        assert done.counters == {"items": 5}

    def test_tracer_incr_hits_current_span_and_registry(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("stage"):
            tracer.incr("widgets", 4)
        assert tracer.finish().children[0].counters == {"widgets": 4}
        assert tracer.metrics.counters["widgets"] == 4

    def test_current_span_tracks_nesting(self):
        tracer = Tracer(clock=FakeClock())
        assert tracer.current is tracer.root
        with tracer.span("a") as a:
            assert tracer.current is a
        assert tracer.current is tracer.root

    def test_exception_annotates_and_closes_span(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        span = tracer.finish().children[0]
        assert span.end_s is not None
        assert "ValueError" in span.attributes["error"]

    def test_span_durations_feed_the_metrics_histograms(self):
        tracer = Tracer(clock=FakeClock(step=1.0))
        with tracer.span("stage"):
            pass
        with tracer.span("stage"):
            pass
        summary = tracer.metrics.histograms["span.stage"]
        assert summary.count == 2

    def test_finish_closes_spans_left_open(self):
        tracer = Tracer(clock=FakeClock())
        context = tracer.span("dangling")
        context.__enter__()
        root = tracer.finish()
        assert root.children[0].end_s is not None
        assert root.end_s is not None


class TestSpanSerialisation:
    def test_to_dict_shape(self):
        tracer = Tracer(clock=FakeClock(step=2.0))
        with tracer.span("outer", kind="demo") as span:
            span.incr("n", 1)
            with tracer.span("inner"):
                pass
        data = tracer.finish().to_dict()
        assert data["name"] == "trace"
        outer = data["children"][0]
        assert outer["name"] == "outer"
        assert outer["attributes"] == {"kind": "demo"}
        assert outer["counters"] == {"n": 1}
        assert outer["children"][0]["name"] == "inner"
        assert outer["duration_ms"] > 0

    def test_to_dict_is_json_serialisable(self):
        import json

        tracer = Tracer(clock=FakeClock())
        with tracer.span("s", label="x"):
            pass
        json.dumps(tracer.to_dict())  # must not raise


class TestFormatSpanTree:
    def test_renders_nested_outline(self):
        tracer = Tracer(clock=FakeClock())
        with tracer.span("compile"):
            with tracer.span("parse"):
                pass
            with tracer.span("lower"):
                pass
        text = format_span_tree(tracer.finish())
        lines = text.splitlines()
        assert lines[0].startswith("trace")
        assert any("`- compile" in line for line in lines)
        assert any("|- parse" in line for line in lines)
        assert any("`- lower" in line for line in lines)
        assert all("ms" in line for line in lines)

    def test_long_extras_are_truncated(self):
        span = Span("busy")
        span.end_s = span.start_s = 0.0
        for i in range(12):
            span.incr(f"counter_{i}")
        text = format_span_tree(span)
        assert "(+6 more)" in text


class TestModuleLevelApi:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert obs.span("anything") is NULL_SPAN
        obs.incr("nothing")          # must not raise
        obs.annotate(ignored=True)   # must not raise
        obs.observe("nothing", 1.0)  # must not raise

    def test_null_span_supports_span_surface(self):
        with obs.span("off") as span:
            span.annotate(a=1)
            span.incr("b")
        assert span is NULL_SPAN

    def test_tracing_context_installs_and_restores(self):
        assert not obs.is_enabled()
        with obs.tracing() as tracer:
            assert obs.is_enabled()
            assert obs.current_tracer() is tracer
            with obs.span("visible") as span:
                assert span is not NULL_SPAN
                obs.incr("hits", 2)
        assert not obs.is_enabled()
        assert tracer.metrics.counters["hits"] == 2

    def test_tracing_contexts_nest(self):
        with obs.tracing() as outer:
            with obs.tracing() as inner:
                assert obs.current_tracer() is inner
            assert obs.current_tracer() is outer

    def test_tracing_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with obs.tracing():
                raise RuntimeError("boom")
        assert not obs.is_enabled()

    def test_enable_disable(self):
        tracer = obs.enable()
        try:
            assert obs.is_enabled()
            with obs.span("work"):
                obs.incr("n")
        finally:
            root = obs.disable()
        assert not obs.is_enabled()
        assert root.children[0].name == "work"
        assert tracer.metrics.counters["n"] == 1


class TestGcCounters:
    NAMES = ("runtime.gc.collections", "runtime.gc.pause_ms")

    def test_collections_and_pauses_are_counted_under_a_tracer(self):
        with obs.tracing() as tracer:
            gc.collect()
        counters = tracer.metrics.counters
        assert counters["runtime.gc.collections"] >= 1
        assert counters["runtime.gc.pause_ms"] >= 0
        # registry only: a collection is not work of the span it lands in
        assert not any(name in tracer.root.counters for name in self.NAMES)

    def test_enable_hooks_the_collector_and_disable_unhooks_it(self):
        tracer = obs.enable()
        try:
            gc.collect()
        finally:
            obs.disable()
        counted = dict(tracer.metrics.counters)
        gc.collect()
        assert all(name in counted for name in self.NAMES)
        assert tracer.metrics.counters == counted

    def test_nothing_is_counted_without_a_tracer(self):
        assert not obs.is_enabled()
        assert obs._on_gc not in gc.callbacks
        idle = Tracer()
        gc.collect()
        assert not any(name in idle.metrics.counters for name in self.NAMES)
