"""Unit tests for tracing spans, trace buffers and span timings."""

import numpy as np

from repro.funcsim.config import FuncSimConfig
from repro.funcsim.engine import make_engine
from repro.obs import (
    SpanTimings,
    Trace,
    TraceBuffer,
    activate,
    current_trace,
    deactivate,
    span,
    start_trace,
)
from repro.xbar.config import CrossbarConfig


class TestTrace:
    def test_nested_spans(self):
        with start_trace("req") as trace:
            with span("outer"):
                with span("inner"):
                    pass
        d = trace.to_dict()
        assert [s["name"] for s in d["spans"]] == ["outer"]
        assert [s["name"] for s in d["spans"][0]["children"]] == ["inner"]
        outer = d["spans"][0]
        assert outer["duration_ms"] >= outer["children"][0]["duration_ms"]

    def test_span_is_noop_without_active_trace(self):
        assert current_trace() is None
        with span("ignored") as handle:
            assert handle.span is None  # the shared no-op handle

    def test_meta_round_trips(self):
        with start_trace("req", endpoint="/x") as trace:
            with span("stage", rows=3):
                pass
        d = trace.to_dict()
        assert d["meta"] == {"endpoint": "/x"}
        assert d["spans"][0]["meta"] == {"rows": 3}

    def test_add_span_grafts_under_open_span(self):
        trace = Trace("req")
        open_span = trace.begin("http")
        trace.add_span("queue-wait", trace.t0, 0.001)
        trace.end(open_span)
        d = trace.to_dict()
        assert [c["name"] for c in d["spans"][0]["children"]] == \
            ["queue-wait"]

    def test_max_spans_caps_and_counts_drops(self):
        trace = Trace("req", max_spans=2)
        for i in range(5):
            trace.add_span(f"s{i}", trace.t0, 0.0)
        d = trace.to_dict()
        assert len(d["spans"]) == 2
        assert d["dropped_spans"] == 3

    def test_exception_unwinds_open_spans(self):
        with start_trace("req") as trace:
            try:
                with span("outer"):
                    with span("inner"):
                        raise RuntimeError("boom")
            except RuntimeError:
                pass
            with span("after"):
                pass
        names = [s["name"] for s in trace.to_dict()["spans"]]
        assert "after" in names  # the stack recovered

    def test_start_trace_appends_to_buffer(self):
        buffer = TraceBuffer(maxlen=2)
        for i in range(3):
            with start_trace("req", trace_id=f"req-{i}"):
                pass
        kept = [t["trace_id"] for t in buffer.snapshot()]
        assert kept == []  # no buffer passed above
        for i in range(3):
            with start_trace("req", trace_id=f"req-{i}", buffer=buffer):
                pass
        kept = [t["trace_id"] for t in buffer.snapshot()]
        assert kept == ["req-1", "req-2"]  # bounded, oldest evicted
        assert len(buffer) == 2


class TestSpanTimings:
    def test_add_and_snapshot(self):
        t = SpanTimings()
        assert not t
        t.add("shard", 0.5)
        t.add("shard", 0.25)
        assert t
        assert t.snapshot() == {"shard": {"count": 2, "total_s": 0.75}}

    def test_merge_accepts_instance_and_snapshot_dict(self):
        a, b = SpanTimings(), SpanTimings()
        a.add("shard", 1.0)
        b.add("shard", 2.0)
        b.add("merge", 0.5)
        a.merge(b)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["shard"] == {"count": 3, "total_s": 5.0}
        assert snap["merge"] == {"count": 2, "total_s": 1.0}


class TestDeterminism:
    def test_engine_output_byte_identical_with_tracing(self):
        """Spans observe wall time only — tracing must not perturb RNG
        or numerics, on the calling thread or the shard pool."""
        rng = np.random.default_rng(0)
        w = rng.standard_normal((12, 8)) * 0.4
        x = rng.standard_normal((5, 12))
        for workers in (1, 2):
            engine = make_engine("analytical", CrossbarConfig(rows=8, cols=8),
                                 FuncSimConfig().with_precision(8),
                                 workers=workers)
            engine.shard_rows = 2
            engine.inline_work_threshold = 0
            prepared = engine.prepare(w)
            untraced = engine.matmul(x, prepared)
            trace = Trace("req")
            token = activate(trace)
            try:
                traced = engine.matmul(x, prepared)
            finally:
                deactivate(token)
            assert untraced.tobytes() == traced.tobytes()
            assert any(s.name == "engine-compute" for s in trace.spans())
            engine.close()

    def test_one_chunk_call_emits_engine_spans_only(self):
        """A serve-sized call records exactly the engine's two spans."""
        rng = np.random.default_rng(1)
        w = rng.standard_normal((12, 8)) * 0.4
        engine = make_engine("analytical", CrossbarConfig(rows=8, cols=8),
                             FuncSimConfig().with_precision(8), workers=2)
        prepared = engine.prepare(w)
        assert prepared.plan is not None
        trace = Trace("req")
        token = activate(trace)
        try:
            engine.matmul(rng.standard_normal((2, 12)), prepared)
        finally:
            deactivate(token)
        [top] = trace.spans()
        assert top.name == "engine-compute"
        assert [c.name for c in top.children] == ["fused-execute"]
        assert not top.children[0].children
        engine.close()
