"""Tracing: deterministic span timing, the ring buffer, and the log seam.

Every timing here runs against a :class:`ManualClock`, so span offsets and
durations are exact equalities -- the same injectable seam that keeps the
production payloads deterministic makes the tests precise.
"""

from __future__ import annotations

import io
import json
import threading

import pytest

from repro.obs import (
    JsonLogger,
    ManualClock,
    Tracer,
    new_trace_id,
    trace_sink,
    valid_trace_id,
)


class TestClock:
    def test_manual_clock_advances_both_readings(self):
        clock = ManualClock(start=10.0)
        clock.advance(2.5)
        assert clock.perf() == 12.5
        assert clock.wall() == 12.5

    def test_manual_clock_cannot_run_backwards(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)


class TestTraceIds:
    def test_minted_ids_are_sixteen_hex_chars_and_valid(self):
        trace_id = new_trace_id()
        assert len(trace_id) == 16
        assert valid_trace_id(trace_id)

    @pytest.mark.parametrize("value", ["abc", "a-b_c.d:e", "x" * 128])
    def test_propagation_safe_ids_are_adopted(self, value):
        assert valid_trace_id(value)
        assert Tracer().begin("GET /x", value).trace_id == value

    @pytest.mark.parametrize("value", [None, "", "has space", "x" * 129, "a\nb"])
    def test_unsafe_ids_are_replaced_with_fresh_ones(self, value):
        assert not valid_trace_id(value)
        trace = Tracer().begin("GET /x", value)
        assert trace.trace_id != value
        assert valid_trace_id(trace.trace_id)


class TestSpans:
    def test_span_offsets_and_durations_are_exact(self):
        clock = ManualClock()
        tracer = Tracer(shard=1, clock=clock)
        trace = tracer.begin("GET /v1/matrix/pairs", "trace-1")
        with tracer.activate(trace):
            clock.advance(0.25)
            with tracer.span("cache.lookup", kind="pairs") as handle:
                clock.advance(0.5)
                handle.tag(result="miss")
        tracer.finish(trace, status=200)

        payload = trace.to_json()
        assert payload["trace_id"] == "trace-1"
        assert payload["shard"] == 1
        assert payload["status"] == 200
        assert payload["duration_ms"] == 750.0
        assert payload["spans"] == [
            {
                "name": "cache.lookup",
                "start_ms": 250.0,
                "duration_ms": 500.0,
                "tags": {"kind": "pairs", "result": "miss"},
            }
        ]

    def test_span_without_an_active_trace_is_inert(self):
        tracer = Tracer()
        with tracer.span("orphan") as handle:
            handle.tag(ignored="yes")
        assert tracer.recent() == []

    def test_explicit_trace_reaches_across_threads(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        trace = tracer.begin("GET /x")

        def worker() -> None:
            # Foreign thread: no thread-local current trace here.
            assert tracer.current() is None
            with tracer.span("pool.task", trace=trace, owner="1"):
                clock.advance(0.1)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        (span,) = trace.spans()
        assert span.name == "pool.task"
        assert span.tags == {"owner": "1"}

    def test_activation_restores_the_previous_trace(self):
        tracer = Tracer()
        outer = tracer.begin("outer")
        inner = tracer.begin("inner")
        with tracer.activate(outer):
            with tracer.activate(inner):
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None


class TestRingBuffer:
    def test_ring_keeps_only_the_newest_traces(self):
        tracer = Tracer(buffer_size=3)
        for index in range(5):
            tracer.finish(tracer.begin(f"GET /{index}"), status=200)
        names = [trace.name for trace in tracer.recent(limit=10)]
        assert names == ["GET /4", "GET /3", "GET /2"]

    def test_find_returns_matches_oldest_first(self):
        tracer = Tracer(buffer_size=8)
        for status in (200, 304):
            tracer.finish(tracer.begin("GET /x", "shared-id"), status=status)
        tracer.finish(tracer.begin("GET /y", "other-id"), status=200)
        found = tracer.find("shared-id")
        assert [trace.status for trace in found] == [200, 304]
        assert tracer.find("missing") == []

    def test_buffer_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(buffer_size=0)


class TestLogSeam:
    def test_json_logger_emits_sorted_single_line_json(self):
        stream = io.StringIO()
        logger = JsonLogger(stream=stream, clock=ManualClock(start=12.5))
        logger.log("worker.up", shard=0, public=None)
        line = stream.getvalue()
        assert line.endswith("\n") and "\n" not in line[:-1]
        assert json.loads(line) == {
            "ts": 12.5,
            "event": "worker.up",
            "shard": 0,
            "public": None,
        }

    def test_trace_sink_logs_finished_traces(self):
        stream = io.StringIO()
        clock = ManualClock()
        logger = JsonLogger(stream=stream, clock=clock)
        tracer = Tracer(clock=clock, sink=trace_sink(logger))
        tracer.finish(tracer.begin("GET /x", "sunk-id"), status=200)
        payload = json.loads(stream.getvalue())
        assert payload["event"] == "trace"
        assert payload["trace_id"] == "sunk-id"
        assert payload["status"] == 200
