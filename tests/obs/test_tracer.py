"""Unit tests for the tracer, flight recorder, exporters, and summaries."""

import json

import pytest

from repro.obs import (FlightRecorder, Span, TraceEvent, Tracer,
                       TraceSummary, format_event, pick_waterfall_trace,
                       render_waterfall, to_chrome_trace, to_jsonl)
from repro.sim import Simulator


def traced_request(tracer, sim, url="/a.html", status="200", delay=0.5):
    """One request span with a stage span and a point inside it."""
    tid = tracer.new_trace()
    span = tracer.begin("request", url, trace_id=tid, node="dist")
    stage = tracer.begin("stage", "route", trace_id=tid, node="dist")
    yield sim.timeout(delay / 2)
    tracer.end(stage)
    tracer.point("lookup", "cache-hit", trace_id=tid, node="dist")
    yield sim.timeout(delay / 2)
    tracer.end(span, status=status)


class TestTracer:
    def test_ids_are_instance_scoped_and_start_at_one(self):
        sim = Simulator()
        a, b = Tracer().attach(sim), Tracer().attach(sim)
        assert a.new_trace() == 1
        assert a.new_trace() == 2
        assert b.new_trace() == 1

    def test_events_carry_sim_time_and_monotone_seq(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)

        def proc():
            tracer.point("k", "early")
            yield sim.timeout(1.5)
            tracer.point("k", "late", weight=3)

        sim.process(proc())
        sim.run(until=5.0)
        early, late = tracer.events
        assert (early.t, late.t) == (0.0, 1.5)
        assert early.seq < late.seq
        assert late.attrs == {"weight": 3}

    def test_span_records_interval_and_status(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        sim.process(traced_request(tracer, sim, status="503"))
        sim.run(until=5.0)
        span = tracer.find_spans(kind="request")[0]
        assert span.duration == pytest.approx(0.5)
        assert span.status == "503"
        assert not span.open

    def test_begin_end_leave_phase_marks_on_the_timeline(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        sim.process(traced_request(tracer, sim))
        sim.run(until=5.0)
        phases = [e.phase for e in tracer.events]
        assert phases == ["B", "B", "E", "", "E"]

    def test_double_end_raises(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        span = tracer.begin("request", "/x")
        tracer.end(span)
        with pytest.raises(ValueError):
            tracer.end(span)

    def test_find_filters(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        sim.process(traced_request(tracer, sim))
        sim.process(traced_request(tracer, sim, url="/b.html"))
        sim.run(until=5.0)
        assert len(tracer.find_events(kind="lookup")) == 2
        assert len(tracer.find_events(trace_id=1, points_only=True)) == 1
        assert len(tracer.find_spans(kind="stage", name="route")) == 2
        assert tracer.find_spans(name="/b.html")[0].trace_id == 2
        assert tracer.trace_ids() == [1, 2]

    def test_tracer_is_passive(self):
        """Recording must never create simulation events."""
        sim = Simulator()
        tracer = Tracer().attach(sim)
        before = len(sim._queue) if hasattr(sim, "_queue") else None
        tracer.point("k", "n")
        tracer.end(tracer.begin("request", "/x"))
        if before is not None:
            assert len(sim._queue) == before


class TestFlightRecorder:
    def test_ring_keeps_the_last_n(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record(TraceEvent(seq=i + 1, t=float(i), kind="k", name=f"e{i}"))
        assert rec.recorded == 5
        assert len(rec) == 3
        assert rec.dropped == 2
        assert [e.name for e in rec.events()] == ["e2", "e3", "e4"]

    def test_render_header_and_rows(self):
        rec = FlightRecorder(capacity=2)
        rec.record(TraceEvent(seq=1, t=0.5, kind="shed", name="shed",
                              trace_id=7, node="dist",
                              attrs={"reason": "admission-queue-full"}))
        text = rec.render()
        assert "flight recorder: 1 of 1 events" in text
        assert "shed/shed" in text
        assert "reason=admission-queue-full" in text
        assert "#7" in text

    def test_format_event_marks_span_phases(self):
        begin = format_event(TraceEvent(seq=1, t=0.0, kind="request",
                                        name="/x", phase="B"))
        end = format_event(TraceEvent(seq=2, t=1.0, kind="request",
                                      name="/x", phase="E"))
        point = format_event(TraceEvent(seq=3, t=1.0, kind="k", name="n"))
        assert "[" in begin and "]" in end and "*" in point


def small_trace():
    sim = Simulator()
    tracer = Tracer().attach(sim)
    sim.process(traced_request(tracer, sim, status="200"))
    sim.process(traced_request(tracer, sim, url="/b.html", status="503"))
    sim.run(until=5.0)
    return tracer


class TestExporters:
    def test_jsonl_round_trips_and_is_stable(self):
        text = to_jsonl(small_trace())
        assert text == to_jsonl(small_trace())
        records = [json.loads(line) for line in text.splitlines()]
        kinds = {r["rec"] for r in records}
        assert kinds == {"event", "span"}
        # events first (in seq order), then spans
        recs = [r["rec"] for r in records]
        assert recs == sorted(recs, key=lambda r: r == "span")
        for line in text.splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_chrome_trace_shape(self):
        doc = json.loads(to_chrome_trace(small_trace()))
        phases = {r["ph"] for r in doc["traceEvents"]}
        assert phases == {"X", "i"}
        complete = [r for r in doc["traceEvents"] if r["ph"] == "X"]
        assert all(r["dur"] >= 0 for r in complete)
        # one tid per node, assigned over sorted node names
        assert {r["tid"] for r in doc["traceEvents"]} == {1}


class TestSummary:
    def test_aggregation(self):
        summary = TraceSummary.from_tracer(small_trace())
        assert summary.spans["request"]["count"] == 2
        assert summary.spans["stage/route"]["count"] == 2
        assert summary.statuses == {"200": 1, "503": 1}
        assert summary.events == {"lookup/cache-hit": 2}
        assert summary.open_spans == 0
        counts = summary.counts()
        assert counts["spans"] == {"request": 2, "stage/route": 2}
        assert list(counts["events"]) == sorted(counts["events"])

    def test_open_spans_counted(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        tracer.begin("request", "/never-ends")
        summary = TraceSummary.from_tracer(tracer)
        assert summary.open_spans == 1
        assert "request" not in summary.spans

    def test_reason_attrs_counted(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        tracer.point("shed", "shed", reason="admission-queue-full")
        tracer.point("breaker", "closed->open", reason="error-rate")
        summary = TraceSummary.from_tracer(tracer)
        assert summary.reasons == {"shed/admission-queue-full": 1,
                                   "breaker/error-rate": 1}

    def test_render_is_readable(self):
        text = TraceSummary.from_tracer(small_trace()).render()
        assert "trace summary:" in text
        assert "stage/route" in text
        assert "request statuses: 200=1 503=1" in text


class TestWaterfall:
    def test_picks_busiest_trace(self):
        tracer = small_trace()
        # both traces have the same event count; ties break to lowest id
        assert pick_waterfall_trace(tracer) == 1

    def test_renders_bars_and_ticks(self):
        tracer = small_trace()
        text = render_waterfall(tracer, 2)
        assert text.startswith("trace #2:")
        assert "request" in text and "/b.html" in text
        assert "#" in text          # span bar
        assert "|" in text          # point tick
        assert "503" in text

    def test_empty_trace_id(self):
        sim = Simulator()
        tracer = Tracer().attach(sim)
        assert pick_waterfall_trace(tracer) is None
