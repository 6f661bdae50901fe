"""EventLog: stamping, span correlation, the bounded ring, and export."""

import json

from repro.telemetry.events import EventLog, write_events_file
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, us):
        self.now += us


def test_emit_stamps_time_kind_and_fields():
    clock = FakeClock()
    log = EventLog(clock=clock)
    clock.advance(42)
    event = log.emit("lsm.degraded", op="flush", reason="boom")
    assert event["ts_us"] == 42
    assert event["kind"] == "lsm.degraded"
    assert event["op"] == "flush"
    assert event["reason"] == "boom"


def test_emit_outside_any_span_has_null_ids():
    tracer = Tracer()
    log = EventLog(tracer=tracer)
    event = log.emit("store.recovered")
    assert event["span_id"] is None
    assert event["trace_id"] is None


def test_emit_inside_span_carries_span_and_trace_ids():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    log = EventLog(clock=clock, tracer=tracer)
    with tracer.span("elsm.recovery") as outer:
        with tracer.span("inner") as inner:
            event = log.emit("wal.recovery.truncated", dropped_bytes=7)
    assert event["span_id"] == inner.span_id
    assert event["trace_id"] == outer.span_id  # trace id is the root's id
    assert event["dropped_bytes"] == 7


def test_ring_drops_oldest_and_counts():
    registry = MetricsRegistry()
    log = EventLog(capacity=3, registry=registry)
    for i in range(5):
        log.emit("lsm.degraded", seq=i)
    assert log.capacity == 3
    assert [e["seq"] for e in log.export()] == [2, 3, 4]
    assert log.dropped == 2
    assert registry.counter("events.dropped").total() == 2
    assert registry.counter("events.emitted").total() == 5


def test_emitted_counter_labelled_by_kind():
    registry = MetricsRegistry()
    log = EventLog(registry=registry)
    log.emit("lsm.degraded")
    log.emit("lsm.degraded")
    log.emit("store.recovered")
    counter = registry.counter("events.emitted")
    assert counter.value(kind="lsm.degraded") == 2
    assert counter.value(kind="store.recovered") == 1


def test_to_jsonl_one_object_per_line(tmp_path):
    """The ``--events-out`` format: one JSON object per line."""
    log = EventLog()
    log.emit("a.b", x=1)
    log.emit("c.d", y=b"bytes-coerced")
    path = tmp_path / "events.jsonl"
    write_events_file(str(path), log.export())
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    parsed = [json.loads(line) for line in lines]
    assert parsed[0]["kind"] == "a.b"
    assert parsed[1]["kind"] == "c.d"
    write_events_file(str(path), EventLog().export())
    assert path.read_text() == ""


def test_write_events_file_roundtrip(tmp_path):
    log = EventLog()
    log.emit("wal.replay.truncated", file="wal-1.log", dropped_bytes=9)
    path = tmp_path / "sub" / "events.jsonl"
    write_events_file(str(path), log.export())
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == "wal.replay.truncated"


def test_reset_clears_events_and_dropped():
    log = EventLog(capacity=1)
    log.emit("a.b")
    log.emit("a.b")
    assert log.dropped == 1
    log.reset()
    assert log.export() == []
    assert log.dropped == 0
