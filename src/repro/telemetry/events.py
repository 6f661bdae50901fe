"""Structured event log: robustness events correlated with cost traces.

Degradation, recovery, WAL truncation, cache invalidation — the events
that explain *why* a trace looks the way it does — are recorded here as
structured records rather than log lines.  Every event carries:

* ``ts_us`` — the simulated clock stamp;
* ``kind`` — a dotted event name (``lsm.degraded``, ``wal.replay.truncated``,
  ...; same naming convention as metrics, lint-checked by EL401/EL402);
* ``span_id`` / ``trace_id`` — the innermost open span and its root on
  the emitting thread, so an event lands *inside* the span tree and a
  trace viewer can correlate a recovery with the cost it induced;
* free-form fields supplied by the emitter.

The log is a bounded ring (oldest events drop first, counted in
``events.dropped``) and exports to JSONL — one JSON object per line —
via ``--events-out``; the Chrome trace exporter also embeds events as
instant markers so they appear on the Perfetto timeline.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import MetricsRegistry
    from repro.telemetry.tracing import Tracer


class EventLog:
    """Bounded structured event ring with span/trace correlation."""

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        tracer: "Tracer | None" = None,
        capacity: int = 4096,
        registry: "MetricsRegistry | None" = None,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        self._tracer = tracer
        self._events: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped = 0
        self._m_emitted = None
        self._m_dropped = None
        if registry is not None:
            self._m_emitted = registry.counter(
                "events.emitted",
                "structured events recorded, by kind",
                labels=("kind",),
            )
            self._m_dropped = registry.counter(
                "events.dropped",
                "structured events evicted from the event-log ring buffer",
            )

    @property
    def capacity(self) -> int:
        """Ring-buffer size (events retained)."""
        return self._events.maxlen or 0

    def emit(self, kind: str, **fields: Any) -> dict:
        """Record one event, stamped with time and the active span."""
        span = self._tracer.current() if self._tracer is not None else None
        event = {
            "ts_us": self._clock(),
            "kind": kind,
            "span_id": span.span_id if span is not None else None,
            "trace_id": span.trace_id if span is not None else None,
            **fields,
        }
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
                if self._m_dropped is not None:
                    self._m_dropped.inc()
            self._events.append(event)
        if self._m_emitted is not None:
            self._m_emitted.inc(kind=kind)
        return event

    def export(self) -> list[dict]:
        """Recorded events, oldest first."""
        with self._lock:
            return [dict(event) for event in self._events]

    def reset(self) -> None:
        """Drop all recorded events."""
        with self._lock:
            self._events.clear()
            self.dropped = 0


def write_events_file(path: str, events: list[dict]) -> None:
    """Write events as JSONL to ``path`` (parent dirs created)."""
    import os

    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True, default=str) + "\n")
