"""Span tracing over the simulated clock, with per-span cost ledgers.

A span is one timed region of work — a flush, a compaction, one verified
GET — with a name, a parent, simulated-clock start/end stamps, free-form
attributes, and a :class:`~repro.telemetry.ledger.CostLedger` pair that
attributes every simulated microsecond (by charge category) and every
charged resource (proof bytes, boundary crossings) to the span that was
active when the cost was paid.  The tracer keeps a bounded in-memory
ring buffer (oldest spans drop first, counted in ``tracer.spans.dropped``)
and exports to JSON, so a benchmark run can reconstruct exactly where
its simulated microseconds went.

When constructed with a registry, every finished span also lands in a
``<name>.duration_us`` histogram there — that is how span timings like
``lsm.compaction.duration_us`` show up in metric snapshots without a
second instrumentation site.

Attribution model (docs/observability.md):

* ``Tracer.on_charge`` is subscribed to ``SimClock`` by the execution
  environment; each charge lands in the *innermost open span on the
  charging thread* (its exclusive ``self_cost``), or in the tracer's
  ``unattributed`` ledger when no span is open there.
* When a span closes, its inclusive ledger (self + children) is folded
  into its parent's ``child_cost`` — so parents stay exact even when a
  child is later dropped from the ring buffer.
* Exactness invariant: summing every *root* span's inclusive ledger plus
  ``unattributed`` reproduces the clock's per-category totals, ±0.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.telemetry.ledger import CostLedger
from repro.telemetry.metrics import DURATION_BUCKETS_US, Histogram, MetricsRegistry


@dataclass
class Span:
    """One timed region; ``end_us`` is None while the span is open."""

    span_id: int
    parent_id: int | None
    name: str
    start_us: float
    end_us: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    #: Root span id of the stack this span belongs to (== span_id at roots).
    trace_id: int = 0
    #: Exclusive cost: charges made while this span was innermost.
    self_cost: CostLedger = field(default_factory=CostLedger)
    #: Sum of finished children's inclusive ledgers.
    child_cost: CostLedger = field(default_factory=CostLedger)

    @property
    def duration_us(self) -> float:
        """Simulated duration (0 while still open)."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    def inclusive(self) -> CostLedger:
        """Exclusive cost plus every finished child's inclusive cost."""
        return self.self_cost.merged(self.child_cost)

    def set(self, **attributes: Any) -> None:
        """Attach attributes to the span."""
        self.attributes.update(attributes)

    def to_dict(self) -> dict:
        """JSON-friendly form."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "duration_us": self.duration_us,
            "attributes": dict(self.attributes),
            "self_cost": self.self_cost.to_dict(),
            "inclusive_cost": self.inclusive().to_dict(),
        }


class Tracer:
    """Produces nested spans; keeps the most recent ``capacity`` of them.

    ``clock`` is any zero-argument callable returning the current time in
    simulated microseconds — the stores pass ``lambda: clock.now_us`` so
    spans measure the same quantity the paper plots.  Nesting is tracked
    per thread, so background compaction threads get their own lineage.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int = 4096,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._clock = clock or (lambda: 0.0)
        self._finished: deque[Span] = deque(maxlen=capacity)
        self._registry = registry
        self._local = threading.local()
        self._id_lock = threading.Lock()
        self._next_id = 1
        self.dropped = 0
        #: Charges made while no span was open on the charging thread.
        self.unattributed = CostLedger()
        self._unattributed_lock = threading.Lock()
        #: Inclusive ledger sum over finished *root* spans (survives the
        #: ring buffer, so the exactness invariant never decays).
        self.root_total = CostLedger()
        #: ``<name>.duration_us`` histograms by span name, registered on
        #: the first close of each name.
        self._durations: dict[str, Histogram] = {}
        self._m_dropped = None
        if registry is not None:
            self._m_dropped = registry.counter(
                "tracer.spans.dropped",
                "finished spans evicted from the tracer ring buffer",
            )

    @property
    def capacity(self) -> int:
        """Ring-buffer size (finished spans retained)."""
        return self._finished.maxlen or 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _new_id(self) -> int:
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    # ------------------------------------------------------------------
    # Cost attribution
    # ------------------------------------------------------------------
    def on_charge(self, category: str, micros: float) -> None:
        """SimClock listener: attribute one charge to the active span."""
        # Runs on every clock charge: ``_stack`` and ``CostLedger.add_us``
        # inlined, the same float addition.
        stack = getattr(self._local, "stack", None)
        if stack:
            us = stack[-1].self_cost.us
            us[category] = us.get(category, 0.0) + micros
        else:
            with self._unattributed_lock:
                self.unattributed.add_us(category, micros)

    def charge_resource(self, name: str, amount: float) -> None:
        """Attribute a non-time resource (proof bytes, crossings) to the
        active span, or to ``unattributed`` when no span is open."""
        stack = self._stack()
        if stack:
            stack[-1].self_cost.add_resource(name, amount)
        else:
            with self._unattributed_lock:
                self.unattributed.add_resource(name, amount)

    def attributed_total(self) -> CostLedger:
        """Root-span inclusive costs plus open-span partial costs plus
        ``unattributed`` — by construction this equals the clock's
        per-category totals at any quiescent point (all spans closed)."""
        total = CostLedger()
        total.merge(self.root_total)
        total.merge(self.unattributed)
        stack = self._stack()
        for span in stack:
            total.merge(span.self_cost)
            total.merge(span.child_cost)
        return total

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[Span]:
        """Open a nested span; yields it so callers can attach attributes."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            span_id=self._new_id(),
            parent_id=parent.span_id if parent else None,
            name=name,
            start_us=self._clock(),
            attributes=dict(attributes),
        )
        span.trace_id = stack[0].trace_id if stack else span.span_id
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()
            span.end_us = self._clock()
            if parent is not None:
                parent.child_cost.merge(span.inclusive())
            else:
                self.root_total.merge(span.inclusive())
            if len(self._finished) == self._finished.maxlen:
                self.dropped += 1
                if self._m_dropped is not None:
                    self._m_dropped.inc()
            self._finished.append(span)
            if self._registry is not None:
                durations = self._durations.get(name)
                if durations is None:
                    durations = self._registry.histogram(
                        f"{name}.duration_us",
                        description=f"simulated duration of {name} spans",
                        buckets=DURATION_BUCKETS_US,
                    )
                    self._durations[name] = durations
                durations.observe(span.duration_us)

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def spans(self) -> list[Span]:
        """Finished spans, oldest first."""
        return list(self._finished)

    def export(self) -> list[dict]:
        """Finished spans as JSON-friendly dicts."""
        return [span.to_dict() for span in self._finished]

    def to_json(self, indent: int | None = 2) -> str:
        """Finished spans as a JSON string."""
        return json.dumps(self.export(), indent=indent)

    def reset(self) -> None:
        """Drop all finished spans and ledgers (open spans unaffected)."""
        self._finished.clear()
        self.dropped = 0
        self.unattributed = CostLedger()
        self.root_total = CostLedger()
