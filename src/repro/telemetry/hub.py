"""Process-wide collection point for per-store telemetry.

Every store (and every :class:`~repro.sgx.env.ExecutionEnv`) owns its own
isolated :class:`~repro.telemetry.Telemetry`, so tests and concurrent
stores never bleed counters into each other.  The CLI's ``bench``
subcommand, however, runs whole experiments that construct many stores
internally — to export one combined snapshot it *activates* the hub,
which then holds a reference to every telemetry created while active and
can merge their registries, spans and events afterwards (each store's
trace source carries its cost ledgers).

Merged span export rebases each store's span ids into a disjoint range
(store *k*'s ids are offset past store *k-1*'s maximum), so a merged
trace never aliases two different spans under one id — the property the
sharded-cluster roadmap item depends on.

The hub is inert by default: when inactive, registration is a no-op and
nothing is retained.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.metrics import merge_snapshots

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry


class TelemetryHub:
    """Collects the telemetry instances created while activated."""

    def __init__(self) -> None:
        self._active = False
        self._collected: list["Telemetry"] = []

    @property
    def active(self) -> bool:
        return self._active

    def activate(self) -> None:
        """Start collecting every Telemetry constructed from now on."""
        self._collected.clear()
        self._active = True

    def deactivate(self) -> None:
        """Stop collecting and release all held references."""
        self._active = False
        self._collected.clear()

    def register(self, telemetry: "Telemetry") -> None:
        """Called by Telemetry.__init__; retains only while active."""
        if self._active:
            self._collected.append(telemetry)

    def merged_snapshot(self) -> dict:
        """Sum of every collected registry's snapshot."""
        return merge_snapshots([t.metrics.snapshot() for t in self._collected])

    def spans(self) -> list[dict]:
        """All collected tracers' finished spans, ids rebased disjointly.

        Span/parent/trace ids are offset per source so the merged list
        never reuses an id across stores; ``store`` on each span names
        the source it came from.
        """
        out: list[dict] = []
        offset = 0
        for index, telemetry in enumerate(self._collected):
            exported = telemetry.tracer.export()
            max_id = 0
            for span in exported:
                span = dict(span)
                max_id = max(max_id, span["span_id"])
                span["span_id"] += offset
                if span["parent_id"] is not None:
                    span["parent_id"] += offset
                span["trace_id"] = span.get("trace_id", 0) + offset
                span["store"] = index
                out.append(span)
            offset += max_id
        return out

    def events(self) -> list[dict]:
        """All collected event logs' events, tagged with their store."""
        out: list[dict] = []
        for index, telemetry in enumerate(self._collected):
            for event in telemetry.events.export():
                event = dict(event)
                event["store"] = index
                out.append(event)
        return out

    def dropped_spans(self) -> int:
        """Total spans evicted from collected ring buffers."""
        return sum(t.tracer.dropped for t in self._collected)

    def trace_sources(self) -> list[dict]:
        """One Chrome-trace source per collected store (for --trace-out)."""
        return [
            t.trace_source(label=f"store-{i + 1}")
            for i, t in enumerate(self._collected)
        ]


#: The process-wide hub the CLI uses; inactive unless explicitly enabled.
HUB = TelemetryHub()
