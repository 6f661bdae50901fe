"""Latency statistics over simulated microseconds.

``LatencyStats`` is now a thin facade over the telemetry
:class:`~repro.telemetry.metrics.Histogram` — one latency implementation
for the whole stack.  The backing histogram tracks raw samples, so the
nearest-rank percentiles here stay exact (bucket counts alone would only
bound them); the bucketised view is available through :attr:`histogram`
for snapshot export.
"""

from __future__ import annotations

from repro.telemetry.metrics import LATENCY_BUCKETS_US, Histogram


class LatencyStats:
    """Collects per-operation latencies and summarises them."""

    def __init__(self) -> None:
        self._hist = Histogram(
            "latency_us",
            "per-operation simulated latency",
            buckets=LATENCY_BUCKETS_US,
            track_samples=True,
        )

    @property
    def histogram(self) -> Histogram:
        """The backing fixed-bucket telemetry histogram."""
        return self._hist

    def add(self, micros: float) -> None:
        """Record one latency sample (microseconds)."""
        self._hist.observe(micros)

    @property
    def count(self) -> int:
        return self._hist.count()

    @property
    def mean(self) -> float:
        return self._hist.mean()

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, p in [0, 100].

        ``p <= 0`` returns the minimum sample by definition (not an
        artefact of rank clamping).
        """
        return self._hist.percentile(p)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    def merge(self, other: "LatencyStats") -> None:
        """Fold another stats object's samples into this one."""
        self._hist.merge(other._hist)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyStats(n={self.count}, mean={self.mean:.1f}us, "
            f"p95={self.p95:.1f}us)"
        )
