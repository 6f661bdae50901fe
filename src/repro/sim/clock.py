"""Simulated microsecond clock with per-category cost accounting.

All simulated components (enclave pager, ECall/OCall boundary, disk,
hashing) charge time to one shared clock.  The clock also keeps a
per-category breakdown so experiments can attribute latency to paging,
world switches, disk IO, etc. — the attribution the paper uses to explain
its figures (e.g. "the slowdown of the large in-enclave buffer is due to
the expensive enclave paging").
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator


class WorkTrack:
    """One parallel timeline forked off the foreground clock.

    While a track is active, every :meth:`SimClock.charge` accrues to the
    track's ``elapsed_us`` instead of advancing the foreground clock —
    the simulated model of work proceeding on another core while the
    foreground thread keeps running.  The track's completion instant is
    ``start_us + elapsed_us`` on the shared timeline; a caller that must
    wait for it (e.g. a writer stalled on a full immutable-memtable
    queue) charges the *gap* via :meth:`SimClock.wait_until`, so
    concurrent work costs max(foreground, background), never the sum.
    """

    __slots__ = ("start_us", "elapsed_us", "closed")

    def __init__(self, start_us: float) -> None:
        self.start_us = start_us
        self.elapsed_us = 0.0
        self.closed = False

    @property
    def end_us(self) -> float:
        """The track's completion instant on the shared timeline."""
        return self.start_us + self.elapsed_us


class SimClock:
    """Monotonic simulated clock measured in microseconds.

    The clock never goes backwards.  ``charge`` advances time and tags the
    charge with a category; ``lap`` yields elapsed time between two points,
    which is how per-operation latency is measured.  The *attribution
    hook* sees every charge as it happens — that is how the tracer lands
    each simulated microsecond in the active span's cost ledger.
    """

    def __init__(self) -> None:
        self._now_us = 0.0
        self._by_category: Counter[str] = Counter()
        self._event_counts: Counter[str] = Counter()
        self._attribution: Callable[[str, float], None] | None = None
        self._active_track: WorkTrack | None = None

    def set_attribution(self, hook: Callable[[str, float], None] | None) -> None:
        """Install ``hook(category, micros)`` as the attribution sink.

        A clock has exactly one attribution owner — the latest execution
        environment built over it (matters when a store is reopened over
        the same clock: the live env takes over, and every charge is
        delivered exactly once, never double-attributed).
        """
        self._attribution = hook

    @property
    def now_us(self) -> float:
        """Current simulated time in microseconds.

        Inside an active :meth:`parallel_track` this is the *track's*
        virtual now (fork point + work elapsed so far), so spans opened
        by background work still measure real durations on the parallel
        timeline; the foreground clock is untouched until a join.
        """
        if self._active_track is not None:
            return self._active_track.start_us + self._active_track.elapsed_us
        return self._now_us

    def charge(self, category: str, micros: float) -> None:
        """Advance the clock by ``micros`` microseconds under ``category``.

        With a parallel track active the charge accrues to the track
        instead of the foreground clock; the per-category breakdown and
        the attribution hook see it either way, so CPU-time accounting
        stays exact (total CPU time may legitimately exceed wall time
        under simulated parallelism).
        """
        if not micros >= 0:  # also rejects NaN, which would poison the clock
            raise ValueError(f"negative charge: {micros}")
        if self._active_track is not None:
            self._active_track.elapsed_us += micros
        else:
            self._now_us += micros
        self._by_category[category] += micros
        self._event_counts[category] += 1
        if self._attribution is not None:
            self._attribution(category, micros)

    @contextmanager
    def parallel_track(self, start_us: float | None = None) -> Iterator[WorkTrack]:
        """Run the enclosed work on a forked timeline (charge-as-max).

        ``start_us`` places the fork point (default: now).  A fork point
        in the *past* is deliberate and common: deferred background work
        executes now in program order but is modelled as having started
        when it was scheduled — e.g. ``max(enqueue instant, previous
        track end)`` for a serialized flush worker — so by the time a
        foreground thread joins on it, most (often all) of its cost has
        already overlapped foreground time.  Tracks do not nest —
        background work spawning more background work is modelled as one
        sequential track.
        """
        if self._active_track is not None:
            raise RuntimeError("parallel tracks do not nest")
        track = WorkTrack(self._now_us if start_us is None else start_us)
        self._active_track = track
        try:
            yield track
        finally:
            self._active_track = None
            track.closed = True

    def wait_until(self, instant_us: float, category: str = "flush_wait") -> float:
        """Advance the foreground clock to ``instant_us`` if it is in the
        future, charging the gap under ``category`` — the join half of
        the charge-concurrent-work-as-max-not-sum primitive.  Returns the
        microseconds actually waited (0 when the instant already passed).
        """
        gap = instant_us - self._now_us
        if gap <= 0:
            return 0.0
        self.charge(category, gap)
        return gap

    def lap(self, since_us: float) -> float:
        """Elapsed simulated microseconds since ``since_us``."""
        return self.now_us - since_us

    def breakdown(self) -> dict[str, float]:
        """Total microseconds charged, keyed by category."""
        return dict(self._by_category)

    def event_count(self, category: str) -> int:
        """Number of ``charge`` calls made under ``category``."""
        return self._event_counts[category]

    def reset(self) -> None:
        """Zero the clock and all accounting (used between experiments)."""
        self._now_us = 0.0
        self._by_category.clear()
        self._event_counts.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now_us={self._now_us:.1f})"
