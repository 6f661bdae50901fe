"""The background flush thread (Section 5.5.2 concurrency).

LevelDB flushes and compacts on a background thread while foreground
reads and writes continue; the paper's eLSM supports "concurrent
COMPACTION with reads/writes" synchronised through in-enclave state.  In
this codebase all trusted-state updates already happen under the store's
in-enclave mutex, so the worker only needs to take the same lock —
readers either see the levels before a flush or after it, never a mix.

``BackgroundFlusher`` drains the immutable-MemTable queue the pipelined
write path produces (see ``LSMConfig.max_immutable_memtables``).  Its one
step is ``LSMStore.flush_oldest_immutable``, which runs the compaction
cascade too, so the engine alone decides which level compacts next.
Worker errors do not die silently: each is recorded in a *bounded* ring,
counted in the ``lsm.background.errors`` metric, surfaced as a structured
``lsm.background.error`` event, and reflected in :meth:`health`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle with repro.lsm.db
    from repro.lsm.db import LSMStore

#: Retained per worker; older errors are evicted (the count survives in
#: the ``lsm.background.errors`` metric, so nothing is lost silently).
_MAX_RETAINED_ERRORS = 16
#: Idle sleep between queue checks; :meth:`BackgroundFlusher.nudge` ends it.
_POLL_INTERVAL_S = 0.005


class BackgroundFlusher:
    """Flushes queued immutable MemTables on a daemon thread.

    Each flush (and the compactions it cascades into) is charged to a
    parallel clock track, so foreground writers only ever pay the gap to
    the worker's completion instant (usually zero), never the flush
    itself.
    """

    def __init__(self, db: "LSMStore") -> None:
        self.db = db
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None
        self.flushes_run = 0
        self.errors: deque[Exception] = deque(maxlen=_MAX_RETAINED_ERRORS)
        self.error_count = 0
        self._m_errors = db.telemetry.counter(
            "lsm.background.errors",
            "errors raised by background workers, by kind",
            labels=("kind",),
        )

    def start(self) -> "BackgroundFlusher":
        """Launch the daemon thread; returns self for chaining."""
        if self._thread is not None:
            raise RuntimeError("already started")
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread, finishing any in-flight flush."""
        self._stop.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def nudge(self) -> None:
        """Wake the thread immediately (e.g. after a burst of writes)."""
        self._wake.set()

    def __enter__(self) -> "BackgroundFlusher":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def health(self) -> dict:
        """Operational status of this worker.

        ``ok`` with no recorded errors; ``failed`` once an error stopped
        the loop.  ``errors`` carries the retained tail (bounded), so a
        long-running process cannot grow it without limit.
        """
        return {
            "kind": "flusher",
            "status": "failed" if self.error_count else "ok",
            "running": self._thread is not None,
            "error_count": self.error_count,
            "errors": [repr(exc) for exc in self.errors],
        }

    def _record_error(self, exc: Exception) -> None:
        self.errors.append(exc)
        self.error_count += 1
        self._m_errors.inc(kind="flusher")
        self.db.telemetry.emit(
            "lsm.background.error",
            worker="flusher",
            error=repr(exc),
            error_count=self.error_count,
        )

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                if self.db.flush_oldest_immutable():
                    self.flushes_run += 1
                    continue  # keep draining without sleeping
            except Exception as exc:  # noqa: BLE001 - surfaced via health()
                self._record_error(exc)
                break
            self._wake.wait(_POLL_INTERVAL_S)
            self._wake.clear()
