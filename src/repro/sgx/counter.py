"""Trusted monotonic counters for rollback defence.

Section 5.6.1: a malicious host can replace the whole store with an older
*but authenticated* version.  eLSM defends by binding each sealed state
(all level roots + the WAL digest) to a trusted monotonic counter (TPM /
``sgx_create_monotonic_counter`` / ROTE).

The seal goes first: it claims hardware + 1, is written and fsynced, and
only then is the counter incremented.  So the newest durable seal equals
the counter or, after a crash before the increment, is one ahead of it.

Counter writes are slow on real hardware (tens of milliseconds on TPMs),
so the paper adds a tunable write buffer that batches anchor updates —
modelled by :class:`BufferedCounterAnchor` and studied in the
``counter_buffer`` ablation bench.
"""

from __future__ import annotations

from repro.sim.clock import SimClock

#: TPM-backed monotonic counter update latency (order of 10 ms; we use a
#: conservative figure so the ablation shows the buffering trade-off).
COUNTER_WRITE_US = 10_000.0
COUNTER_READ_US = 500.0


class TrustedMonotonicCounter:
    """A hardware counter the untrusted host cannot roll back."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._value = 0

    def increment(self) -> int:
        """Advance the counter; returns the new value."""
        self.clock.charge("monotonic_counter", COUNTER_WRITE_US)
        self._value += 1
        return self._value

    def read(self) -> int:
        """Read the hardware counter (slow, like the real thing)."""
        self.clock.charge("monotonic_counter", COUNTER_READ_US)
        return self._value


class BufferedCounterAnchor:
    """The enclave's side of the counter: when to anchor, and to what.

    ``buffer_ops`` trades rollback-detection granularity for write latency:
    with a buffer of N, at most the last N writes are not yet bound to the
    counter (the paper: "the size of the write buffer is tunable by the
    system administrator").  The store seals, then calls :meth:`anchor`.
    """

    def __init__(self, counter: TrustedMonotonicCounter, buffer_ops: int = 1) -> None:
        if buffer_ops < 1:
            raise ValueError("buffer_ops must be >= 1")
        self.counter = counter
        self.buffer_ops = buffer_ops
        self._pending = 0
        #: The hardware counter as this enclave last knew it; the next
        #: seal claims one more.
        self.anchored_value = 0

    def record_write(self) -> bool:
        """Note one logical write; True once ``buffer_ops`` writes wait
        for an anchor."""
        self._pending += 1
        return self._pending >= self.buffer_ops

    def anchor(self) -> int:
        """Move the hardware counter to the value the seal just made
        durable claims; returns it."""
        self.anchored_value = self.counter.increment()
        self._pending = 0
        return self.anchored_value

    def check_freshness(self, claimed_value: int) -> bool:
        """True iff a recovered state's counter value is the hardware
        counter or one ahead of it (a crash between its durable seal and
        the increment).  Ariadne (Strackx & Piessens, USENIX Security
        2016) closes the crash window this way, with no slack.  The read
        also tells a reopened enclave where the counter stands."""
        self.anchored_value = self.counter.read()
        return self.anchored_value <= claimed_value <= self.anchored_value + 1
