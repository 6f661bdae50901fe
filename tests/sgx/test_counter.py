"""Trusted monotonic counters and buffered anchoring."""

import pytest

from repro.sim.clock import SimClock
from repro.sgx.counter import (
    COUNTER_WRITE_US,
    BufferedCounterAnchor,
    TrustedMonotonicCounter,
)


def test_counter_increments_monotonically():
    counter = TrustedMonotonicCounter(SimClock())
    values = [counter.increment() for _ in range(5)]
    assert values == [1, 2, 3, 4, 5]
    assert counter.read() == 5


def test_counter_write_is_expensive():
    clock = SimClock()
    counter = TrustedMonotonicCounter(clock)
    counter.increment()
    assert clock.breakdown()["monotonic_counter"] == COUNTER_WRITE_US


def drive(anchor, writes):
    """Record ``writes`` writes, anchoring whenever one is due (as the
    store does once its seal is durable); returns the due flags."""
    due = []
    for _ in range(writes):
        due.append(anchor.record_write())
        if due[-1]:
            anchor.anchor()
    return due


def test_buffered_anchor_cadence():
    counter = TrustedMonotonicCounter(SimClock())
    anchor = BufferedCounterAnchor(counter, buffer_ops=4)
    assert drive(anchor, 8) == [False, False, False, True] * 2
    assert counter.read() == 2


def test_unbuffered_anchor_every_write():
    counter = TrustedMonotonicCounter(SimClock())
    anchor = BufferedCounterAnchor(counter, buffer_ops=1)
    assert drive(anchor, 3) == [True] * 3
    assert counter.read() == 3


def test_recording_a_write_moves_no_counter():
    """Only anchor() increments: a due write waits for its seal."""
    counter = TrustedMonotonicCounter(SimClock())
    anchor = BufferedCounterAnchor(counter, buffer_ops=2)
    assert [anchor.record_write() for _ in range(3)] == [False, True, True]
    assert counter.read() == 0
    assert anchor.anchor() == 1
    assert anchor.anchored_value == 1


def test_freshness_check():
    """Fresh means equal to the hardware counter or one ahead of it (a
    seal made durable just before a crash skipped its increment)."""
    counter = TrustedMonotonicCounter(SimClock())
    anchor = BufferedCounterAnchor(counter, buffer_ops=1)
    anchor.anchor()
    anchor.anchor()
    assert anchor.check_freshness(2)
    assert anchor.check_freshness(3)
    assert not anchor.check_freshness(1)  # one seal behind: a rollback
    assert not anchor.check_freshness(4)  # never sealed in this order
    assert counter.read() == 2  # a check moves nothing


def test_freshness_check_teaches_a_reopened_enclave_the_counter():
    counter = TrustedMonotonicCounter(SimClock())
    for _ in range(5):
        counter.increment()
    reopened = BufferedCounterAnchor(counter)
    assert reopened.anchored_value == 0
    assert reopened.check_freshness(6)
    assert reopened.anchored_value == 5  # its next seal claims 6


def test_invalid_buffer_ops():
    counter = TrustedMonotonicCounter(SimClock())
    with pytest.raises(ValueError):
        BufferedCounterAnchor(counter, buffer_ops=0)


def test_forced_anchor_resets_pending():
    counter = TrustedMonotonicCounter(SimClock())
    anchor = BufferedCounterAnchor(counter, buffer_ops=3)
    anchor.record_write()
    anchor.anchor()
    # The pending count restarted: three more writes to the next anchor.
    assert not anchor.record_write()
    assert not anchor.record_write()
    assert anchor.record_write()
