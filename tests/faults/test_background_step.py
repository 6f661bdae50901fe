"""Every placement of the one background step in a short history.

The flusher thread and the crash harness run the same step,
``LSMStore.flush_oldest_immutable``, which also runs the compaction
cascade.  The host decides when that step runs, so these tests place it
after each writer step of a 12-mutation history on a pipelined,
autosealed eLSM-P2 store.  Verified reads must match a dict model after
every step and the audit must be clean at the end; a crash inside the
step, at either site of its commit path, must recover to a prefix of the
acknowledged writes.
"""

import sys
import threading
import time

import pytest

from repro.core.store_p2 import ELSMP2Store
from repro.faults import FaultPlan, SimulatedCrash
from tests.conftest import TEST_SCALE

KEYS = [b"key-%d" % i for i in range(5)]
#: One mutation per writer step: (key, value), where None deletes.
HISTORY = [
    (KEYS[i % 5], None if i % 4 == 3 else b"value-%02d-" % i * 3) for i in range(12)
]
POSITIONS = range(1, len(HISTORY) + 1)


def _store(crashed: ELSMP2Store | None = None) -> ELSMP2Store:
    """A fresh store, or one reopened over ``crashed``'s disk, clock and
    hardware counter."""
    return ELSMP2Store(
        scale=TEST_SCALE,
        clock=crashed and crashed.clock,
        disk=crashed and crashed.disk,
        counter=crashed and crashed.counter,
        reopen=crashed is not None,
        write_buffer_bytes=96,  # a rotation every third put
        level1_max_bytes=256,  # so each flush cascades into a compaction
        file_max_bytes=1024,
        block_bytes=256,
        max_immutable_memtables=len(HISTORY),  # only the placed step flushes
        wal_sync_every=4,  # some steps start with an unsynced WAL tail
        autoseal=True,
        rollback_protection=True,
    )


def _write(store: ELSMP2Store, step: int) -> None:
    key, value = HISTORY[step]
    if value is None:
        store.delete(key)
    else:
        store.put(key, value)


def _check_reads(store: ELSMP2Store, steps: int) -> None:
    """Verified GETs of every key equal the model after ``steps`` writes."""
    model: dict[bytes, bytes | None] = {}
    for key, value in HISTORY[:steps]:
        model[key] = value
    for key in KEYS:
        assert store.get_verified(key).value == model.get(key), (steps, key)


@pytest.mark.parametrize("position", POSITIONS)
def test_step_after_every_writer_step(position):
    store = _store()
    store.persist_seal()
    compactions = 0
    for step in range(len(HISTORY)):
        _write(store, step)
        _check_reads(store, step + 1)
        if step + 1 == position:
            queued = bool(store.db.immutables)
            assert store.db.flush_oldest_immutable() is queued
            compactions = store.db.stats.compactions
            _check_reads(store, step + 1)
    assert store.db._rotations >= 3
    assert store.db.stats.flushes == compactions == int(queued)
    assert store.audit().clean


@pytest.mark.parametrize("site", ["flush.background.publish", "commit.before_hook"])
@pytest.mark.parametrize("position", POSITIONS)
def test_crash_inside_the_step_recovers_a_prefix(position, site):
    store = _store()
    store.persist_seal()
    for step in range(position):
        _write(store, step)
    floor = store.durability_ts()
    if not store.db.immutables:
        # Nothing rotated yet: the step is a no-op and no site fires.
        plan = FaultPlan().attach(store.disk).crash_at(site)
        assert store.db.flush_oldest_immutable() is False
        assert not plan.crash_log
        return
    plan = FaultPlan().attach(store.disk).crash_at(site)
    with pytest.raises(SimulatedCrash):
        store.db.flush_oldest_immutable()
    plan.disarm()
    recovered = _store(crashed=store)
    recovered.recover_from_disk()
    ts = recovered.current_ts
    assert floor <= ts <= position
    _check_reads(recovered, ts)
    assert recovered.audit().clean


def _parked_in(thread: threading.Thread, function: str) -> bool:
    """True while ``thread`` is inside a frame of ``function``."""
    frame = sys._current_frames().get(thread.ident)
    while frame is not None:
        if frame.f_code.co_name == function:
            return True
        frame = frame.f_back
    return False


def test_seal_taken_beside_a_background_step_is_not_a_rollback():
    """A seal must not interleave with the step's own autoseal.

    The test thread holds the engine lock, as a background step does,
    while a second thread calls ``persist_seal``.  If the seal reads the
    trusted state without the lock, it claims the counter value of the
    state before the step, then writes the newest seal after the step's
    autoseal has moved the counter: a restart over that disk reports a
    rollback on an honest store.  With the lock the seal waits for the
    step and seals the state after it.
    """
    store = _store()
    store.persist_seal()
    for i in range(7):
        store.put(b"put-%d" % i, b"value-%d" % i)
    assert len(store.db.immutables) == 1
    fired = threading.Event()
    stepper = threading.current_thread()
    to_payload = store.registry.to_payload

    def spy():
        if threading.current_thread() is not stepper:
            fired.set()
        return to_payload()

    store.registry.to_payload = spy
    with store.db._lock:
        sealer = threading.Thread(target=store.persist_seal)
        sealer.start()
        if fired.wait(0.5):
            # Unlocked, the sealer reads the counter next and then waits
            # for the lock at ``flushed_ts``; step once it waits there.
            deadline = time.monotonic() + 0.5
            while not _parked_in(sealer, "flushed_ts"):
                assert time.monotonic() < deadline
                time.sleep(0.001)
        assert store.db.flush_oldest_immutable()
        fired_under_lock = fired.is_set()
    sealer.join(5)
    assert not sealer.is_alive()
    recovered = _store(crashed=store)
    recovered.recover_from_disk()
    assert recovered.current_ts == 7
    for i in range(7):
        assert recovered.get_verified(b"put-%d" % i).value == b"value-%d" % i
    assert not fired_under_lock
