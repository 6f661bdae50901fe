"""Verified reads over the pipelined write path: queued immutables,
mid-flight background flushes, and flushed_ts recovery."""

from tests.conftest import kv, make_p2_store


def pipelined_store(**overrides):
    defaults = dict(max_immutable_memtables=2, write_buffer_bytes=1024)
    defaults.update(overrides)
    return make_p2_store(**defaults)


def fill_until_rotation(store, start=0, limit=400):
    i = start
    while not store.db.immutables and i < limit:
        store.put(*kv(i))
        i += 1
    assert store.db.immutables, "write buffer never overflowed"
    return i


def test_verified_get_across_queued_immutables():
    store = pipelined_store()
    written = fill_until_rotation(store)
    store.put(*kv(written))
    for i in range(written + 1):
        result = store.get_verified(kv(i)[0])
        assert result.value is not None
    # A provable miss still works with tables queued.
    assert store.get(b"no-such-key") is None


def test_verified_multiget_spans_active_immutables_and_levels():
    store = pipelined_store()
    written = fill_until_rotation(store)
    assert store.db.flush_oldest_immutable()  # some keys now in levels
    fill_until_rotation(store, start=written)
    keys = [kv(i)[0] for i in range(0, written + 1, max(1, written // 9))]
    values = store.multi_get(keys)
    assert values == [kv(i)[1] for i in range(0, written + 1, max(1, written // 9))]
    batch = store.multi_get_verified(keys)
    assert batch.proof_bytes > 0


def test_verified_scan_with_mid_flight_background_flush():
    store = pipelined_store()
    written = fill_until_rotation(store)
    assert store.db.flush_oldest_immutable()  # runs on a parallel track
    # In simulated time the flush may still be "in flight" (foreground
    # now < the track's completion instant); reads must verify anyway.
    results = store.scan(kv(0)[0], kv(written - 1)[0])
    assert len(results) == written
    assert store.audit().clean


def test_read_your_writes_after_rotation_and_overwrite():
    store = pipelined_store()
    written = fill_until_rotation(store)
    store.put(*kv(2, version=7))  # overwrites a rotated key
    store.delete(kv(3)[0])  # tombstone over a rotated key
    assert store.get(kv(2)[0]) == kv(2, version=7)[1]
    assert store.get(kv(3)[0]) is None
    assert store.get(kv(4)[0]) == kv(4)[1]
    del written


def test_put_during_active_flush_does_not_wait():
    """The tentpole overlap claim: a background flush costs real work on
    its own track, but a PUT issued while it runs pays only PUT costs."""
    store = pipelined_store()
    fill_until_rotation(store)
    fg_before = store.clock.now_us
    assert store.db.flush_oldest_immutable()  # wait=False: no join
    flush_fg_cost = store.clock.now_us - fg_before
    bg_work = store.telemetry.metrics.counter("lsm.flush.background_us").total()
    assert bg_work > 0.0
    assert flush_fg_cost == 0.0  # the whole flush overlapped
    # The flush is still in flight on the shared timeline.
    assert store.db._bg_free_us > store.clock.now_us
    before = store.clock.now_us
    store.put(*kv(9000))
    put_us = store.clock.now_us - before
    assert put_us * 10 < bg_work  # PUT never waited on the flush


def test_seal_carries_flushed_ts_and_recovery_skips_flushed_prefix():
    store = pipelined_store(autoseal=True, rollback_protection=True)
    written = fill_until_rotation(store)
    assert store.db.flush_oldest_immutable()
    boundary = store.db.flushed_ts
    assert boundary > 0
    # More writes after the time-cut: these must come back from replay.
    for i in range(written, written + 8):
        store.put(*kv(i))
    store.persist_seal()  # clean shutdown: the tail is sealed
    final_ts = store.current_ts
    reopened = pipelined_store(
        autoseal=True,
        rollback_protection=True,
        clock=store.clock,
        disk=store.disk,
        counter=store.counter,
        reopen=True,
    )
    reopened.recover_from_disk()
    assert reopened.db.flushed_ts >= boundary
    assert reopened.current_ts == final_ts
    # No duplicate (key, ts) pairs: audit + every key readable verified.
    for i in range(written + 8):
        assert reopened.get(kv(i)[0]) == kv(i)[1]
    assert reopened.audit().clean


def test_recovery_with_queued_immutables_unflushed():
    """Crash with tables still queued: one WAL + one digest cover them,
    so replay rebuilds the whole in-memory state."""
    store = pipelined_store(autoseal=True, rollback_protection=True)
    written = fill_until_rotation(store)
    store.put(*kv(written))
    assert store.db.immutables  # queued, never flushed
    reopened = pipelined_store(
        autoseal=True,
        rollback_protection=True,
        clock=store.clock,
        disk=store.disk,
        counter=store.counter,
        reopen=True,
    )
    reopened.recover_from_disk()
    for i in range(written + 1):
        assert reopened.get(kv(i)[0]) == kv(i)[1]
    assert reopened.audit().clean


def test_crash_after_the_background_wal_sync_seal_recovers():
    """Under autoseal the background flush's WAL sync seals before the
    commit does: that seal must already carry the flush's time-cut, or
    recovery replays records the new SSTable holds."""
    import pytest

    from repro.faults import FaultPlan, SimulatedCrash

    store = pipelined_store(autoseal=True, wal_sync_every=1 << 20)
    store.persist_seal()
    written = fill_until_rotation(store)
    store.put(*kv(written))  # unsynced when the flush starts
    FaultPlan().attach(store.disk).crash_at("commit.before_hook")
    with pytest.raises(SimulatedCrash):
        store.db.drain_immutables()
    reopened = pipelined_store(
        autoseal=True,
        wal_sync_every=1 << 20,
        clock=store.clock,
        disk=store.disk,
        counter=store.counter,
        reopen=True,
    )
    reopened.recover_from_disk()
    for i in range(written + 1):
        assert reopened.get(kv(i)[0]) == kv(i)[1]
    assert reopened.audit().clean
