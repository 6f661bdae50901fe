"""The immutable-MemTable queue: rotation, reads across it, drains."""

import pytest

from tests.conftest import kv, make_p2_store


def pipelined_store(**overrides):
    defaults = dict(max_immutable_memtables=2, write_buffer_bytes=1024)
    defaults.update(overrides)
    return make_p2_store(**defaults)


def fill_until_rotation(store, start=0, limit=400):
    """Write until at least one immutable is queued; returns next index."""
    i = start
    while not store.db.immutables and i < limit:
        store.put(*kv(i))
        i += 1
    assert store.db.immutables, "write buffer never overflowed"
    return i


def test_overflow_rotates_instead_of_flushing():
    store = pipelined_store()
    flushes_before = store.db.stats.flushes
    fill_until_rotation(store)
    assert store.db.stats.flushes == flushes_before  # no stop-the-world
    assert store.db._rotations >= 1
    metrics = store.telemetry.metrics
    assert metrics.counter("lsm.memtable.rotations").total() >= 1


def test_frozen_memtable_rejects_writes():
    from repro.lsm.records import Record

    store = pipelined_store()
    fill_until_rotation(store)
    frozen = store.db.immutables[0]
    assert frozen.frozen
    with pytest.raises(RuntimeError, match="frozen"):
        frozen.add(Record(key=kv(999)[0], ts=999999, value=kv(999)[1]))


def test_reads_see_active_and_queued_tables():
    store = pipelined_store()
    written = fill_until_rotation(store)
    store.put(*kv(written))  # lands in the fresh active table
    # Keys written before the rotation live in the immutable queue now.
    for i in range(0, written + 1, max(1, written // 7)):
        assert store.get(kv(i)[0]) == kv(i)[1]


def test_newest_version_wins_across_tables():
    store = pipelined_store()
    written = fill_until_rotation(store)
    # Overwrite a rotated key from the fresh active table.
    store.put(*kv(0, version=1))
    assert store.get(kv(0)[0]) == kv(0, version=1)[1]
    versions = store.db.mem_versions(kv(0)[0])
    assert len(versions) >= 2
    assert versions[0].ts > versions[1].ts
    del written


def test_scan_merges_across_tables():
    store = pipelined_store()
    written = fill_until_rotation(store)
    store.put(*kv(written))
    results = store.scan(kv(0)[0], kv(written)[0])
    assert [k for k, _ in results] == sorted(k for k, _ in results)
    assert len(results) == written + 1


def test_full_drain_flush_clears_queue_and_advances_epoch():
    store = pipelined_store()
    fill_until_rotation(store)
    epoch_before = store.db.wal.epoch
    store.flush()
    assert not store.db.immutables
    assert store.db.mem_records() == 0
    assert store.db.wal.epoch == epoch_before + 1
    assert store.audit().clean


def test_background_flush_publishes_oldest_and_keeps_reads_verified():
    store = pipelined_store()
    written = fill_until_rotation(store)
    assert store.db.flush_oldest_immutable()
    assert not store.db.immutables
    for i in range(0, written, max(1, written // 7)):
        assert store.get(kv(i)[0]) == kv(i)[1]
    assert store.audit().clean
    assert store.db.flushed_ts > 0


def test_queue_capacity_forces_drain():
    store = pipelined_store(max_immutable_memtables=1)
    for i in range(300):
        store.put(*kv(i))
    assert len(store.db.immutables) <= 1
    assert store.db.stats.flushes >= 1  # background drains happened
    for i in range(0, 300, 37):
        assert store.get(kv(i)[0]) == kv(i)[1]


def test_drain_immutables_empties_queue():
    store = pipelined_store()
    fill_until_rotation(store)
    drained = store.db.drain_immutables()
    assert drained >= 1
    assert not store.db.immutables


def test_legacy_mode_still_flushes_inline():
    store = make_p2_store(max_immutable_memtables=0, write_buffer_bytes=1024)
    for i in range(120):
        store.put(*kv(i))
    assert not store.db.immutables
    assert store.db._rotations == 0
    assert store.db.stats.flushes >= 1


def test_inserts_do_not_page_in_queued_tables():
    """An insert writes the active table only.  With frozen tables queued
    past the EPC's size, inserts that stay in the active table fault in
    at most its own pages, not the frozen ones'."""
    from repro.sim.costs import PAGE_SIZE

    store = pipelined_store(max_immutable_memtables=4, write_buffer_bytes=8192)
    pager = store.db.env.enclave.pager
    i = 0
    while len(store.db.immutables) < 4:
        store.put(*kv(i))
        i += 1
    queued = sum(t.approximate_bytes for t in store.db.immutables)
    assert queued > pager.capacity_pages * PAGE_SIZE
    faults = pager.fault_count
    while store.db.memtable.approximate_bytes < 4096:
        store.put(*kv(i))
        i += 1
    assert len(store.db.immutables) == 4  # no rotation, no flush
    active_pages = -(-store.db.memtable.approximate_bytes // PAGE_SIZE) + 1
    assert pager.fault_count - faults <= active_pages
