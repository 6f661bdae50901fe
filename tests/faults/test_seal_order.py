"""Seal first, then move the counter (Section 5.6.1).

A seal claims the counter value after its own commit, is written and
fsynced, and only then is the counter incremented.  So the newest honest
seal equals the counter or is one ahead of it; anything behind is a
rollback, and no acknowledged write is ever covered only by a seal the
counter has not caught up with.
"""

import pytest

import repro.core.store_p2 as store_p2
from repro.core.adversary import RollbackHost
from repro.core.errors import RollbackDetected
from repro.faults import CrashConsistencyHarness, FaultPlan, SimulatedCrash
from tests.conftest import kv, make_p2_store


def reopen(harness, store):
    return harness._build_store(store)


def seal_names(store) -> list[str]:
    return [n for n in store.disk.list_files() if "/SEAL-" in n]


def test_image_one_seal_old_is_a_rollback():
    """An image one seal old used to recover silently and lose a write
    the store had reported durable."""
    harness = CrashConsistencyHarness()
    store = harness._build_store()
    for i in range(40):
        store.put(*kv(i))
    store.flush()
    store.persist_seal()
    host = RollbackHost(store.disk)
    host.snapshot()
    seals = store._seal_seq
    while store._seal_seq == seals:
        ts = store.put(b"acked", b"durable")
    assert store._seal_seq == seals + 1
    assert store.durability_ts() >= ts  # reported durable
    host.rollback_to(0)
    with pytest.raises(RollbackDetected):
        reopen(harness, store).recover_from_disk()


def crash_between_seal_and_increment():
    """Run the harness store until a crash lands between a seal's fsync
    and its counter increment; returns the harness, the store, the
    writes it acknowledged and its durability floor."""
    harness = CrashConsistencyHarness()
    store = harness._build_store()
    store.persist_seal()
    plan = FaultPlan().attach(store.disk)
    plan.crash_at("seal.after_write", hit=5)
    acked: list[tuple[bytes, bytes]] = []
    floor = 0
    with pytest.raises(SimulatedCrash):
        for i in range(200):
            store.put(*kv(i))
            acked.append(kv(i))
            floor = store.durability_ts()
    plan.disarm()
    store.disk.power_loss(None)
    return harness, store, acked, floor


def test_crash_after_seal_write_adopts_the_seal_one_ahead():
    harness, store, acked, floor = crash_between_seal_and_increment()
    counter = store.counter.read()
    assert len(seal_names(store)) == 2  # the new seal and its predecessor
    revived = reopen(harness, store)
    assert store.counter.read() == counter  # reopening moves nothing
    revived.recover_from_disk()
    assert store.counter.read() == counter + 1  # adoption finished the increment
    assert revived.current_ts >= floor
    for key, value in acked[:floor]:
        assert revived.get(key) == value
    # The counter caught up: a second restart from that disk is fresh.
    again = reopen(harness, revived)
    again.recover_from_disk()
    assert again.current_ts == revived.current_ts


def test_crash_after_seal_write_older_seal_loses_no_acked_write():
    """The host may hide the seal one ahead and present its predecessor:
    that is accepted, because no write the newer seal covers was
    acknowledged before its increment."""
    harness, store, acked, floor = crash_between_seal_and_increment()
    newest = max(seal_names(store))
    store.disk.delete(newest)
    revived = reopen(harness, store)
    revived.recover_from_disk()
    assert revived.current_ts >= floor
    for key, value in acked[:floor]:
        assert revived.get(key) == value
    assert revived.audit().clean


def test_default_buffer_restarts_after_unsealed_writes_and_power_cut():
    """The write-path anchor seals before it moves the counter, so a
    store whose WAL never synced on its own still restarts."""
    def build(**extra):
        return make_p2_store(
            rollback_protection=True,
            autoseal=True,
            wal_sync_every=1 << 20,
            write_buffer_bytes=64 * 1024,  # no flush seals in between
            **extra,
        )

    store = build()
    assert store.anchor.buffer_ops == 64
    store.persist_seal()
    for i in range(70):  # only the anchor at write 64 seals
        store.put(*kv(i))
    store.disk.power_loss(None)
    revived = build(
        disk=store.disk, clock=store.clock, counter=store.counter, reopen=True
    )
    revived.recover_from_disk()
    assert revived.current_ts == 64
    for i in range(64):
        assert revived.get(kv(i)[0]) == kv(i)[1]


def test_restart_unseals_once(monkeypatch):
    store = make_p2_store(autoseal=True)
    for i in range(10):
        store.put(*kv(i))
    store.persist_seal()
    calls = []
    real_unseal = store_p2.unseal

    def counting_unseal(enclave, blob):
        calls.append(blob)
        return real_unseal(enclave, blob)

    monkeypatch.setattr(store_p2, "unseal", counting_unseal)
    revived = make_p2_store(
        autoseal=True,
        disk=store.disk,
        clock=store.clock,
        counter=store.counter,
        reopen=True,
    )
    revived.recover_from_disk()
    assert len(calls) == 1
    assert revived.get(kv(3)[0]) == kv(3)[1]


def test_anchor_seal_covers_only_synced_wal_records():
    """Without autoseal the write-path anchor persists its own seal; it
    syncs the WAL first, or a power cut would drop records the sealed
    digest vouches for and recovery would refuse."""
    def build(**extra):
        return make_p2_store(
            rollback_protection=True,
            counter_buffer_ops=8,
            wal_sync_every=32,
            write_buffer_bytes=64 * 1024,
            **extra,
        )

    store = build()
    store.persist_seal()
    for i in range(12):
        store.put(*kv(i))
    store.disk.power_loss(None)
    revived = build(
        disk=store.disk, clock=store.clock, counter=store.counter, reopen=True
    )
    revived.recover_from_disk()
    assert revived.current_ts == 8
