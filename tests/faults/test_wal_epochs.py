"""Numbered WAL epochs: the reset crash window is closed.

The old delete-then-recreate reset had a window where a crash left *no*
WAL at all.  With epochs, a fresh numbered file is created first and the
superseded epoch is only deleted at commit — every crash instant leaves
at least one complete log on disk.
"""

import logging

import pytest

from repro.faults import FaultPlan, SimulatedCrash
from repro.lsm.records import Record
from repro.lsm.wal import WriteAheadLog
from tests.conftest import kv, make_p2_store


def rec(i):
    return Record(key=b"k%d" % i, ts=i + 1, value=b"v%d" % i)


def test_advance_epoch_keeps_old_file(free_env):
    wal = WriteAheadLog(free_env, "wal")
    wal.append(rec(0))
    old = wal.advance_epoch()
    assert free_env.file_exists(old)  # deletion is the caller's commit step
    assert wal.path != old
    assert wal.epoch == 2
    assert list(wal.replay()) == []  # new epoch starts empty


def test_reopen_resumes_highest_epoch(free_env):
    wal = WriteAheadLog(free_env, "wal")
    wal.advance_epoch()
    wal.advance_epoch()
    wal.append(rec(5))
    reopened = WriteAheadLog(free_env, "wal")
    assert reopened.epoch == 3
    assert [r.ts for r in reopened.replay()] == [6]


def test_drop_other_epochs(free_env):
    wal = WriteAheadLog(free_env, "wal")
    wal.append(rec(0))
    old = wal.advance_epoch()
    wal.append(rec(1))
    removed = wal.drop_other_epochs()
    assert old in removed
    assert not free_env.file_exists(old)
    assert [r.ts for r in wal.replay()] == [2]


def test_crash_between_epoch_create_and_old_delete():
    """The exact window the epoch design exists for: both epochs are on
    disk at the crash instant, and recovery loses nothing acked."""
    store = make_p2_store(
        rollback_protection=True,
        autoseal=True,
        wal_sync_every=4,
    )
    store.persist_seal()
    plan = FaultPlan().attach(store.disk)
    plan.crash_at("flush.after_wal_epoch")
    written = 0
    with pytest.raises(SimulatedCrash):
        for i in range(200):
            store.put(*kv(i))
            written += 1
    # The crash left the superseded epoch *and* the fresh one on disk.
    epochs = [n for n in store.disk.list_files() if "/wal.log." in n]
    assert len(epochs) == 2
    plan.disarm()
    store.disk.power_loss(None)
    revived = make_p2_store(
        disk=store.disk,
        clock=store.clock,
        counter=store.counter,
        rollback_protection=True,
        autoseal=True,
        wal_sync_every=4,
        reopen=True,
    )
    revived.recover_from_disk()
    # Autoseal ran at the flush commit hook's *predecessor* (the last WAL
    # sync), so at most sync_every acked writes may be lost.
    assert revived.current_ts >= written - 4
    for i in range(revived.current_ts):
        assert revived.get(kv(i)[0]) == kv(i)[1]
    assert revived.audit().clean


def test_replay_dropped_tail_emits_telemetry_and_warning(free_env, caplog):
    """Satellite: a silently-discarded torn tail is not silent anymore."""
    wal = WriteAheadLog(free_env, "wal")
    for i in range(5):
        wal.append(rec(i))
    f = free_env.disk.open(wal.path)
    f.data = f.data[:-3]
    with caplog.at_level(logging.WARNING, logger="repro.lsm.wal"):
        assert len(list(wal.replay())) == 4
    assert free_env.telemetry.counter("wal.replay_dropped_entries").total() == 1
    assert free_env.telemetry.counter("wal.replay_dropped_bytes").total() > 0
    assert any("dropped" in r.message for r in caplog.records)
