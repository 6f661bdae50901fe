"""Write-ahead log durability semantics."""

from repro.lsm.records import Record, tombstone
from repro.lsm.wal import WriteAheadLog


def rec(i):
    return Record(key=b"k%d" % i, ts=i + 1, value=b"v%d" % i)


def test_append_replay_roundtrip(free_env):
    wal = WriteAheadLog(free_env, "wal")
    records = [rec(i) for i in range(20)] + [tombstone(b"k0", 100)]
    for record in records:
        wal.append(record)
    assert list(wal.replay()) == records


def test_replay_empty(free_env):
    wal = WriteAheadLog(free_env, "wal")
    assert list(wal.replay()) == []


def test_reset_truncates(free_env):
    wal = WriteAheadLog(free_env, "wal")
    wal.append(rec(1))
    wal.advance_epoch()
    assert list(wal.replay()) == []
    wal.append(rec(2))
    assert [r.ts for r in wal.replay()] == [3]


def test_torn_tail_discarded(free_env):
    wal = WriteAheadLog(free_env, "wal")
    for i in range(5):
        wal.append(rec(i))
    f = free_env.disk.open(wal.path)
    f.data = f.data[:-3]  # torn final entry
    assert len(list(wal.replay())) == 4


def test_corrupt_entry_stops_replay(free_env):
    wal = WriteAheadLog(free_env, "wal")
    for i in range(5):
        wal.append(rec(i))
    f = free_env.disk.open(wal.path)
    f.data[len(f.data) // 2] ^= 0xFF  # corrupt mid-log
    recovered = list(wal.replay())
    assert 0 < len(recovered) < 5  # prefix only


def test_sync_every_n_appends(env):
    wal = WriteAheadLog(env, "wal", sync_every=4)
    before = env.clock.event_count("fsync")
    for i in range(8):
        wal.append(rec(i))
    assert env.clock.event_count("fsync") == before + 2


def test_existing_file_reused(free_env):
    first = WriteAheadLog(free_env, "wal")
    first.append(rec(1))
    second = WriteAheadLog(free_env, "wal")  # reopen after "crash"
    assert [r.ts for r in second.replay()] == [2]
