"""Group-commit batches and the operational report.

The batch cases pin what a group means beyond one WAL write + one fsync
(``tests/lsm/test_group_commit.py``): the group is applied in op order
(later operations win, a put+delete pair resolves in group order), an
empty group is a no-op at every layer except the one boundary crossing,
the flush trigger is evaluated once after the whole group, the WAL
digest advances once per record, and ``recover()`` replays the group.
"""

from repro.core.auth_compaction import WAL_DIGEST_INIT, advance_wal_digest
from repro.lsm.db import LSMConfig, LSMStore
from repro.lsm.records import KIND_DELETE, KIND_PUT, Record
from tests.conftest import kv, make_p2_store


def put(key, value):
    return (KIND_PUT, key, value)


def delete(key):
    return (KIND_DELETE, key, b"")


def test_batch_applies_all_ops(free_env):
    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=100_000))
    stamps = store.commit_group([put(b"a", b"1"), put(b"b", b"2"), delete(b"a")])
    assert len(stamps) == 3
    assert stamps == sorted(stamps)
    assert store.get(b"a") is None
    assert store.get(b"b") == b"2"


def test_batch_never_straddles_a_flush(free_env):
    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=512))
    # Far beyond the write buffer.
    store.commit_group([put(b"key%03d" % i, b"v" * 30) for i in range(40)])
    # A single flush at the end, not one mid-group.
    assert store.stats.flushes == 1
    for i in range(40):
        assert store.get(b"key%03d" % i) == b"v" * 30


def test_batch_wal_logged(free_env):
    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=100_000))
    store.commit_group([put(b"a", b"1"), put(b"b", b"2")])
    revived = LSMStore(free_env, LSMConfig(write_buffer_bytes=100_000))
    assert revived.recover() == 2
    assert revived.get(b"b") == b"2"


def test_empty_batch(free_env):
    store = LSMStore(free_env, LSMConfig())
    assert store.commit_group([]) == []
    assert store.last_ts == 0


def test_duplicate_key_last_write_wins(free_env):
    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=1 << 20))
    stamps = store.commit_group([put(b"k", b"first"), put(b"k", b"second")])
    assert len(stamps) == 2
    assert stamps[0] < stamps[1]
    assert store.get(b"k") == b"second"


def test_put_then_delete_same_key_in_batch(free_env):
    store = LSMStore(free_env, LSMConfig(write_buffer_bytes=1 << 20))
    store.commit_group([put(b"k", b"v"), delete(b"k")])
    assert store.get(b"k") is None
    # And the reverse order resurrects the key.
    store.commit_group([delete(b"j"), put(b"j", b"back")])
    assert store.get(b"j") == b"back"


def test_p2_batch_verified_reads():
    store = make_p2_store()
    stamps = store.group_commit(
        [("put", *kv(i)) for i in range(30)] + [("delete", kv(2)[0])]
    )
    assert len(stamps) == 31
    store.flush()
    assert store.get(kv(1)[0]) == kv(1)[1]
    assert store.get(kv(2)[0]) is None
    assert store.current_ts == stamps[-1]


def test_p2_batch_single_ecall():
    store = make_p2_store(write_buffer_bytes=1 << 20)
    before = store.env.boundary.ecall_count
    store.group_commit([("put", *kv(i)) for i in range(20)])
    assert store.env.boundary.ecall_count == before + 1


def test_p2_batch_wal_digest_advances():
    """One digest step per record, in group order."""
    store = make_p2_store(write_buffer_bytes=1 << 20)
    ops = [("put", *kv(0)), ("delete", kv(1)[0]), ("put", *kv(2))]
    stamps = store.group_commit(ops)
    expected = WAL_DIGEST_INIT
    for ts, (kind, key, value) in zip(
        stamps, [put(*kv(0)), delete(kv(1)[0]), put(*kv(2))]
    ):
        record = Record(key=key, ts=ts, kind=kind, value=value)
        expected = advance_wal_digest(expected, record)
    assert store.listener.wal_digest == expected != WAL_DIGEST_INIT


def test_empty_batch_is_noop_on_p2():
    store = make_p2_store()
    before_ts = store.current_ts
    ecalls = store.telemetry.counter("enclave.ecalls", labels=("call",))
    ecalls_before = ecalls.total()
    assert store.group_commit([]) == []
    assert store.current_ts == before_ts
    # The (empty) group still cost exactly one boundary crossing.
    assert ecalls.total() == ecalls_before + 1


def test_p2_duplicate_and_delete_mix_verified():
    store = make_p2_store()
    key = kv(1)[0]
    store.group_commit(
        [("put", key, b"first"), ("put", key, b"second"), ("delete", kv(2)[0])]
    )
    store.put(*kv(2, version=1))
    store.flush()
    assert store.get(key) == b"second"
    assert store.get(kv(2)[0]) == kv(2, version=1)[1]
    assert store.multi_get([key, kv(2)[0]]) == [
        b"second",
        kv(2, version=1)[1],
    ]


def test_batch_spanning_flush_threshold_applies_atomically():
    """A group far larger than the write buffer must not flush midway:
    every stamp is consecutive and every record readable afterwards."""
    store = make_p2_store(write_buffer_bytes=1024)
    pairs = [kv(i) for i in range(120)]  # several buffers' worth
    flushes_before = store.db.stats.flushes
    stamps = store.group_commit([("put", *pair) for pair in pairs])
    assert stamps == list(range(stamps[0], stamps[0] + len(pairs)))
    # The flush trigger fired once, after the group was fully applied.
    assert store.db.stats.flushes == flushes_before + 1
    for key, value in pairs:
        assert store.get(key) == value


def test_batch_then_tombstone_survives_compaction():
    store = make_p2_store()
    store.group_commit(
        [("put", *kv(i)) for i in range(60)] + [("delete", kv(30)[0])]
    )
    store.flush()
    store.compact_all()
    assert store.get(kv(30)[0]) is None
    assert store.get(kv(29)[0]) == kv(29)[1]


def test_report_structure():
    store = make_p2_store()
    for i in range(120):
        store.put(*kv(i))
    store.get(kv(5)[0])
    report = store.report()
    assert report["timestamp"] == store.current_ts
    assert report["levels"]  # data reached the levels
    for level_info in report["levels"].values():
        assert level_info["records"] >= level_info["distinct_keys"] > 0
    assert report["ecalls"] > 0
    assert report["flushes"] > 0
    assert report["verified_gets"] >= 1
    assert report["simulated_us"] > 0
    assert "hash" in report["cost_breakdown_us"]


def test_report_tracks_epc_pressure():
    from tests.conftest import make_p1_store

    p1 = make_p1_store(read_buffer_bytes=1 << 20)
    for i in range(300):
        p1.put(*kv(i))
    p1.flush()
    for i in range(0, 300, 3):
        p1.get(kv(i)[0])
    assert p1.enclave.pager.fault_count > 0
