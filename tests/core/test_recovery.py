"""End-to-end persistence: crash, reopen from disk, recover, verify.

The full Section 5.6.1 state-continuity story: the trusted state
(per-level roots, WAL digest, timestamps, anchor) is sealed to untrusted
media, the store is rebuilt from the MANIFEST + SSTable files + WAL, and
recovery fails loudly on rollbacks and WAL tampering.
"""

import pytest

from repro.core.adversary import RollbackHost
from repro.core.errors import IntegrityViolation, RollbackDetected
from repro.core.store_p2 import ELSMP2Store
from tests.conftest import TEST_SCALE, kv


def make_store(**overrides):
    defaults = dict(
        scale=TEST_SCALE,
        write_buffer_bytes=2 * 1024,
        level1_max_bytes=4 * 1024,
        file_max_bytes=4 * 1024,
        block_bytes=1024,
        name_prefix="rec",
    )
    defaults.update(overrides)
    return ELSMP2Store(**defaults)


def crash_and_reopen(store, **overrides):
    """A new enclave instance over the same disk and hardware counter."""
    return make_store(
        disk=store.disk,
        clock=store.clock,
        counter=store.counter,
        rollback_protection=store.rollback_protection,
        reopen=True,
        **overrides,
    )


@pytest.fixture
def persisted():
    store = make_store()
    for i in range(200):
        store.put(*kv(i))
    for i in range(0, 200, 4):
        store.put(*kv(i, version=1))
    # A few writes stay in the WAL (not flushed) to exercise replay.
    store.flush()
    for i in range(200, 210):
        store.put(*kv(i))
    store.persist_seal()
    return store


def test_reopen_restores_everything(persisted):
    store = persisted
    revived = crash_and_reopen(store)
    replayed = revived.recover_from_disk()
    assert replayed == 10  # the unflushed WAL tail
    # Leveled data, WAL data, versions, and absences all verify.
    assert revived.get(kv(4)[0]) == kv(4, version=1)[1]
    assert revived.get(kv(7)[0]) == kv(7)[1]
    assert revived.get(kv(205)[0]) == kv(205)[1]
    assert revived.get(b"never-written") is None
    assert revived.current_ts == store.current_ts


def test_reopen_scans_verify(persisted):
    store = persisted
    revived = crash_and_reopen(store)
    revived.recover_from_disk()
    lo, hi = kv(20)[0], kv(30)[0]
    assert revived.scan(lo, hi) == store.scan(lo, hi)


def test_reopen_continues_writing(persisted):
    store = persisted
    revived = crash_and_reopen(store)
    revived.recover_from_disk()
    ts = revived.put(b"post-crash", b"value")
    assert ts > store.current_ts
    assert revived.get(b"post-crash") == b"value"
    revived.flush()
    assert revived.get(b"post-crash") == b"value"


def test_wal_tampering_detected_at_recovery(persisted):
    store = persisted
    wal = store.disk.open(store.db.wal.path)
    wal.data[20] ^= 0xFF
    revived = crash_and_reopen(store)
    with pytest.raises(IntegrityViolation):
        revived.recover_from_disk()


def test_wal_truncation_detected_at_recovery(persisted):
    """Dropping the WAL tail (losing acknowledged writes) is caught."""
    store = persisted
    wal = store.disk.open(store.db.wal.path)
    wal.data = wal.data[: len(wal.data) // 2]
    revived = crash_and_reopen(store)
    with pytest.raises(IntegrityViolation):
        revived.recover_from_disk()


def rolled_back(rollback_protection: bool = True):
    """A store whose disk the host has rolled back past a second write
    and its seal."""
    store = make_store(rollback_protection=rollback_protection, counter_buffer_ops=1)
    host = RollbackHost(store.disk)
    store.put(b"k", b"v1")
    store.flush()
    # Only a persisted seal is committed: its counter increment
    # follows the durable write.
    store.persist_seal()
    host.snapshot()
    store.put(b"k", b"v2")
    store.flush()
    store.persist_seal()
    host.rollback_to(0)
    return store


def test_rollback_detected_across_restart():
    revived = crash_and_reopen(rolled_back())
    with pytest.raises(RollbackDetected):
        revived.recover_from_disk()


def test_sstable_tampering_detected_after_reopen(persisted):
    from repro.core.adversary import tamper_sstable_byte
    from repro.core.errors import AuthenticationError

    store = persisted
    assert tamper_sstable_byte(store.disk) is not None
    revived = crash_and_reopen(store)
    revived.recover_from_disk()
    detected = 0
    for i in range(200):
        try:
            revived.get(kv(i)[0])
        except AuthenticationError:
            detected += 1
    assert detected > 0


def test_manifest_reflects_compactions(persisted):
    store = persisted
    db = store.db
    manifest = store.disk.open(f"{db.name_prefix}/MANIFEST-{db.manifest_seq:06d}")
    import json

    payload = json.loads(bytes(manifest.data))
    on_disk_levels = {
        int(level) for level, files in payload["levels"].items() if files
    }
    assert on_disk_levels == set(store.db.level_indices())
