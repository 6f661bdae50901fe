"""Error paths of sealed-state recovery (Section 5.6.1 edge cases).

Covers the three failure families separately: a *stale* seal (rollback,
counter mismatch), a *tampered/torn* seal blob (SealError), and a WAL
modified after the seal was taken (IntegrityViolation) — plus the
fall-back behaviour of ``recover_from_disk`` over numbered SEAL files.
"""

import pytest

from repro.core.adversary import RollbackHost
from repro.core.errors import IntegrityViolation, RollbackDetected
from repro.sgx.counter import TrustedMonotonicCounter
from repro.sgx.sealing import (
    SealError,
    decode_blob,
    encode_blob,
    load_blob,
    unseal,
)
from tests.conftest import kv, make_p2_store


def make_autoseal_store(**overrides):
    defaults = dict(
        rollback_protection=True,
        autoseal=True,
        wal_sync_every=4,
    )
    defaults.update(overrides)
    return make_p2_store(**defaults)


def reopen(store, **overrides):
    return make_autoseal_store(
        disk=store.disk,
        clock=store.clock,
        counter=store.counter,
        reopen=True,
        **overrides,
    )


# ----------------------------------------------------------------------
# Stale seal: RollbackDetected
# ----------------------------------------------------------------------
def test_rolled_back_disk_image_detected_by_recover_from_disk():
    store = make_autoseal_store()
    host = RollbackHost(store.disk)
    store.persist_seal()
    for i in range(30):
        store.put(*kv(i))
    host.snapshot()
    seals_before = store._seal_seq
    for i in range(30, 80):
        store.put(*kv(i))
    store.flush()
    assert store._seal_seq - seals_before >= 2  # counter moved >= 2 past
    host.rollback_to(0)
    with pytest.raises(RollbackDetected):
        reopen(store).recover_from_disk()


def seals_behind(behind: int):
    """A store whose disk image is ``behind`` persisted seals older than
    its hardware counter."""
    store = make_autoseal_store()
    host = RollbackHost(store.disk)
    for i in range(10):
        store.put(*kv(i))
    store.persist_seal()
    host.snapshot()
    for _ in range(behind):
        store.persist_seal()
    host.rollback_to(0)
    return store


def test_one_seal_behind_is_a_rollback():
    """The seal is written before the counter moves, so the newest
    honest seal is never behind the counter: one seal old is a rollback."""
    with pytest.raises(RollbackDetected):
        reopen(seals_behind(1)).recover_from_disk()


def test_two_seals_behind_rejected():
    with pytest.raises(RollbackDetected):
        reopen(seals_behind(2)).recover_from_disk()


def test_seal_two_ahead_of_counter_rejected():
    """No honest order leaves a seal two ahead of the counter."""
    store = make_autoseal_store()
    store.persist_seal()
    store.persist_seal()  # the seal on disk claims 2
    behind = make_autoseal_store(
        disk=store.disk,
        clock=store.clock,
        counter=TrustedMonotonicCounter(store.clock),  # reads 0
        reopen=True,
    )
    with pytest.raises(RollbackDetected):
        behind.recover_from_disk()


# ----------------------------------------------------------------------
# Tampered / torn seal blob: SealError
# ----------------------------------------------------------------------
def test_tampered_seal_blob_fails_unseal():
    store = make_p2_store()
    for i in range(10):
        store.put(*kv(i))
    blob = load_blob(store.env, store.persist_seal())
    data = bytearray(blob.ciphertext)
    data[5] ^= 0xFF
    tampered = type(blob)(
        ciphertext=bytes(data), mac=blob.mac, measurement=blob.measurement
    )
    with pytest.raises(SealError):
        unseal(store.enclave, tampered)


def test_torn_seal_file_fails_decode():
    store = make_p2_store()
    blob = load_blob(store.env, store.persist_seal())
    encoded = encode_blob(blob)
    with pytest.raises(SealError):
        decode_blob(encoded[: len(encoded) // 2])
    with pytest.raises(SealError):
        decode_blob(b"{not json")


def test_tampered_only_seal_on_disk_refused_loudly():
    store = make_autoseal_store()
    for i in range(10):
        store.put(*kv(i))
    name = store.persist_seal()
    store.disk.open(name).data[8] ^= 0x01
    with pytest.raises(IntegrityViolation):
        reopen(store).recover_from_disk()


def test_torn_newest_seal_falls_back_to_previous():
    """A crash mid-seal-write leaves a torn SEAL-n; recovery adopts
    SEAL-(n-1) and replays the WAL prefix that seal covers."""
    store = make_p2_store(rollback_protection=False, wal_sync_every=1 << 20)
    for i in range(10):
        store.put(*kv(i))
    first = store.persist_seal()
    saved = bytes(store.disk.open(first).data)
    ts_at_first = store.current_ts
    for i in range(10, 20):
        store.put(*kv(i))
    second = store.persist_seal()  # reaps SEAL-1
    # Re-materialise the first seal, then tear the second.
    store.disk.create(first)
    store.disk.open(first).data = bytearray(saved)
    torn = store.disk.open(second)
    torn.data = torn.data[: len(torn.data) // 2]
    revived = make_p2_store(
        rollback_protection=False,
        wal_sync_every=1 << 20,
        disk=store.disk,
        clock=store.clock,
        counter=store.counter,
        reopen=True,
    )
    revived.recover_from_disk()
    # The state is the first seal's: later records were unauthenticated.
    assert revived.current_ts == ts_at_first
    assert revived.get(kv(5)[0]) == kv(5)[1]
    assert revived.get(kv(15)[0]) is None
    assert revived.audit().clean


def test_no_seal_on_disk_refused():
    store = make_autoseal_store()
    store.put(b"k", b"v")
    with pytest.raises(IntegrityViolation):
        reopen(store).recover_from_disk()  # nothing was ever persisted


# ----------------------------------------------------------------------
# WAL tampered after sealing: IntegrityViolation
# ----------------------------------------------------------------------
def test_wal_tamper_after_seal_detected_by_recover_from_disk():
    store = make_autoseal_store()
    for i in range(10):
        store.put(*kv(i))
    store.persist_seal()
    store.disk.open(store.db.wal.path).data[12] ^= 0xFF
    with pytest.raises(IntegrityViolation):
        reopen(store).recover_from_disk()


def test_wal_truncation_below_sealed_digest_detected():
    """Losing acked, sealed WAL bytes (a lying device) cannot recover to
    any matching prefix: recovery must refuse, not serve a hole."""
    store = make_autoseal_store()
    for i in range(10):
        store.put(*kv(i))
    store.persist_seal()
    wal_file = store.disk.open(store.db.wal.path)
    wal_file.data = wal_file.data[: len(wal_file.data) // 2]
    with pytest.raises(IntegrityViolation):
        reopen(store).recover_from_disk()


def test_unsealed_wal_suffix_dropped_with_telemetry():
    """Records appended after the last seal are unauthenticated: recovery
    keeps the sealed prefix, truncates the rest, and records the drop."""
    store = make_p2_store(rollback_protection=False, wal_sync_every=1 << 20)
    for i in range(10):
        store.put(*kv(i))
    store.persist_seal()
    for i in range(10, 14):
        store.put(*kv(i))  # in the WAL, but never sealed
    revived = make_p2_store(
        rollback_protection=False,
        wal_sync_every=1 << 20,
        disk=store.disk,
        clock=store.clock,
        counter=store.counter,
        reopen=True,
    )
    revived.recover_from_disk()
    assert revived.current_ts == 10
    assert revived.get(kv(12)[0]) is None
    dropped = revived.telemetry.counter("wal.recovery.dropped_entries").total()
    assert dropped == 4
    # The physical file was cut back to the authenticated prefix.
    assert len(list(revived.db.wal.replay())) == 10


# ----------------------------------------------------------------------
# What the seal holds
# ----------------------------------------------------------------------
class ReadRecordingPayload(dict):
    """An unsealed payload that remembers every key recovery reads."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_recovery_reads_every_sealed_field(monkeypatch):
    """The seal carries exactly the state recovery adopts: no field is
    sealed that a restart never reads."""
    store = make_p2_store(rollback_protection=True)
    for i in range(20):
        store.put(*kv(i))
    store.flush()
    for i in range(20, 25):
        store.put(*kv(i))
    store.persist_seal()
    payloads = []

    def recording_unseal(enclave, blob):
        payloads.append(ReadRecordingPayload(unseal(enclave, blob)))
        return payloads[-1]

    monkeypatch.setattr("repro.core.store_p2.unseal", recording_unseal)
    revived = make_p2_store(
        rollback_protection=True,
        disk=store.disk,
        clock=store.clock,
        counter=store.counter,
        reopen=True,
    )
    revived.recover_from_disk()
    assert len(payloads) == 1
    assert payloads[0].read == set(payloads[0])
    assert revived.get(kv(22)[0]) == kv(22)[1]
