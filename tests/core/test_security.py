"""Security tests: every attack in the threat model must be detected.

Section 3.3: the untrusted host can forge results (integrity), serve
stale versions (freshness), or omit legitimate records (completeness);
Section 5.6.1 adds rollback.  Each adversarial prover swaps into a live
store and the verified GET/SCAN must raise the right exception.
"""

import pytest

from repro.core.adversary import (
    CrossLevelReplayProver,
    ForgingProver,
    OmittingProver,
    ScanDroppingProver,
    StaleHidingProver,
    StaleRevealProver,
    tamper_sstable_byte,
)
from repro.core.errors import (
    AuthenticationError,
    CompletenessViolation,
    FreshnessViolation,
    IntegrityViolation,
    RollbackDetected,
)
from tests.conftest import kv, make_p2_store
from tests.core.test_recovery import crash_and_reopen, make_store, rolled_back


@pytest.fixture
def store():
    """A store with multi-level data and same-key chains."""
    s = make_p2_store()
    for i in range(200):
        s.put(*kv(i))
    for i in range(0, 200, 4):
        s.put(*kv(i, version=1))
    s.flush()
    return s


def chained_key(store):
    """A key with >= 2 versions co-located in one level."""
    store.compact_all()
    return kv(8)[0]


def test_forged_value_detected(store):
    store.prover = ForgingProver(store.db, fake_value=b"EVIL")
    with pytest.raises(IntegrityViolation):
        store.get(kv(17)[0])


def test_stale_with_newer_revealed_detected(store):
    """The paper's <Z,6>-served-while-<Z,7>-exists case."""
    key = chained_key(store)
    store.prover = StaleRevealProver(store.db)
    with pytest.raises(FreshnessViolation):
        store.get(key)


def test_stale_with_newer_hidden_detected(store):
    key = chained_key(store)
    store.prover = StaleHidingProver(store.db)
    with pytest.raises(IntegrityViolation):
        store.get(key)


def test_omission_detected(store):
    store.compact_all()
    store.prover = OmittingProver(store.db)
    with pytest.raises(CompletenessViolation):
        store.get(kv(50)[0])


def test_scan_drop_detected(store):
    store.compact_all()
    store.prover = ScanDroppingProver(store.db, drop_index=1)
    with pytest.raises(AuthenticationError):
        store.scan(kv(30)[0], kv(40)[0])


def test_cross_level_replay_detected():
    """A valid membership proof from level B, relabelled as level A, must
    fail against level A's root (per-level digests are not fungible)."""
    from dataclasses import replace

    from repro.core.proofs import GetProof

    store = make_p2_store()
    for i in range(100):
        store.put(*kv(i))
    store.compact_all()
    for i in range(100):
        store.put(*kv(i, version=1))
    store.flush()
    levels = store.registry.nonempty_levels()
    assert len(levels) >= 2
    shallow, deep = levels[0], levels[-1]
    key = kv(5)[0]
    tsq = store.current_ts
    genuine = store.prover.level_get_proof(deep, key, tsq)
    forged = replace(genuine, level=shallow)
    proof = GetProof(key=key, ts_query=tsq, levels=[forged])
    with pytest.raises(AuthenticationError):
        store.verifier.verify_get(
            key, tsq, proof, trusted_absence=store._trusted_absence
        )


def test_replay_prover_wrapper_detected_when_key_on_both_levels():
    """End-to-end variant: force the key onto two levels, then replay."""
    store = make_p2_store()
    for i in range(100):
        store.put(*kv(i))
    store.compact_all()
    deep = store.registry.nonempty_levels()[0]
    # Write new versions and flush WITHOUT triggering cascades, so the
    # key provably exists at level 1 and at the deep level.
    store.db.config.level1_max_bytes = 1 << 30
    for i in range(100):
        store.put(*kv(i, version=1))
    store.flush()
    levels = store.registry.nonempty_levels()
    assert levels[0] == 1 and len(levels) >= 2
    store.prover = CrossLevelReplayProver(store.db, impersonated_level=deep)
    with pytest.raises(AuthenticationError):
        store.get(kv(5)[0])


def test_disk_tampering_detected_on_read(store):
    store.compact_all()
    name = tamper_sstable_byte(store.disk)
    assert name is not None
    detected = 0
    for i in range(200):
        try:
            store.get(kv(i)[0])
        except AuthenticationError:
            detected += 1
    assert detected > 0


def test_disk_tampering_detected_by_compaction(store):
    store.flush()
    assert tamper_sstable_byte(store.disk) is not None
    with pytest.raises(AuthenticationError):
        store.compact_all()


def test_honest_prover_still_passes(store):
    """Sanity: the detection tests are not vacuous."""
    key = chained_key(store)
    assert store.get(key) == kv(8, version=1)[1]
    assert store.get(b"missing") is None
    assert len(store.scan(kv(30)[0], kv(40)[0])) == 11


# ----------------------------------------------------------------------
# Rollback (Section 5.6.1)
# ----------------------------------------------------------------------
def test_rollback_detected_with_counter():
    with pytest.raises(RollbackDetected):
        crash_and_reopen(rolled_back()).recover_from_disk()


def test_rollback_undetected_without_counter():
    """Sealing alone cannot stop rollbacks — the attack the paper's
    monotonic counter exists to close."""
    revived = crash_and_reopen(rolled_back(rollback_protection=False))
    revived.recover_from_disk()  # no exception: undetected
    assert revived.current_ts == 1
    assert revived.get(b"k") == b"v1"


def test_fresh_recovery_accepted():
    store = make_store(rollback_protection=True, counter_buffer_ops=1)
    store.put(b"k", b"v1")
    store.flush()
    store.persist_seal()
    revived = crash_and_reopen(store)
    revived.recover_from_disk()
    assert revived.current_ts == store.current_ts
    assert revived.get(b"k") == b"v1"


def test_wal_digest_detects_tampered_log():
    """Replaying a modified WAL cannot reproduce the enclave's digest."""
    from repro.core.auth_compaction import WAL_DIGEST_INIT, advance_wal_digest

    store = make_p2_store(write_buffer_bytes=1 << 20)  # keep all in WAL
    for i in range(10):
        store.put(*kv(i))
    trusted = store.listener.wal_digest
    # Untrusted host flips a byte in the WAL file.
    wal_file = store.disk.open(store.db.wal.path)
    wal_file.data[30] ^= 0x01
    digest = WAL_DIGEST_INIT
    for record in store.db.wal.replay():
        digest = advance_wal_digest(digest, record)
    assert digest != trusted


def test_dataset_hash_tracks_every_write():
    store = make_p2_store()
    seen = {store.dataset_hash()}
    for i in range(5):
        store.put(*kv(i))
        assert store.dataset_hash() not in seen
        seen.add(store.dataset_hash())


def test_file_deletion_is_denial_not_deception(store):
    """An adversary deleting SSTable files can only cause failures —
    never a wrong-but-accepted answer (availability vs integrity)."""
    store.compact_all()
    level = store.db.level_indices()[0]
    victim = store.db.level_run(level).tables[0]
    store.db.fetcher.invalidate_file(victim.name)
    store.disk.delete(victim.name)
    outcomes = {"ok": 0, "denied": 0}
    for i in range(0, 200, 7):
        try:
            value = store.get(kv(i)[0])
            assert value in (kv(i)[1], kv(i, version=1)[1])
            outcomes["ok"] += 1
        except (FileNotFoundError, AuthenticationError):
            outcomes["denied"] += 1
    assert outcomes["denied"] > 0  # the missing file is noticed
