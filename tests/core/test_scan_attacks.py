"""Targeted attacks on the SCAN (range) proof machinery."""

from dataclasses import replace

import pytest

from repro.core.errors import AuthenticationError
from repro.core.proofs import LeafReveal, RangeLevelProof, ScanProof
from tests.conftest import kv, make_p2_store


@pytest.fixture
def store():
    s = make_p2_store()
    for i in range(0, 120, 2):  # even keys
        s.put(*kv(i))
    for i in range(0, 120, 10):
        s.put(*kv(i, version=1))
    s.compact_all()
    return s


def scan_parts(store, lo, hi):
    level = store.registry.nonempty_levels()[0]
    tsq = store.current_ts
    entry = store.prover.level_range_proof(level, lo, hi, tsq)
    return level, tsq, entry


def verify(store, lo, hi, tsq, entry):
    proof = ScanProof(lo=lo, hi=hi, ts_query=tsq, levels=[entry])
    return store.verifier.verify_scan(lo, hi, tsq, proof)


def test_honest_scan_passes(store):
    lo, hi = kv(20)[0], kv(40)[0]
    level, tsq, entry = scan_parts(store, lo, hi)
    records = verify(store, lo, hi, tsq, entry)
    assert [r.key for r in records] == [kv(i)[0] for i in range(20, 41, 2)]


def test_dropped_middle_leaf_detected(store):
    lo, hi = kv(20)[0], kv(40)[0]
    level, tsq, entry = scan_parts(store, lo, hi)
    forged = replace(entry, leaves=entry.leaves[:3] + entry.leaves[4:])
    with pytest.raises(AuthenticationError):
        verify(store, lo, hi, tsq, forged)


def test_shifted_window_detected(store):
    lo, hi = kv(20)[0], kv(40)[0]
    level, tsq, entry = scan_parts(store, lo, hi)
    forged = replace(entry, window_lo=entry.window_lo + 1)
    with pytest.raises(AuthenticationError):
        verify(store, lo, hi, tsq, forged)


def test_tampered_cover_hash_detected(store):
    lo, hi = kv(20)[0], kv(40)[0]
    level, tsq, entry = scan_parts(store, lo, hi)
    if entry.cover_hashes:
        cover = (b"\x00" * 32,) + entry.cover_hashes[1:]
        forged = replace(entry, cover_hashes=cover)
        with pytest.raises(AuthenticationError):
            verify(store, lo, hi, tsq, forged)


def test_forged_value_in_window_detected(store):
    lo, hi = kv(20)[0], kv(40)[0]
    level, tsq, entry = scan_parts(store, lo, hi)
    victim = next(i for i, l in enumerate(entry.leaves) if lo <= l.key <= hi)
    leaf = entry.leaves[victim]
    forged_record = replace(leaf.records[-1], value=b"EVIL")
    forged_leaf = LeafReveal(
        records=leaf.records[:-1] + (forged_record,),
        older_digest=leaf.older_digest,
    )
    leaves = entry.leaves[:victim] + (forged_leaf,) + entry.leaves[victim + 1 :]
    with pytest.raises(AuthenticationError):
        verify(store, lo, hi, tsq, replace(entry, leaves=leaves))


def test_stale_version_in_window_detected(store):
    """Serve an old version of an updated key inside the range."""
    lo, hi = kv(0)[0], kv(40)[0]
    level, tsq, entry = scan_parts(store, lo, hi)
    victim = next(
        i for i, l in enumerate(entry.leaves) if len(l.records) >= 1 and
        lo <= l.key <= hi and l.older_digest is not None
    )
    leaf = entry.leaves[victim]
    # Claim the chain ends here AND pretend the newest doesn't exist by
    # dropping the head record: leaf hash can no longer be recomputed.
    chain = [  # the key's versions in this level, newest first
        record.ts
        for record, _aux in store.db.level_run(level).iter_entries(store.env)
        if record.key == leaf.key
    ]
    assert len(chain) >= 2
    older_only = LeafReveal(
        records=(replace(leaf.records[0], ts=chain[1]),),
        older_digest=None,
    )
    leaves = entry.leaves[:victim] + (older_only,) + entry.leaves[victim + 1 :]
    with pytest.raises(AuthenticationError):
        verify(store, lo, hi, tsq, replace(entry, leaves=leaves))


def test_window_not_covering_range_start_detected(store):
    lo, hi = kv(20)[0], kv(40)[0]
    level, tsq, entry = scan_parts(store, lo, hi)
    # Chop the left boundary + first in-range leaf: range start uncovered.
    assert entry.window_lo > 0
    forged = replace(
        entry, leaves=entry.leaves[2:], window_lo=entry.window_lo + 2
    )
    with pytest.raises(AuthenticationError):
        verify(store, lo, hi, tsq, forged)


def test_reordered_leaves_detected(store):
    lo, hi = kv(20)[0], kv(40)[0]
    level, tsq, entry = scan_parts(store, lo, hi)
    leaves = (entry.leaves[1], entry.leaves[0]) + entry.leaves[2:]
    with pytest.raises(AuthenticationError):
        verify(store, lo, hi, tsq, replace(entry, leaves=leaves))


def test_attacks_on_encrypted_store():
    """Authentication composes with encryption: attacks still detected."""
    from repro.core.adversary import ForgingProver, ScanDroppingProver

    store = make_p2_store(encryption_mode="ope", secret=b"s" * 32)
    for i in range(60):
        store.put(*kv(i))
    store.compact_all()
    store.prover = ForgingProver(store.db)
    with pytest.raises(AuthenticationError):
        store.get(kv(10)[0])
    store.prover = ScanDroppingProver(store.db)
    with pytest.raises(AuthenticationError):
        store.scan(kv(10)[0], kv(30)[0])
