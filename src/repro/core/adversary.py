"""Malicious-host attack harness (the threat model of Section 3.3).

Each adversarial prover subclasses the honest :class:`Prover` and
tampers with exactly one aspect of proof assembly, mirroring the attacks
the paper's security analysis enumerates:

* :class:`ForgingProver` — fabricate a value never written (integrity);
* :class:`StaleRevealProver` — serve an older version while *admitting*
  the newer one in the chain reveal (the paper's malicious case for
  ``<Z,6>`` vs ``<Z,7>``; caught by the freshness check);
* :class:`StaleHidingProver` — serve an older version and try to *hide*
  the newer one (caught by the leaf hash);
* :class:`OmittingProver` — claim non-membership for a present key using
  non-adjacent neighbours (completeness);
* :class:`ScanDroppingProver` — drop a record from a range result
  (completeness under SCAN);
* :class:`CrossLevelReplayProver` — replay a proof from a different
  level (caught by the per-level roots);
* :class:`BatchSplicingProver` — swap two deduplicated nodes inside a
  MULTIGET batch proof's shared node pool (integrity on the batch path);
* :class:`BatchRefReuseProver` — point one key's auth-path references at
  another key's pooled nodes (cross-key splicing; integrity);
* :func:`tamper_sstable_byte` — flip bytes on the untrusted disk, which
  the next read or compaction must detect;
* :class:`RollbackHost` — restore an older disk image, seals included
  (caught by the monotonic counter when rollback protection is on).
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.prover import Prover
from repro.core.proofs import (
    BatchGetProof,
    BatchLevelMembership,
    LeafReveal,
    LevelMembership,
    LevelNonMembership,
    RangeLevelProof,
)
from repro.sim.disk import SimDisk


class ForgingProver(Prover):
    """Replaces the result value with attacker-chosen bytes."""

    def __init__(self, store, fake_value: bytes = b"FORGED") -> None:
        super().__init__(store)
        self.fake_value = fake_value

    def level_get_proof(self, level, key, ts_query):
        """Honest proof with the result value swapped for attacker bytes."""
        entry = super().level_get_proof(level, key, ts_query)
        if isinstance(entry, LevelMembership):
            records = list(entry.reveal.records)
            records[-1] = replace(records[-1], value=self.fake_value)
            entry = replace(
                entry,
                reveal=LeafReveal(
                    records=tuple(records),
                    older_digest=entry.reveal.older_digest,
                ),
            )
        return entry


class StaleRevealProver(Prover):
    """Serves the second-newest version, honestly revealing the newest.

    This is the paper's canonical malicious case: the chain forces the
    host to include ``<Z,7>`` when serving ``<Z,6>``, and the enclave
    "can detect that ``<Z,6>`` is not the most fresh record".
    """

    def level_get_proof(self, level, key, ts_query):
        """Serve the stale version while revealing the newer one."""
        run = self.store.level_run(level)
        assert run is not None
        result = run.lookup(self.store.fetcher, key)
        if result.group and len(result.group) >= 2:
            from repro.core.prover import _embedded

            head = _embedded(result.group[0])
            stale_proof = _embedded(result.group[1])
            records = tuple(record for record, _ in result.group[:2])
            return LevelMembership(
                level=level,
                leaf_index=head.leaf_index,
                reveal=LeafReveal(
                    records=records, older_digest=stale_proof.older_digest
                ),
                path=head.path,
            )
        return super().level_get_proof(level, key, ts_query)


class StaleHidingProver(Prover):
    """Serves the second-newest version and hides the newest entirely."""

    def level_get_proof(self, level, key, ts_query):
        """Serve the stale version with the newer one omitted."""
        run = self.store.level_run(level)
        assert run is not None
        result = run.lookup(self.store.fetcher, key)
        if result.group and len(result.group) >= 2:
            from repro.core.prover import _embedded

            head = _embedded(result.group[0])
            stale_record, _ = result.group[1]
            stale_proof = _embedded(result.group[1])
            return LevelMembership(
                level=level,
                leaf_index=head.leaf_index,
                reveal=LeafReveal(
                    records=(stale_record,), older_digest=stale_proof.older_digest
                ),
                path=head.path,
            )
        return super().level_get_proof(level, key, ts_query)


class OmittingProver(Prover):
    """Claims non-membership for a key that exists.

    It reveals the (real, correctly-authenticated) leaves on either side
    of the target leaf — which are *not adjacent*, so the verifier's
    adjacency check must fire.
    """

    def level_get_proof(self, level, key, ts_query):
        """Answer a present key with a (non-adjacent) absence claim."""
        entry = super().level_get_proof(level, key, ts_query)
        if not isinstance(entry, LevelMembership):
            return entry
        run = self.store.level_run(level)
        assert run is not None
        result = run.lookup(self.store.fetcher, key)
        from repro.core.prover import _boundary_reveal, _embedded

        left, right = result.left, result.right
        return LevelNonMembership(
            level=level,
            left_index=_embedded(left).leaf_index if left is not None else None,
            left=_boundary_reveal(left) if left is not None else None,
            left_path=_embedded(left).path if left is not None else (),
            right_index=_embedded(right).leaf_index if right is not None else None,
            right=_boundary_reveal(right) if right is not None else None,
            right_path=_embedded(right).path if right is not None else (),
        )


class ScanDroppingProver(Prover):
    """Silently removes one in-range leaf from a SCAN window."""

    def __init__(self, store, drop_index: int = 0) -> None:
        super().__init__(store)
        self.drop_index = drop_index

    def level_range_proof(self, level, lo, hi, ts_query):
        """Honest window with one in-range leaf removed."""
        entry = super().level_range_proof(level, lo, hi, ts_query)
        in_range = [
            i for i, leaf in enumerate(entry.leaves) if lo <= leaf.key <= hi
        ]
        if not in_range:
            return entry
        victim = in_range[min(self.drop_index, len(in_range) - 1)]
        leaves = tuple(
            leaf for i, leaf in enumerate(entry.leaves) if i != victim
        )
        return RangeLevelProof(
            level=entry.level,
            window_lo=entry.window_lo,
            leaves=leaves,
            cover_hashes=entry.cover_hashes,
        )


class CrossLevelReplayProver(Prover):
    """Answers a level's query with another level's (valid) proof."""

    def __init__(self, store, impersonated_level: int) -> None:
        super().__init__(store)
        self.impersonated_level = impersonated_level

    def level_get_proof(self, level, key, ts_query):
        """Answer with another level's proof, relabelled."""
        source = super().level_get_proof(self.impersonated_level, key, ts_query)
        return replace(source, level=level)


class BatchSplicingProver(Prover):
    """Swaps two deduplicated nodes inside the batch proof's node pool.

    Every reference that resolved to either node now resolves to the
    other, so the spliced auth paths no longer reach the level roots —
    the verifier must reject the whole batch (integrity, batch path).
    """

    def assemble_batch(self, keys, ts_query, per_key_entries) -> BatchGetProof:
        """Honest assembly, then one pool swap."""
        proof = super().assemble_batch(keys, ts_query, per_key_entries)
        if len(proof.node_pool) >= 2:
            pool = list(proof.node_pool)
            pool[0], pool[-1] = pool[-1], pool[0]
            proof.node_pool = tuple(pool)
        return proof


class BatchRefReuseProver(Prover):
    """Points one key's path references at another key's pooled nodes.

    Cross-key reference reuse is the attack dedup uniquely enables: the
    pooled nodes are each individually authentic, but stitching key A's
    leaf to key B's auth path must still fail the root comparison.
    """

    def assemble_batch(self, keys, ts_query, per_key_entries) -> BatchGetProof:
        """Honest assembly, then splice one membership's path refs."""
        proof = super().assemble_batch(keys, ts_query, per_key_entries)
        members: list[tuple[int, int, BatchLevelMembership]] = []
        for ki, entries in enumerate(proof.per_key):
            for ei, entry in enumerate(entries):
                if isinstance(entry, BatchLevelMembership):
                    members.append((ki, ei, entry))
        for ai in range(len(members)):
            for bi in range(ai + 1, len(members)):
                ka, ea, ma = members[ai]
                kb, _eb, mb = members[bi]
                if (
                    ka != kb
                    and ma.level == mb.level
                    and ma.path_refs != mb.path_refs
                ):
                    per_key = [list(entries) for entries in proof.per_key]
                    per_key[ka][ea] = replace(ma, path_refs=mb.path_refs)
                    proof.per_key = tuple(
                        tuple(entries) for entries in per_key
                    )
                    return proof
        return proof


def tamper_sstable_byte(disk: SimDisk, level_prefix: str = "L", flip: int = 0x01):
    """Flip one byte inside a stored *record* on the untrusted disk.

    Targets the first record's value (or key, for empty values) so the
    corruption lands in authenticated bytes rather than the regenerable
    embedded-proof annotation.  Returns the tampered file name, or None.
    """
    from repro.lsm.sstable import _ENTRY_HEADER

    for name in disk.list_files():
        if ".sst" in name and f"/{level_prefix}" in name:
            f = disk.open(name)
            if len(f.data) <= _ENTRY_HEADER.size:
                continue
            key_len, _ts, _kind, value_len, _aux_len = _ENTRY_HEADER.unpack_from(
                f.data, 0
            )
            if value_len:
                offset = _ENTRY_HEADER.size + key_len  # first value byte
            else:
                offset = _ENTRY_HEADER.size  # first key byte
            f.data[offset] ^= flip
            return name
    return None


class RollbackHost:
    """Snapshots and restores the full untrusted disk, seal files included.

    Models the Section 5.6.1 adversary: after a power cycle it hands the
    enclave an *older but authentic* disk image, whose newest seal is the
    one ``recover_from_disk`` then adopts.
    """

    def __init__(self, disk: SimDisk) -> None:
        self.disk = disk
        self._images: list[dict[str, bytes]] = []

    def snapshot(self) -> int:
        """Capture the full disk image; returns its index."""
        self._images.append(
            {name: bytes(self.disk.open(name).data) for name in self.disk.list_files()}
        )
        return len(self._images) - 1

    def rollback_to(self, index: int) -> None:
        """Replace the disk with a captured image, as if fully synced."""
        for name in list(self.disk.list_files()):
            self.disk.delete(name)
        for name, data in self._images[index].items():
            self.disk.create(name)
            self.disk.open(name).data = bytearray(data)
            self.disk.open(name).synced_bytes = len(data)
