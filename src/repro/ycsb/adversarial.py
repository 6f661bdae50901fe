"""Adversarial YCSB workloads ("LSM Trees in Adversarial Environments").

Attack generators that plug into the existing YCSB driver
(:func:`repro.ycsb.runner.run_phase`): each subclasses
:class:`~repro.ycsb.workload.CoreWorkload`, so key/value synthesis and
the run loop are unchanged — only the operation stream is hostile.

The attacker model: full knowledge of the engine (this repository), read
access to the untrusted disk (SSTable files are public bytes), and the
ability to issue requests as one client among many.  The attacker does
*not* see inside the enclave — which is exactly the boundary the salted
Bloom defense exploits: mining runs against filters reconstructed from
public file bytes with the *unkeyed* hash, and goes blind once the real
filters are keyed with sealed enclave randomness.

Attacks (``ATTACKS``):

* ``filter-saturation`` — reads of keys mined to pass a table's
  reconstructed Bloom filter while being absent, so every read forces a
  Merkle non-membership proof descent instead of a trusted-negative skip.
* ``always-miss`` — reads of in-range absent keys: never a memtable hit,
  never an early stop, every level consulted.
* ``hot-key-flood`` — update-floods one hot key, growing its version
  group until every (honest) read of it hauls a long hash chain.
* ``tombstone-bomb`` — delete sweeps over the loaded key range plus
  filler inserts, driving flush/compaction cascades and write
  amplification.

Keys with index >= :data:`ATTACK_KEY_BASE` are synthesised by the
attack (mined or crafted raw keys); indices below behave exactly as in
the honest ``CoreWorkload``.
"""

from __future__ import annotations

import random

from repro.lsm.db import BLOOM_BITS_PER_KEY
from repro.lsm.sstable import rebuild_meta
from repro.ycsb.workload import (
    OP_DELETE,
    OP_INSERT,
    OP_READ,
    OP_UPDATE,
    CoreWorkload,
    Operation,
    WorkloadSpec,
)

ATTACK_FILTER_SATURATION = "filter-saturation"
ATTACK_ALWAYS_MISS = "always-miss"
ATTACK_HOT_KEY_FLOOD = "hot-key-flood"
ATTACK_TOMBSTONE_BOMB = "tombstone-bomb"

ATTACKS = (
    ATTACK_FILTER_SATURATION,
    ATTACK_ALWAYS_MISS,
    ATTACK_HOT_KEY_FLOOD,
    ATTACK_TOMBSTONE_BOMB,
)

#: Key indices at or above this are attack-synthesised keys.
ATTACK_KEY_BASE = 1 << 40


class AdversarialWorkload(CoreWorkload):
    """Base class: an attack posing as a CoreWorkload.

    ``prepare(store)`` runs after the load phase (and any flush), before
    the attack starts — the mining window in which the adversary studies
    the public on-disk state.  It returns an info dict for reporting.
    """

    attack: str = "?"
    #: How the attack's traffic arrives: 1 = a steady drip interleaved
    #: with honest ops, N = concentrated volleys of N ops at a time (the
    #: arrival pattern a real flood presents to an admission queue).
    burst_size: int = 1
    #: How many client identities the attack spreads itself across.  A
    #: real flood is distributed; per-client buckets slow each sybil,
    #: but only the *global* budget can see their sum — which is what
    #: pushes an overwhelmed store into ``overloaded``.
    sybils: int = 1

    def __init__(self, record_count: int, seed: int = 42) -> None:
        spec = WorkloadSpec(f"adv-{self.attack}", read_prop=1.0)
        super().__init__(spec, record_count, seed=seed)
        self._attack_keys: list[bytes] = []
        self._attack_cursor = 0

    def prepare(self, store) -> dict:
        """Post-load reconnaissance hook; default does nothing."""
        return {}

    def key(self, index: int) -> bytes:
        """Honest key below :data:`ATTACK_KEY_BASE`, attack key above."""
        if index >= ATTACK_KEY_BASE:
            return self.attack_key(index - ATTACK_KEY_BASE)
        return super().key(index)

    def attack_key(self, offset: int) -> bytes:
        """The ``offset``-th synthesised attack key (mined or crafted)."""
        if not self._attack_keys:
            raise RuntimeError(
                f"{self.attack}: prepare(store) must run before the attack"
            )
        return self._attack_keys[offset % len(self._attack_keys)]

    def _next_attack_index(self) -> int:
        index = ATTACK_KEY_BASE + self._attack_cursor
        self._attack_cursor += 1
        return index


class FilterSaturationWorkload(AdversarialWorkload):
    """Reads of keys mined against reconstructed (unkeyed) Bloom filters.

    The adversary replays each SSTable's public file bytes through the
    same deterministic metadata rebuild the store uses at reopen
    (:func:`repro.lsm.sstable.rebuild_meta` with no salt), which yields
    exactly the unkeyed filter an undefended store holds in the enclave.
    It then brute-forces candidates until enough pass some table's
    filter.  Each candidate is an honest key plus a suffix, so it sits
    strictly between two stored keys — inside every key-range check —
    while matching nothing (the attack inserts no keys).  Against
    unkeyed filters every mined read defeats the trusted-negative skip
    and costs a per-level non-membership proof; against salted filters
    the same keys are near-uniformly rejected.
    """

    attack = ATTACK_FILTER_SATURATION

    def __init__(
        self,
        record_count: int,
        seed: int = 42,
        target_keys: int = 128,
        max_probes: int = 400_000,
    ) -> None:
        super().__init__(record_count, seed=seed)
        self.target_keys = target_keys
        self.max_probes = max_probes
        self.mining_probes = 0

    def prepare(self, store) -> dict:
        """Reconstruct every table's filter from public bytes, then mine."""
        db = store.db if hasattr(store, "db") else store
        env = db.env
        config = db.config
        ghosts = []
        for level in db.level_indices():
            run = db.level_run(level)
            for meta in run.tables:
                ghosts.append(
                    rebuild_meta(
                        env,
                        meta.name,
                        meta.level,
                        meta.file_no,
                        block_bytes=config.block_bytes,
                        bloom_bits_per_key=BLOOM_BITS_PER_KEY,
                        protect=config.protect_files,
                        compress=config.compression,
                    )
                )
        mined: list[bytes] = []
        probes = 0
        span = max(1, self.record_count - 1)
        while len(mined) < self.target_keys and probes < self.max_probes:
            # Honest key + "." + counter sorts strictly between two
            # stored keys, so every range check passes and only the
            # filter stands between the read and a full proof.
            candidate = (
                super(AdversarialWorkload, self).key(probes % span)
                + b"."
                + str(probes).encode()
            )
            probes += 1
            for ghost in ghosts:
                # Mirror the store's may_contain: range first, then bloom.
                if ghost.min_key <= candidate <= ghost.max_key:
                    if ghost.bloom.may_contain(candidate):
                        mined.append(candidate)
                        break
        self.mining_probes = probes
        self._attack_keys = mined
        return {
            "tables_reconstructed": len(ghosts),
            "mined_keys": len(mined),
            "mining_probes": probes,
        }

    def next_op(self) -> Operation:
        """Round-robin reads over the mined key set."""
        return Operation(OP_READ, self._next_attack_index())


class AlwaysMissWorkload(AdversarialWorkload):
    """Uniform reads of in-range keys that are guaranteed absent.

    Misses never hit the memtable and never early-stop, so each read
    consults every level; whenever a filter false-positives the read
    additionally pays a non-membership proof.  The crafted keys sit
    inside the loaded key range, so trusted key-range metadata cannot
    exclude them — only the filters (or admission control) help.
    """

    attack = ATTACK_ALWAYS_MISS

    def __init__(self, record_count: int, seed: int = 42) -> None:
        super().__init__(record_count, seed=seed)
        self._miss_rng = random.Random(seed + 97)

    def prepare(self, store) -> dict:
        """Craft one guaranteed-absent, in-range key per honest key."""
        # One miss key per honest key: the honest key with its last
        # digit swapped for a non-digit stays within [min_key, max_key]
        # while matching no stored key.
        span = max(1, self.record_count - 10)
        self._attack_keys = [
            super(AdversarialWorkload, self).key(i)[:-1] + b"x" for i in range(span)
        ]
        return {"miss_keys": len(self._attack_keys)}

    def next_op(self) -> Operation:
        """Uniform random reads over the crafted miss keys."""
        offset = self._miss_rng.randrange(len(self._attack_keys) or 1)
        return Operation(OP_READ, ATTACK_KEY_BASE + offset)


class HotKeyFloodWorkload(AdversarialWorkload):
    """Update-floods the zipfian-hottest key (index 0).

    Every update appends a version and the engine keeps every version
    (the paper's hash chains need them), so the key's version group
    grows without bound and any read of the hot key reveals an
    ever-longer chain.  The flood's own reads keep pulling those proofs while honest
    zipfian traffic — which by construction favours the same hot keys —
    degrades collaterally.
    """

    attack = ATTACK_HOT_KEY_FLOOD
    burst_size = 64
    sybils = 8

    def __init__(
        self, record_count: int, seed: int = 42, update_prop: float = 0.9
    ) -> None:
        super().__init__(record_count, seed=seed)
        self.update_prop = update_prop
        self._flood_rng = random.Random(seed + 31)

    def prepare(self, store) -> dict:
        """No reconnaissance needed; the hottest key is public knowledge."""
        return {"hot_key_index": 0}

    def next_op(self) -> Operation:
        """Mostly updates of the hot key, a few reads of it."""
        if self._flood_rng.random() < self.update_prop:
            return Operation(OP_UPDATE, 0)
        return Operation(OP_READ, 0)


class TombstoneBombWorkload(AdversarialWorkload):
    """Delete sweeps across the loaded key range.

    Tombstones are cheap for the attacker but expensive downstream: they
    fill the memtable, must be flushed, merged through every level, and
    only die at the bottom — each sweep forces authenticated compaction
    cascades and write amplification that the store, not the attacker,
    pays for.  ``delete_prop`` below 1 dilutes the sweep with fresh-key
    filler inserts; note those are per-op indistinguishable from honest
    writes, so admission can only fair-share them, not single them out
    (see docs/robustness.md on residual write-flood exposure).
    """

    attack = ATTACK_TOMBSTONE_BOMB

    def __init__(
        self, record_count: int, seed: int = 42, delete_prop: float = 1.0
    ) -> None:
        super().__init__(record_count, seed=seed)
        self.delete_prop = delete_prop
        self._bomb_rng = random.Random(seed + 61)
        self._sweep = 0

    def prepare(self, store) -> dict:
        """No reconnaissance needed; the loaded range is the target."""
        return {"sweep_range": self.record_count}

    def next_op(self) -> Operation:
        """Sweeping deletes, optionally diluted with filler inserts."""
        if self._bomb_rng.random() < self.delete_prop:
            index = self._sweep % self.record_count
            self._sweep += 1
            return Operation(OP_DELETE, index)
        index = self._insert_count
        self._insert_count += 1
        return Operation(OP_INSERT, index)


_ATTACK_CLASSES = {
    ATTACK_FILTER_SATURATION: FilterSaturationWorkload,
    ATTACK_ALWAYS_MISS: AlwaysMissWorkload,
    ATTACK_HOT_KEY_FLOOD: HotKeyFloodWorkload,
    ATTACK_TOMBSTONE_BOMB: TombstoneBombWorkload,
}


def make_adversary(
    attack: str, record_count: int, seed: int = 42, **kwargs
) -> AdversarialWorkload:
    """Construct the named attack workload."""
    try:
        cls = _ATTACK_CLASSES[attack]
    except KeyError:
        raise ValueError(
            f"unknown attack {attack!r}; known: {', '.join(ATTACKS)}"
        ) from None
    return cls(record_count, seed=seed, **kwargs)
