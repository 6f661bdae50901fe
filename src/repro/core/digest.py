"""The trusted digest registry: eLSM's in-enclave state.

Section 5.2: eLSM builds a forest of Merkle trees, one per LSM level,
"each having its root stored in the enclave".  Alongside each root we
keep the leaf count (needed to verify authentication paths under the
promotion convention), record counts, and the level's key range — all
computed by *trusted* compaction code, so they can soundly short-circuit
proofs (a level whose range excludes the key needs no proof).

The registry also derives a fingerprint of the trusted state — every
level root plus the WAL digest — that perfbench's round check and the
golden test compare.  The rollback defence anchors the sealed registry
itself, not this hash (Section 5.6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cryptoprim.hashing import HASH_LEN, tagged_hash
from repro.mht.merkle import EMPTY_ROOT
from repro.sgx.env import ExecutionEnv

_REGION = "level_digests"


@dataclass(frozen=True)
class LevelDigest:
    """Trusted summary of one level's authenticated state."""

    root: bytes
    leaf_count: int
    record_count: int
    min_key: bytes | None
    max_key: bytes | None

    @classmethod
    def empty(cls) -> "LevelDigest":
        return cls(
            root=EMPTY_ROOT, leaf_count=0, record_count=0, min_key=None, max_key=None
        )

    @property
    def is_empty(self) -> bool:
        return self.leaf_count == 0

    def excludes_key(self, key: bytes) -> bool:
        """True when the trusted key range alone proves absence."""
        if self.is_empty:
            return True
        assert self.min_key is not None and self.max_key is not None
        return key < self.min_key or key > self.max_key

    def excludes_range(self, lo: bytes, hi: bytes) -> bool:
        """True when the trusted key range alone proves range-disjointness."""
        if self.is_empty:
            return True
        assert self.min_key is not None and self.max_key is not None
        return hi < self.min_key or lo > self.max_key


#: The digest of a level that holds nothing (frozen, so one is shared).
_EMPTY_DIGEST = LevelDigest.empty()


class DigestRegistry:
    """Per-level digests held inside the enclave."""

    def __init__(self, env: ExecutionEnv | None = None) -> None:
        self.env = env
        self._levels: dict[int, LevelDigest] = {}
        self._root_listeners: list[Callable[[int, bytes, bytes], None]] = []
        if env is not None:
            env.meta_region(_REGION)

    def on_root_change(self, fn: Callable[[int, bytes, bytes], None]) -> None:
        """Subscribe to root replacements: ``fn(level, old_root, new_root)``.

        Fires whenever a level's root stops being current — flush and
        compaction installs, level clears, and recovery reloads.  A mere
        level renumbering (``shift_deeper``) keeps every root alive and
        does not fire.  Verifiers use this to drop cached nodes whose
        anchoring root is no longer trusted state.
        """
        self._root_listeners.append(fn)

    def _notify_root_change(self, level: int, old: bytes, new: bytes) -> None:
        if old != new:
            for fn in self._root_listeners:
                fn(level, old, new)

    def get(self, level: int) -> LevelDigest:
        """The trusted digest of a level (empty default)."""
        return self._levels.get(level, _EMPTY_DIGEST)

    def set(self, level: int, digest: LevelDigest) -> None:
        """Install a level's digest (trusted compaction only)."""
        previous = self._levels.get(level)
        self._levels[level] = digest
        self._notify_root_change(
            level, previous.root if previous else EMPTY_ROOT, digest.root
        )
        if self.env is not None and previous is None:
            # Roots + counters: a fixed-size trusted footprint per level.
            self.env.meta_grow(_REGION, HASH_LEN + 64)

    def clear(self, level: int) -> None:
        """Mark a consumed level as empty."""
        previous = self._levels.get(level)
        self._levels[level] = _EMPTY_DIGEST
        self._notify_root_change(
            level, previous.root if previous else EMPTY_ROOT, EMPTY_ROOT
        )

    def shift_deeper(self, from_level: int) -> None:
        """Make room at ``from_level`` (no-compaction stacking mode)."""
        for level in sorted(self._levels, reverse=True):
            if level >= from_level:
                self._levels[level + 1] = self._levels[level]
        self._levels[from_level] = _EMPTY_DIGEST

    def nonempty_levels(self) -> list[int]:
        """Sorted ids of levels holding data, shallow to deep."""
        return sorted(
            level for level, digest in self._levels.items() if not digest.is_empty
        )

    def dataset_hash(self, wal_digest: bytes) -> bytes:
        """Fingerprint of the trusted state: the WAL digest and every
        (level, root) pair.  Compared by perfbench's round check and the
        golden test; the seal carries the registry, not this hash."""
        parts: list[bytes] = [wal_digest]
        for level in sorted(self._levels):
            digest = self._levels[level]
            parts.append(level.to_bytes(4, "little"))
            parts.append(digest.root)
        return tagged_hash(b"elsm/dataset", *parts)

    def to_payload(self) -> dict:
        """JSON-serialisable form for sealing."""
        return {
            str(level): {
                "root": digest.root.hex(),
                "leaf_count": digest.leaf_count,
                "record_count": digest.record_count,
                "min_key": digest.min_key.hex() if digest.min_key else None,
                "max_key": digest.max_key.hex() if digest.max_key else None,
            }
            for level, digest in self._levels.items()
        }

    def load_payload(self, payload: dict) -> None:
        """Restore the registry from an unsealed payload."""
        previous = dict(self._levels)
        self._levels.clear()
        for level_str, entry in payload.items():
            self._levels[int(level_str)] = LevelDigest(
                root=bytes.fromhex(entry["root"]),
                leaf_count=entry["leaf_count"],
                record_count=entry["record_count"],
                min_key=bytes.fromhex(entry["min_key"]) if entry["min_key"] else None,
                max_key=bytes.fromhex(entry["max_key"]) if entry["max_key"] else None,
            )
        for level, old in previous.items():
            new = self._levels.get(level)
            self._notify_root_change(
                level, old.root, new.root if new else EMPTY_ROOT
            )
