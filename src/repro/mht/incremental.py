"""Streaming construction of a level's Merkle tree during compaction.

This is the paper's ``MHT_add`` (Figure 4): records arrive in the merge
output order — ascending data key, then descending timestamp — and the
digester groups same-key runs into hash chains, emitting one Merkle leaf
per distinct key.  The enclave runs one digester per compaction *input*
level (to authenticate what the untrusted host fed in) and one for the
*output* level (to produce the new root and the embedded proofs).

The output digester is finalized against the authenticated input trees:
an output group whose entries equal that key's group in an input level
takes the input's chain digest, suffix digests and leaf hash instead of
hashing the same bytes again.  Chain hashes are charged where they are
computed, in :meth:`StreamingLevelDigester.finalize`, so a reused group
costs nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cryptoprim.hashing import HASH_LEN, hash_leaf
from repro.mht.chain import chain_digests
from repro.mht.merkle import MerkleTree
from repro.mht.range_proof import build_range_proof


class OrderingError(ValueError):
    """Input violated (key asc, timestamp desc) merge order."""


@dataclass
class ChainGroup:
    """All records of one data key within a level, newest first."""

    key: bytes
    leaf_index: int
    entries: list[tuple[int, bytes]]  # (timestamp, encoded record bytes)
    suffixes: list[bytes | None] = field(default_factory=list)

    @property
    def chain_len(self) -> int:
        return len(self.entries)


class LevelTree:
    """A finalized per-level digest: tree + chain groups, by key order."""

    def __init__(self, tree: MerkleTree, groups: list[ChainGroup]) -> None:
        self.tree = tree
        self.groups = groups
        self._keys = [g.key for g in groups]

    @property
    def root(self) -> bytes:
        return self.tree.root

    @property
    def leaf_count(self) -> int:
        return self.tree.n

    @property
    def record_count(self) -> int:
        return sum(g.chain_len for g in self.groups)

    def find(self, key: bytes) -> tuple[int, ChainGroup | None]:
        """(insertion index, group) — group is None when key is absent."""
        index = bisect_left(self._keys, key)
        if index < len(self._keys) and self._keys[index] == key:
            return index, self.groups[index]
        return index, None

    def group_at(self, leaf_index: int) -> ChainGroup:
        """The chain group at a leaf index."""
        return self.groups[leaf_index]

    def auth_path(self, leaf_index: int) -> list[bytes]:
        """Authentication path for a leaf (delegates to the tree)."""
        return self.tree.auth_path(leaf_index)

    def range_proof(self, lo: int, hi: int) -> list[bytes]:
        """Segment-tree cover for a contiguous leaf window."""
        return build_range_proof(self.tree, lo, hi)


class StreamingLevelDigester:
    """Builds a :class:`LevelTree` from a sorted record stream."""

    def __init__(self, on_hash: Callable[[int], None] | None = None) -> None:
        self._on_hash = on_hash
        self._groups: list[ChainGroup] = []
        self._current_key: bytes | None = None
        self._current_entries: list[tuple[int, bytes]] = []
        self._finalized: LevelTree | None = None

    def add(self, key: bytes, ts: int, encoded: bytes) -> None:
        """Feed the next record in (key asc, ts desc) order."""
        if self._finalized is not None:
            raise RuntimeError("digester already finalized")
        if self._current_key is not None:
            if key < self._current_key:
                raise OrderingError(
                    f"keys out of order: {key!r} after {self._current_key!r}"
                )
            if key == self._current_key:
                last_ts = self._current_entries[-1][0]
                if ts >= last_ts:
                    raise OrderingError(
                        f"timestamps not strictly descending for key {key!r}: "
                        f"{ts} after {last_ts}"
                    )
        if key != self._current_key:
            self._flush_group()
            self._current_key = key
        self._current_entries.append((ts, encoded))

    def finalize(self, inputs: Sequence[LevelTree] = ()) -> LevelTree:
        """Close the stream and build the tree.

        ``inputs`` are already-authenticated trees whose groups may be
        reused: a group with the same ``(ts, encoded)`` entries as the
        key's group in one of them takes that group's suffixes and leaf
        hash.  Every other group is hashed here, one chain hash charged
        per record.
        """
        if self._finalized is None:
            self._flush_group()
            leaves = []
            for group in self._groups:
                leaf = self._reuse(group, inputs)
                if leaf is None:
                    chain = [encoded for _, encoded in group.entries]
                    for encoded in chain:
                        self._charge(len(encoded) + HASH_LEN)
                    digest, group.suffixes = chain_digests(chain)
                    leaf = hash_leaf(digest)
                    self._charge(HASH_LEN)
                leaves.append(leaf)
            tree = MerkleTree(leaves)
            self._charge(tree.hash_node_count() * 2 * HASH_LEN)
            self._finalized = LevelTree(tree, self._groups)
        return self._finalized

    @staticmethod
    def _reuse(group: ChainGroup, inputs: Sequence[LevelTree]) -> bytes | None:
        """Adopt an identical input group's digests; its leaf hash, or None."""
        for level_tree in inputs:
            _, same = level_tree.find(group.key)
            if same is not None and same.entries == group.entries:
                group.suffixes = same.suffixes
                return level_tree.tree.leaf(same.leaf_index)
        return None

    def _flush_group(self) -> None:
        if self._current_key is None:
            return
        self._groups.append(
            ChainGroup(
                key=self._current_key,
                leaf_index=len(self._groups),
                entries=self._current_entries,
            )
        )
        self._current_entries = []

    def _charge(self, nbytes: int) -> None:
        if self._on_hash is not None:
            self._on_hash(nbytes)
