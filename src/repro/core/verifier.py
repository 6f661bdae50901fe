"""In-enclave query verification (the VRFY algorithms).

``verify_get`` implements Section 5.3's protocol with early stop: walk
the non-empty levels shallow-to-deep, demand a non-membership proof for
every level above the hit, a membership proof at the hit, and *nothing*
below it — Lemma 5.4 (lower level <=> newer timestamp) makes the deeper
levels irrelevant.  ``verify_scan`` implements Section 5.4: every level
contributes a contiguous, root-anchored leaf window that provably covers
the queried range.

All checks compare against the trusted :class:`DigestRegistry` only;
nothing the untrusted host says is believed without a hash path to an
in-enclave root.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.core.digest import DigestRegistry, LevelDigest
from repro.core.errors import (
    CompletenessViolation,
    FreshnessViolation,
    IntegrityViolation,
    ProofFormatError,
)
from repro.core.proofs import (
    BatchGetProof,
    BatchLevelMembership,
    BatchLevelNonMembership,
    GetProof,
    LeafReveal,
    LevelMembership,
    LevelNonMembership,
    LevelProof,
    LevelSkipped,
    RangeLevelProof,
    ScanProof,
)
from repro.cryptoprim.hashing import (
    HASH_LEN,
    constant_time_eq,
    hash_internal,
    hash_leaf,
)
from repro.lsm.records import Record, encode_record
from repro.mht.chain import fold_chain
from repro.mht.merkle import ProofError
from repro.mht.range_proof import compute_root_from_range
from repro.sgx.env import ExecutionEnv

#: Callback the store provides so the verifier can validate skipped
#: levels against trusted metadata (Bloom filters) it does not own.
TrustedAbsence = Callable[[int, bytes], bool]

#: (level-epoch root, tree level, node index) — a node position under a
#: specific root.  Keying by the root itself makes stale entries
#: unreachable the instant a flush/compaction/recovery installs a new
#: root, independent of (and in addition to) explicit invalidation.
_NodeKey = tuple[bytes, int, int]


class VerifiedNodeCache:
    """Enclave-side LRU of Merkle nodes proven to chain to a trusted root.

    An entry ``(root, level, index) -> node_hash`` means: this node value
    at this tree position was once part of a successfully verified
    authentication path to ``root`` while ``root`` was in the digest
    registry.  When a later path reaches the same position with the same
    value, the remainder of the climb is proven by transitivity and its
    hashing is skipped.  Collision resistance makes the shortcut sound: a
    different value at the same position cannot reach the same root.

    Invalidation: the owning :class:`Verifier` subscribes to registry
    root changes and drops every entry of a replaced root (flush,
    compaction, and recovery all change roots).
    """

    def __init__(self, capacity: int = 4096, telemetry=None) -> None:
        self.capacity = max(1, capacity)
        self._entries: OrderedDict[_NodeKey, bytes] = OrderedDict()
        self._by_root: dict[bytes, set[_NodeKey]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._m_hit = self._m_miss = self._m_evict = None
        self._telemetry = telemetry
        if telemetry is not None:
            self._m_hit = telemetry.counter(
                "verifier.cache.hit", "verified-node cache probe hits"
            )
            self._m_miss = telemetry.counter(
                "verifier.cache.miss", "verified-node cache probe misses"
            )
            self._m_evict = telemetry.counter(
                "verifier.cache.evict",
                "verified-node cache entries dropped",
                labels=("reason",),
            )

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, root: bytes, tree_level: int, index: int) -> bytes | None:
        """The cached node hash at a position, or None."""
        key = (root, tree_level, index)
        node = self._entries.get(key)
        if node is None:
            self.misses += 1
            if self._m_miss is not None:
                self._m_miss.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self._m_hit is not None:
            self._m_hit.inc()
        return node

    def insert(self, root: bytes, tree_level: int, index: int, node: bytes) -> None:
        """Record a node as verified under ``root`` (LRU-evicting)."""
        key = (root, tree_level, index)
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        self._entries[key] = node
        self._by_root.setdefault(root, set()).add(key)
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._unindex(evicted)
            self.evictions += 1
            if self._m_evict is not None:
                self._m_evict.inc(reason="capacity")

    def invalidate_root(self, root: bytes) -> None:
        """Drop every entry anchored to a root that left the registry."""
        invalidated = 0
        for key in self._by_root.pop(root, ()):
            del self._entries[key]
            self.evictions += 1
            invalidated += 1
            if self._m_evict is not None:
                self._m_evict.inc(reason="root-change")
        if invalidated and self._telemetry is not None:
            self._telemetry.emit(
                "verifier.cache.invalidated",
                root=root.hex()[:16],
                entries=invalidated,
            )

    def _unindex(self, key: _NodeKey) -> None:
        resident = self._by_root.get(key[0])
        if resident is not None:
            resident.discard(key)
            if not resident:
                del self._by_root[key[0]]


def _expected_path_len(index: int, n: int) -> int:
    """Auth-path length for leaf ``index`` in an ``n``-leaf tree.

    Mirrors the promotion convention: a node with no right sibling is
    promoted and contributes no path entry.
    """
    length = 0
    idx, width = index, n
    while width > 1:
        if idx % 2 == 1 or idx + 1 < width:
            length += 1
        idx //= 2
        width = (width + 1) // 2
    return length


class Verifier:
    """Runs inside the enclave; holds nothing but the digest registry."""

    def __init__(
        self,
        registry: DigestRegistry,
        env: ExecutionEnv | None = None,
        early_stop: bool = True,
        node_cache_entries: int = 4096,
    ) -> None:
        self.registry = registry
        self.env = env
        #: When False (the ablation), proofs cover every level and the
        #: verifier checks them all instead of stopping at the hit.
        self.early_stop = early_stop
        self.verified_gets = 0
        self.verified_multi_gets = 0
        self.verified_scans = 0
        self.node_cache: VerifiedNodeCache | None = None
        if node_cache_entries > 0:
            self.node_cache = VerifiedNodeCache(
                node_cache_entries,
                telemetry=env.telemetry if env is not None else None,
            )
            if hasattr(registry, "on_root_change"):
                registry.on_root_change(self._on_root_change)

    def _on_root_change(self, _level: int, old_root: bytes, _new_root: bytes) -> None:
        if self.node_cache is not None:
            self.node_cache.invalidate_root(old_root)

    def _charge(self, nbytes: int) -> None:
        if self.env is not None:
            self.env.trusted_hash(nbytes)

    # ------------------------------------------------------------------
    # GET verification
    # ------------------------------------------------------------------
    def verify_get(
        self,
        key: bytes,
        ts_query: int,
        proof: GetProof,
        trusted_absence: TrustedAbsence | None = None,
    ) -> Record | None:
        """Return the verified result record (or None if provably absent).

        Raises an :class:`AuthenticationError` subclass on any attack.
        """
        if proof.key != key or proof.ts_query != ts_query:
            raise ProofFormatError("proof does not match the query")
        entries = iter(proof.levels)
        result: Record | None = None
        for level in self.registry.nonempty_levels():
            if result is not None and self.early_stop:
                break
            entry = next(entries, None)
            if entry is None:
                if result is not None:
                    break  # a full-level proof may still legally stop early
                raise CompletenessViolation(
                    f"proof ends before level {level} was covered"
                )
            if entry.level != level:
                raise ProofFormatError(
                    f"proof level {entry.level} does not match expected {level}"
                )
            digest = self.registry.get(level)
            if isinstance(entry, LevelSkipped):
                self._check_skip(digest, level, key, trusted_absence)
                continue
            if isinstance(entry, LevelNonMembership):
                self._verify_non_membership(digest, entry, key)
                continue
            if isinstance(entry, LevelMembership):
                verified = self._verify_membership(digest, entry, key, ts_query)
                if result is None:
                    result = verified
                continue
            raise ProofFormatError(f"unknown proof entry {type(entry).__name__}")
        if next(entries, None) is not None:
            raise ProofFormatError("proof contains entries past the hit level")
        self.verified_gets += 1
        return result

    def _check_skip(
        self,
        digest: LevelDigest,
        level: int,
        key: bytes,
        trusted_absence: TrustedAbsence | None,
    ) -> None:
        if digest.excludes_key(key):
            return
        if trusted_absence is not None and trusted_absence(level, key):
            return
        raise CompletenessViolation(
            f"level {level} was skipped without a trusted absence witness"
        )

    def _verify_membership(
        self,
        digest: LevelDigest,
        entry: LevelMembership,
        key: bytes,
        ts_query: int,
    ) -> Record | None:
        records = entry.reveal.records
        if not records:
            raise ProofFormatError("membership proof reveals no records")
        self._check_reveal_shape(entry.reveal, key)
        # Freshness within the level: everything revealed above the result
        # must be newer than the query horizon.  A revealed non-final
        # record with ts <= ts_query is precisely the paper's stale-read
        # attack (<Z,6> served while <Z,7> exists).
        for record in records[:-1]:
            if record.ts <= ts_query:
                raise FreshnessViolation(
                    f"a newer committed version (ts={record.ts}) exists for "
                    f"key {key!r}"
                )
        last = records[-1]
        if last.ts > ts_query:
            if entry.reveal.older_digest is not None:
                raise FreshnessViolation(
                    "chain truncated although no revealed version matches "
                    "the query horizon"
                )
            result = None
        else:
            result = last
        leaf = self._leaf_hash(entry.reveal)
        self._verify_path(digest, leaf, entry.leaf_index, entry.path)
        return result

    def _verify_non_membership(
        self, digest: LevelDigest, entry: LevelNonMembership, key: bytes
    ) -> None:
        if digest.is_empty:
            raise ProofFormatError("non-membership proof for an empty level")
        left, right = entry.left, entry.right
        if left is None and right is None:
            raise CompletenessViolation("non-membership proof reveals nothing")
        if left is not None:
            if entry.left_index is None:
                raise ProofFormatError("left reveal without an index")
            self._check_reveal_shape(left, left.key)
            if not left.key < key:
                raise CompletenessViolation("left neighbour does not precede key")
            leaf = self._leaf_hash(left)
            self._verify_path(digest, leaf, entry.left_index, entry.left_path)
        if right is not None:
            if entry.right_index is None:
                raise ProofFormatError("right reveal without an index")
            self._check_reveal_shape(right, right.key)
            if not key < right.key:
                raise CompletenessViolation("right neighbour does not follow key")
            leaf = self._leaf_hash(right)
            self._verify_path(digest, leaf, entry.right_index, entry.right_path)
        # Adjacency: the two revealed leaves must bracket the key with no
        # leaf between them.
        if left is not None and right is not None:
            if entry.right_index != entry.left_index + 1:
                raise CompletenessViolation(
                    "neighbour leaves are not adjacent; a record was omitted"
                )
        elif left is None:
            if entry.right_index != 0:
                raise CompletenessViolation(
                    "no left neighbour, but right neighbour is not the first leaf"
                )
        else:
            if entry.left_index != digest.leaf_count - 1:
                raise CompletenessViolation(
                    "no right neighbour, but left neighbour is not the last leaf"
                )

    # ------------------------------------------------------------------
    # Batched GET verification
    # ------------------------------------------------------------------
    def verify_multi_get(
        self,
        keys: list[bytes],
        ts_query: int,
        proof: BatchGetProof,
        trusted_absence: TrustedAbsence | None = None,
    ) -> list[Record | None]:
        """Verify a deduplicated batch proof; results align with ``keys``.

        Pool references are bounds-checked, then each key's entries are
        materialised into a per-key :class:`GetProof` and pushed through
        the exact sequential :meth:`verify_get` logic — the batch path
        inherits every integrity/freshness/completeness check, so a
        spliced pool or a reference pointed at another key's nodes
        surfaces as a root mismatch or shape violation, never as a
        silently wrong answer.
        """
        if tuple(keys) != tuple(proof.keys):
            raise ProofFormatError("batch proof does not match the queried keys")
        if proof.ts_query != ts_query:
            raise ProofFormatError("batch proof does not match the query horizon")
        if len(proof.per_key) != len(proof.keys):
            raise ProofFormatError("batch proof key/entry count mismatch")
        results: list[Record | None] = []
        for key, entries in zip(proof.keys, proof.per_key):
            levels: list[LevelProof] = [
                self._resolve_batch_entry(proof, entry) for entry in entries
            ]
            per_key = GetProof(key=key, ts_query=ts_query, levels=tuple(levels))
            results.append(self.verify_get(key, ts_query, per_key, trusted_absence))
        self.verified_multi_gets += 1
        return results

    def _resolve_batch_entry(self, proof: BatchGetProof, entry) -> LevelProof:
        if isinstance(entry, LevelSkipped):
            return entry
        if isinstance(entry, BatchLevelMembership):
            return LevelMembership(
                level=entry.level,
                leaf_index=entry.leaf_index,
                reveal=self._pool_reveal(proof, entry.reveal_ref),
                path=self._pool_nodes(proof, entry.path_refs),
            )
        if isinstance(entry, BatchLevelNonMembership):
            left = (
                self._pool_reveal(proof, entry.left_ref)
                if entry.left_ref is not None
                else None
            )
            right = (
                self._pool_reveal(proof, entry.right_ref)
                if entry.right_ref is not None
                else None
            )
            return LevelNonMembership(
                level=entry.level,
                left_index=entry.left_index,
                left=left,
                left_path=self._pool_nodes(proof, entry.left_path_refs),
                right_index=entry.right_index,
                right=right,
                right_path=self._pool_nodes(proof, entry.right_path_refs),
            )
        raise ProofFormatError(f"unknown batch entry {type(entry).__name__}")

    @staticmethod
    def _pool_reveal(proof: BatchGetProof, ref: int) -> LeafReveal:
        if not 0 <= ref < len(proof.reveal_pool):
            raise ProofFormatError(f"batch proof reference out of range: {ref}")
        return proof.reveal_pool[ref]

    @staticmethod
    def _pool_nodes(proof: BatchGetProof, refs: tuple[int, ...]) -> tuple[bytes, ...]:
        nodes = []
        for ref in refs:
            if not 0 <= ref < len(proof.node_pool):
                raise ProofFormatError(f"batch proof reference out of range: {ref}")
            nodes.append(proof.node_pool[ref])
        return tuple(nodes)

    # ------------------------------------------------------------------
    # SCAN verification
    # ------------------------------------------------------------------
    def verify_scan(
        self,
        lo: bytes,
        hi: bytes,
        ts_query: int,
        proof: ScanProof,
        extra_trusted: list[Record] | None = None,
    ) -> list[Record]:
        """Return the verified, version-resolved range result.

        ``extra_trusted`` are MemTable records (already inside the
        enclave) merged in after verification.
        """
        if proof.lo != lo or proof.hi != hi or proof.ts_query != ts_query:
            raise ProofFormatError("proof does not match the query")
        entries = iter(proof.levels)
        candidates: list[Record] = []
        for level in self.registry.nonempty_levels():
            entry = next(entries, None)
            if entry is None:
                raise CompletenessViolation(
                    f"scan proof ends before level {level} was covered"
                )
            if entry.level != level:
                raise ProofFormatError(
                    f"scan proof level {entry.level} does not match {level}"
                )
            digest = self.registry.get(level)
            if isinstance(entry, LevelSkipped):
                if not digest.excludes_range(lo, hi):
                    raise CompletenessViolation(
                        f"level {level} overlaps the range but was skipped"
                    )
                continue
            if not isinstance(entry, RangeLevelProof):
                raise ProofFormatError(f"unexpected entry {type(entry).__name__}")
            candidates.extend(
                self._verify_range_level(digest, entry, lo, hi, ts_query)
            )
        if next(entries, None) is not None:
            raise ProofFormatError("scan proof has extra level entries")
        for record in extra_trusted or []:
            if lo <= record.key <= hi and record.ts <= ts_query:
                candidates.append(record)
        self.verified_scans += 1
        return _resolve_versions(candidates)

    def _verify_range_level(
        self,
        digest: LevelDigest,
        entry: RangeLevelProof,
        lo: bytes,
        hi: bytes,
        ts_query: int,
    ) -> list[Record]:
        leaves = entry.leaves
        if not leaves:
            raise ProofFormatError("range proof with an empty window")
        window_lo = entry.window_lo
        window_hi = window_lo + len(leaves) - 1
        if window_lo < 0 or window_hi >= digest.leaf_count:
            raise ProofFormatError("window out of bounds")
        keys = [leaf.key for leaf in leaves]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise IntegrityViolation("window keys are not strictly ascending")
        # Completeness at the edges: the window must extend past the range
        # (or hit the ends of the tree) on both sides.
        if not (window_lo == 0 or keys[0] < lo):
            raise CompletenessViolation("window does not cover the range start")
        if not (window_hi == digest.leaf_count - 1 or keys[-1] > hi):
            raise CompletenessViolation("window does not cover the range end")
        leaf_hashes = []
        results: list[Record] = []
        for leaf in leaves:
            self._check_reveal_shape(leaf, leaf.key)
            in_range = lo <= leaf.key <= hi
            if in_range:
                result = self._range_leaf_result(leaf, ts_query)
                if result is not None:
                    results.append(result)
            leaf_hashes.append(self._leaf_hash(leaf))
        try:
            root = compute_root_from_range(
                leaf_hashes, window_lo, digest.leaf_count, list(entry.cover_hashes)
            )
        except ProofError as exc:
            raise IntegrityViolation(f"range cover malformed: {exc}") from exc
        self._charge(HASH_LEN * 2 * max(1, len(entry.cover_hashes) + len(leaves)))
        if not constant_time_eq(root, digest.root):
            raise IntegrityViolation("range cover does not match the level root")
        return results

    def _range_leaf_result(self, leaf: LeafReveal, ts_query: int) -> Record | None:
        for record in leaf.records[:-1]:
            if record.ts <= ts_query:
                raise FreshnessViolation(
                    "range reveal hides a newer committed version"
                )
        last = leaf.records[-1]
        if last.ts > ts_query:
            if leaf.older_digest is not None:
                raise FreshnessViolation(
                    "range chain truncated before the query horizon"
                )
            return None
        return last

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _check_reveal_shape(reveal: LeafReveal, key: bytes) -> None:
        if not reveal.records:
            raise ProofFormatError("empty leaf reveal")
        if any(record.key != key for record in reveal.records):
            raise IntegrityViolation("reveal mixes records of different keys")
        timestamps = [record.ts for record in reveal.records]
        if any(a <= b for a, b in zip(timestamps, timestamps[1:])):
            raise IntegrityViolation("reveal timestamps not strictly descending")

    def _leaf_hash(self, reveal: LeafReveal) -> bytes:
        encoded = [encode_record(record) for record in reveal.records]
        self._charge(sum(len(e) for e in encoded) + HASH_LEN)
        return hash_leaf(fold_chain(encoded, reveal.older_digest))

    def _verify_path(
        self,
        digest: LevelDigest,
        leaf: bytes,
        index: int,
        path: tuple[bytes, ...],
    ) -> None:
        """Climb the auth path to the registered root, caching as it goes.

        Strictness is checked *before* any cache shortcut: the path must
        have exactly the length the (index, leaf_count) geometry demands,
        so a cache hit can never launder a malformed proof.  A hit at any
        rung proves the rest of the climb by transitivity and skips its
        hashing (and its hash charges) — the batch pipeline's per-level
        upper nodes are shared across keys, which is where the saving
        comes from.
        """
        n = digest.leaf_count
        if n <= 0:
            raise IntegrityViolation(
                "authentication path malformed: cannot verify against an empty tree"
            )
        if not 0 <= index < n:
            raise IntegrityViolation(
                f"authentication path malformed: leaf index {index} out of "
                f"range for {n} leaves"
            )
        expected = _expected_path_len(index, n)
        if len(path) < expected:
            raise IntegrityViolation(
                "authentication path malformed: authentication path too short"
            )
        if len(path) > expected:
            raise IntegrityViolation(
                "authentication path malformed: authentication path too long"
            )
        cache = self.node_cache
        root = digest.root
        node = leaf
        idx, width = index, n
        tree_level = 0
        pos = 0
        hashed = 0
        computed: list[tuple[int, int, bytes]] = [(0, index, leaf)]
        while width > 1:
            if cache is not None:
                known = cache.lookup(root, tree_level, idx)
                if known is not None and constant_time_eq(known, node):
                    # Already verified up to this root from this rung.
                    self._charge(HASH_LEN * 2 * (hashed + 1))
                    for lvl, i, h in computed:
                        cache.insert(root, lvl, i, h)
                    return
            if idx % 2 == 0:
                if idx + 1 < width:
                    node = hash_internal(node, path[pos])
                    pos += 1
                    hashed += 1
                # else: odd node promoted unchanged, consumes no entry
            else:
                node = hash_internal(path[pos], node)
                pos += 1
                hashed += 1
            idx //= 2
            width = (width + 1) // 2
            tree_level += 1
            computed.append((tree_level, idx, node))
        self._charge(HASH_LEN * 2 * (hashed + 1))
        if not constant_time_eq(node, root):
            raise IntegrityViolation("authentication path does not match root")
        if cache is not None:
            for lvl, i, h in computed:
                cache.insert(root, lvl, i, h)


def _resolve_versions(candidates: list[Record]) -> list[Record]:
    """Newest version per key wins; tombstones erase their keys."""
    best: dict[bytes, Record] = {}
    for record in candidates:
        incumbent = best.get(record.key)
        if incumbent is None or record.ts > incumbent.ts:
            best[record.key] = record
    return [best[key] for key in sorted(best) if not best[key].is_tombstone]
