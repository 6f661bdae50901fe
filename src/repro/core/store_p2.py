"""eLSM-P2: the paper's primary system (Section 5).

Placement (Table 1): code inside the enclave, read buffer and SSTables
outside, record-granularity digests.  The store wires together:

* a vanilla :class:`~repro.lsm.db.LSMStore` running "inside" the enclave
  with its read buffer in untrusted memory (mmap or user-space buffer);
* the :class:`~repro.core.auth_compaction.AuthCompactionListener` add-on
  that authenticates every flush/compaction and embeds per-record proofs;
* the untrusted :class:`~repro.core.prover.Prover` and the in-enclave
  :class:`~repro.core.verifier.Verifier` implementing QUERYGET/VRFY;
* a timestamp manager, WAL digesting, optional key/value encryption, and
  optional rollback protection via a trusted monotonic counter.

Every public operation is wrapped in an ECall, and all simulated costs
accrue to ``store.clock``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.admission import AdmissionController
from repro.core.auth_compaction import WAL_DIGEST_INIT, AuthCompactionListener, advance_wal_digest
from repro.core.digest import DigestRegistry
from repro.core.encryption import MODE_PLAIN, KeyValueCodec
from repro.core.errors import IntegrityViolation, RollbackDetected
from repro.core.placed import PlacedStore
from repro.core.prover import OnDemandProver, Prover
from repro.core.proofs import (
    BatchGetProof,
    GetProof,
    LevelMembership,
    LevelNonMembership,
    LevelSkipped,
    ScanProof,
)
from repro.core.verifier import Verifier
from repro.cryptoprim.hashing import FILTER_SALT_LEN, constant_time_eq
from repro.lsm.db import LSMConfig
from repro.lsm.records import KIND_PUT, Record, parse_write_ops
from repro.sgx.counter import BufferedCounterAnchor, TrustedMonotonicCounter
from repro.sgx.sealing import (
    SealedBlob,
    SealError,
    load_blob,
    seal,
    store_blob,
    unseal,
)
from repro.telemetry.metrics import SIZE_BUCKETS_BYTES, BoundCounter


def stops_descent(entry, ts_query: int) -> bool:
    """The early-stop test: ``entry`` proves a version at or before
    ``ts_query``, and deeper levels hold only older ones (Lemma 5.4)."""
    return (
        isinstance(entry, LevelMembership) and entry.reveal.records[-1].ts <= ts_query
    )


@dataclass
class VerifiedGet:
    """A GET result together with its verified proof (for inspection)."""

    record: Record | None
    proof: GetProof
    proof_bytes: int

    @property
    def value(self) -> bytes | None:
        if self.record is None or self.record.is_tombstone:
            return None
        return self.record.value


@dataclass
class VerifiedMultiGet:
    """A batched GET result with its deduplicated verified proof."""

    records: list[Record | None]
    proof: BatchGetProof
    proof_bytes: int

    @property
    def values(self) -> list[bytes | None]:
        """Stored-form values aligned with the request order."""
        return [
            None if r is None or r.is_tombstone else r.value for r in self.records
        ]


class ELSMP2Store(PlacedStore):
    """The authenticated LSM key-value store, eLSM-P2 design.

    Engine geometry and the simulated machine are the shell's options
    (:class:`~repro.core.placed.PlacedStore`); the ones below configure
    authentication.
    """

    enclave_name = "elsm-enclave"

    def __init__(
        self,
        *,
        salted_bloom: bool = True,
        encryption_mode: str = MODE_PLAIN,
        secret: bytes = b"",
        rollback_protection: bool = False,
        counter_buffer_ops: int = 64,
        autoseal: bool = False,
        early_stop: bool = True,
        proof_mode: str = "embedded",
        counter: TrustedMonotonicCounter | None = None,
        name_prefix: str = "p2",
        **options,
    ) -> None:
        if proof_mode not in ("embedded", "on_demand"):
            raise ValueError(f"unknown proof_mode: {proof_mode}")
        self.proof_mode = proof_mode
        self.salted_bloom = salted_bloom
        self.codec = KeyValueCodec(encryption_mode, secret)
        super().__init__(name_prefix=name_prefix, **options)
        # Token-bucket admission control at the ECall boundary (off until
        # enable_admission; the adversarial defense stack turns it on).
        self.admission: AdmissionController | None = None
        self._client = "default"
        prover_cls = Prover if proof_mode == "embedded" else OnDemandProver
        self.prover = prover_cls(self.db)
        self.early_stop = early_stop
        self.verifier = Verifier(self.registry, self.env, early_stop=early_stop)

        self.rollback_protection = rollback_protection
        # The monotonic counter models persistent hardware: a reopened
        # store must be handed the same counter it used before the crash.
        self.counter = counter or TrustedMonotonicCounter(self.clock)
        self.anchor = BufferedCounterAnchor(self.counter, counter_buffer_ops)
        self.total_proof_bytes = 0

        self._m_recovery_dropped_bytes = self.telemetry.counter(
            "wal.recovery.dropped_bytes",
            "WAL bytes discarded by authenticated recovery "
            "(beyond the sealed digest, torn, or corrupt)",
        )
        self._m_recovery_dropped_entries = self.telemetry.counter(
            "wal.recovery.dropped_entries",
            "WAL records discarded by authenticated recovery",
        )
        self._m_seals = self.telemetry.counter(
            "seal.persisted", "sealed trusted states written to disk"
        )
        #: Seal-on-sync: persist the sealed trusted state at every commit
        #: point (flush/compaction commit and WAL fsync), making "fsync
        #: acknowledged" imply "covered by an on-disk seal" — the
        #: durability contract the crash harness checks.
        self.autoseal = autoseal
        self._seal_seq = 0
        self._durable_ts = 0
        if autoseal:
            self.db.commit_hook = self._autoseal_commit
            self.db.wal.on_sync = lambda: self._autoseal_commit("wal_sync")

    def _before_engine(self, config: LSMConfig) -> list:
        """Proof instruments, the digest registry, the authenticating
        listener and the Bloom salt: all exist before the engine, which
        is built with the listener attached."""
        self._m_proof_get_bytes = self.telemetry.histogram(
            "proof.get.bytes",
            "verified-GET proof size",
            buckets=SIZE_BUCKETS_BYTES,
        )
        self._m_proof_scan_bytes = self.telemetry.histogram(
            "proof.scan.bytes",
            "verified-SCAN proof size",
            buckets=SIZE_BUCKETS_BYTES,
        )
        self._m_proof_multiget_bytes = self.telemetry.histogram(
            "proof.multiget.bytes",
            "verified-MULTIGET batch proof size",
            buckets=SIZE_BUCKETS_BYTES,
        )
        self._m_proof_stop_level = self.telemetry.counter(
            "proof.get.stop_level",
            "deepest level a verified GET descended to "
            "(memtable = served inside the enclave)",
            labels=("level",),
        )
        #: ``_m_proof_stop_level`` bound per stop level, on its first GET.
        self._stop_level_counters: dict[int | str, BoundCounter] = {}
        self._m_verify_hashes = self.telemetry.counter(
            "proof.verify.hash_invocations",
            "trusted hashes spent verifying query proofs",
        )
        # The env's own hash counter: a verify's work is its increase.
        self._m_hash_calls = self.telemetry.counter("enclave.hash.invocations")
        # Shared with LSMStore (get-or-create by name): the P2 proof
        # path consults filters through _trusted_absence, not through
        # db.get_with_level, so it keeps the same books itself.
        self._m_bloom_checks = self.telemetry.counter(
            "lsm.bloom.checks", "per-level filter consultations on reads"
        )
        self._m_bloom_negatives = self.telemetry.counter(
            "lsm.bloom.negatives",
            "trusted-negative filter hits (level skipped, no proof needed)",
        )
        self._m_bloom_fp = self.telemetry.counter(
            "lsm.bloom.false_positives",
            "filter said maybe but the level had no group for the key",
        )
        self.registry = DigestRegistry(self.env)
        self.listener = AuthCompactionListener(
            self.registry, self.env, embed_proofs=(self.proof_mode == "embedded")
        )
        # Keyed Bloom hashing: the master salt comes from enclave
        # randomness, so the attacker outside cannot precompute
        # filter-saturating keys.  A reopened store overwrites this with
        # the *sealed* salt in recover_from_disk before the manifest
        # (and hence every filter) is rebuilt.
        if self.salted_bloom:
            config.bloom_salt = self.enclave.random_bytes(FILTER_SALT_LEN)
        return [self.listener]

    # ------------------------------------------------------------------
    # Admission control (ECall boundary)
    # ------------------------------------------------------------------
    def set_client(self, name: str) -> None:
        """Name the client whose budget subsequent operations charge.

        The simulation is single-threaded per store, so the identity is
        ambient state rather than a per-call argument; workload drivers
        switch it when interleaving honest and adversarial traffic.
        """
        self._client = name

    def enable_admission(
        self,
        rate_per_s: float,
        *,
        burst: float | None = None,
        global_rate_per_s: float | None = None,
        global_burst: float | None = None,
        proof_bytes_per_token: int = 4096,
        recover_tokens: float | None = None,
        structural_rate_per_s: float | None = None,
        structural_burst: float | None = None,
    ) -> AdmissionController:
        """Arm admission control, e.g. after an operator bulk load.

        Bulk loading through an armed controller would shed the
        operator's own writes, so benches load first and arm second.
        """
        self.admission = AdmissionController(
            self.clock,
            self.telemetry,
            rate_per_s=rate_per_s,
            burst=burst,
            global_rate_per_s=global_rate_per_s,
            global_burst=global_burst,
            proof_bytes_per_token=proof_bytes_per_token,
            recover_tokens=recover_tokens,
            structural_rate_per_s=structural_rate_per_s,
            structural_burst=structural_burst,
            on_overload=self.db.enter_overload,
            on_recover=self.db.exit_overload,
        )
        return self.admission

    #: Per-level admission price of a tombstone write.  A delete is
    #: nearly free to issue but its lifecycle is all debt: a WAL append
    #: and fsync, a flush, and an authenticated merge at every level it
    #: must sink through before dying at the bottom — so its door price
    #: scales with the tree it has to traverse.  Honest YCSB mixes have
    #: no deletes, so the price never touches them.
    TOMBSTONE_LEVEL_COST = 8.0

    #: Version-group size past which further writes to the same key get
    #: quadratically more expensive at the admission door.  Every extra
    #: version makes reads of that key haul a longer hash chain and
    #: compactions merge a bigger group — damage that outlives the
    #: write — so the enclave publishes the current price and admission
    #: collects it *before* the ECall.  Pricing at the door (rather than
    #: surcharging after the fact) means a flood is cut off outright
    #: once the price exceeds any bucket's burst, and the global budget
    #: only ever drains for work actually accepted.  The hint leaks the
    #: group's magnitude, which on-disk file sizes leak anyway.
    HOT_GROUP_THRESHOLD = 4

    def _admit(
        self, op: str, cost: float = 1.0, structural: bool = False
    ) -> None:
        """Admission check as the ECall enters; sheds with a retryable
        error when the current client or the store is out of budget."""
        if self.admission is not None:
            self.admission.admit(
                self._client, op, cost=cost, structural=structural
            )

    def _hot_write_cost(self, stored_key: bytes) -> float:
        """Door price of one more version of ``stored_key``."""
        group = len(self.db.mem_versions(stored_key))
        if group <= self.HOT_GROUP_THRESHOLD:
            return 1.0
        over = (group - self.HOT_GROUP_THRESHOLD) / self.HOT_GROUP_THRESHOLD
        return 1.0 + over * over

    #: Extra admission tokens a read that resolves to *absent* costs its
    #: client.  Honest YCSB mixes essentially never read missing keys,
    #: while filter-saturation and always-miss floods are nothing but
    #: negative lookups — the penalty drains those budgets fast.
    NEGATIVE_READ_COST = 2.0

    # ------------------------------------------------------------------
    # Write path (w1-w3)
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> int:
        """PUT(k, v) -> ts.  WAL-digested, buffered, eventually compacted.

        The span opens *outside* the ECall so the boundary-crossing
        charge lands in ``elsm.put``'s ledger, not its parent's.
        """
        with self.db._lock, self.telemetry.span("elsm.put"):
            stored_key = self.codec.encode_key(key)
            self._admit("put", cost=self._hot_write_cost(stored_key))
            with self.env.op_call("put", in_bytes=len(key) + len(value)):
                ts = self._next_ts()
                stored_value = self.codec.encode_value(value)
                if self.codec.mode != MODE_PLAIN:
                    self.env.trusted_cipher(len(key) + len(value))
                self.db.put(stored_key, stored_value, ts)
                self._maybe_anchor()
                return ts

    def group_commit(self, ops) -> list[int]:
        """Commit a group of writes with ONE ECall, ONE WAL disk write,
        and ONE fsync (group commit, Section 5 write-path pipelining).

        ``ops`` is a list of ``("put", key, value)`` and
        ``("delete", key)`` tuples; returns the assigned timestamps in
        op order.  The group is durable all-or-nothing: its single
        trailing fsync (plus, under autoseal, the one seal it triggers)
        covers every record, and a crash mid-group recovers to the state
        before it.  Compared with N sequential PUTs this amortises the
        enclave transition, the WAL write + fsync, and the seal across
        the whole group — the ``group-commit`` perf profile measures the
        effect.
        """
        with self.db._lock, self.telemetry.span("elsm.group_commit") as span:
            parsed = parse_write_ops(ops)
            total_bytes = sum(len(key) + len(value) for _, key, value in parsed)
            encoded = [
                (
                    kind,
                    self.codec.encode_key(key),
                    self.codec.encode_value(value) if kind == KIND_PUT else b"",
                )
                for kind, key, value in parsed
            ]
            self._admit("group_commit", cost=float(max(1, len(encoded))))
            with self.env.op_call("group_commit", in_bytes=total_bytes):
                if self.codec.mode != MODE_PLAIN:
                    self.env.trusted_cipher(total_bytes)
                stamps = [self._next_ts() for _ in encoded]
                assigned = self.db.commit_group(encoded, stamps=stamps)
                self._maybe_anchor()
                span.set(group_size=len(encoded))
                return assigned

    def delete(self, key: bytes) -> int:
        """DELETE(k): writes a tombstone.  As in :meth:`put`, the span
        opens outside the ECall so the boundary charge lands in
        ``elsm.delete``'s ledger."""
        with self.db._lock, self.telemetry.span("elsm.delete"):
            self._admit(
                "delete",
                cost=self.TOMBSTONE_LEVEL_COST
                * (len(self.registry.nonempty_levels()) + 1),
                structural=True,
            )
            with self.env.op_call("delete", in_bytes=len(key)):
                ts = self._next_ts()
                if self.codec.mode != MODE_PLAIN:
                    self.env.trusted_cipher(len(key))
                self.db.delete(self.codec.encode_key(key), ts)
                self._maybe_anchor()
                return ts

    def _maybe_anchor(self) -> None:
        if self.rollback_protection:
            self.env.trusted_hash(32 * (len(self.registry.nonempty_levels()) + 2))
            if self.anchor.record_write():
                self._anchor_seal()

    def _anchor_seal(self) -> None:
        """Seal and anchor the buffered writes, once their WAL records
        are on disk (under autoseal the sync is the seal)."""
        seals = self._seal_seq
        if self.db.wal.has_unsynced:
            self.db.wal.sync()
        if self._seal_seq == seals:
            self.persist_seal()

    # ------------------------------------------------------------------
    # Read path (r1-r2)
    # ------------------------------------------------------------------
    def get(self, key: bytes, ts_query: int | None = None) -> bytes | None:
        """GET(k, tsq): the verified value, or None if provably absent."""
        value = self.get_verified(key, ts_query).value
        return None if value is None else self.codec.decode_value(value)

    def get_verified(self, key: bytes, ts_query: int | None = None) -> VerifiedGet:
        """GET with the full verified proof exposed (stored-form record)."""
        # The span wraps the ECall so boundary charges land in its ledger.
        with self.db._lock, self.telemetry.span("elsm.get") as span:
            # Admission runs in the untrusted dispatch layer, before the
            # enclave transition: a shed request must not cost an ECall.
            self._admit("get")
            with self.env.op_call("get", in_bytes=len(key)):
                tsq = self._ts if ts_query is None else ts_query
                stored_key = self.codec.encode_key(key)
                # Level L0 (the active MemTable and any rotated immutables
                # awaiting background flush) is inside the enclave: trusted.
                memtable_hit = self.db.mem_lookup(stored_key, tsq)
                if memtable_hit is not None:
                    self._count_stop_level("memtable")
                    self._m_proof_get_bytes.observe(0)
                    span.set(stop_level="memtable", proof_bytes=0)
                    proof = GetProof(key=stored_key, ts_query=tsq)
                    return VerifiedGet(record=memtable_hit, proof=proof, proof_bytes=0)
                proof = self._build_get_proof(stored_key, tsq)
                proof_bytes = proof.size_bytes()
                # The proof is assembled in untrusted memory and copied
                # into the enclave before verification.
                self.env.copy_in(proof_bytes)
                hashes_before = self._m_hash_calls.total()
                record = self.verifier.verify_get(
                    stored_key, tsq, proof, trusted_absence=self._trusted_absence
                )
                self._book_proof(
                    hashes_before, proof_bytes, self._m_proof_get_bytes, record is None
                )
                stop_level = max(
                    (entry.level for entry in proof.levels), default="none"
                )
                self._count_stop_level(stop_level)
                span.set(stop_level=stop_level, proof_bytes=proof_bytes)
                return VerifiedGet(record=record, proof=proof, proof_bytes=proof_bytes)

    def _count_stop_level(self, stop_level: int | str) -> None:
        """Count a verified GET under the deepest level it descended to."""
        bound = self._stop_level_counters.get(stop_level)
        if bound is None:
            bound = self._m_proof_stop_level.bind(level=str(stop_level))
            self._stop_level_counters[stop_level] = bound
        bound.inc()

    def multi_get(
        self, keys: list[bytes], ts_query: int | None = None
    ) -> list[bytes | None]:
        """Batched GET: verified values aligned with the request order."""
        values = self.multi_get_verified(keys, ts_query).values
        return [None if v is None else self.codec.decode_value(v) for v in values]

    def multi_get_verified(
        self, keys: list[bytes], ts_query: int | None = None
    ) -> VerifiedMultiGet:
        """Batched verified GET: one ECall, one deduplicated batch proof.

        The batch shares everything the sequential path pays per key: one
        boundary crossing for the whole batch, each SSTable block fetched
        and boundary-copied once (keys are grouped per level), shared
        auth-path nodes and boundary reveals emitted once in the proof's
        node pool, and upper Merkle rungs verified once thanks to the
        enclave's verified-node cache.  Results are exactly what N
        sequential :meth:`get_verified` calls would return: each level
        applies GET's skip and early-stop rules to every pending key.
        """
        keys = list(keys)
        # The span wraps the ECall so the batch's boundary charges land
        # in ``elsm.multi_get``'s ledger (the paper's cost story).
        with self.db._lock, self.telemetry.span("elsm.multi_get") as span:
            tsq = self._ts if ts_query is None else ts_query
            stored = [self.codec.encode_key(key) for key in keys]
            # Admission runs before the enclave transition: a shed
            # request must not cost an ECall.
            self._admit("multi_get")
            with self.env.op_call("multi_get", in_bytes=sum(len(k) for k in keys)):
                # MemTable hits are served inside the enclave (trusted)
                # and excluded from the proof, exactly as in get_verified;
                # the verified results of the other keys join them below.
                by_key: dict[bytes, Record | None] = {}
                need: list[bytes] = []
                seen: set[bytes] = set()
                for stored_key in stored:
                    if stored_key in seen:
                        continue
                    seen.add(stored_key)
                    hit = self.db.mem_lookup(stored_key, tsq)
                    if hit is not None:
                        by_key[stored_key] = hit
                    else:
                        need.append(stored_key)
                # Sorted batch order: per level the prover walks blocks in
                # key order, so each block is fetched exactly once.
                need.sort()
                entries: dict[bytes, list] = {sk: [] for sk in need}
                pending = list(need)
                with self.prover.shared_block_scope():
                    for level in self.registry.nonempty_levels():
                        ask = [
                            k for k in pending if not self._skips(level, k, entries[k])
                        ]
                        if not ask:
                            continue
                        answers = self.prover.level_multi_get_proof(level, ask, tsq)
                        for k in ask:
                            if self._stops_at(entries[k], answers[k], tsq):
                                pending.remove(k)
                    proof = self.prover.assemble_batch(
                        tuple(need), tsq, [entries[sk] for sk in need]
                    )
                proof_bytes = proof.size_bytes()
                # One bulk copy of the batch proof into the enclave.
                self.env.copy_in(proof_bytes)
                hashes_before = self._m_hash_calls.total()
                verified = self.verifier.verify_multi_get(
                    need, tsq, proof, trusted_absence=self._trusted_absence
                )
                self._book_proof(
                    hashes_before,
                    proof_bytes,
                    self._m_proof_multiget_bytes,
                    sum(1 for record in verified if record is None),
                )
                by_key.update(zip(need, verified))
                span.set(batch_size=len(keys), proof_bytes=proof_bytes)
                return VerifiedMultiGet(
                    records=[by_key.get(sk) for sk in stored],
                    proof=proof,
                    proof_bytes=proof_bytes,
                )

    def _build_get_proof(self, stored_key: bytes, tsq: int) -> GetProof:
        """The enclave-driven proof collection loop (r1): descend levels,
        ask the untrusted prover where trusted metadata cannot answer, and
        stop at the first level that can serve the query (early stop)."""
        proof = GetProof(key=stored_key, ts_query=tsq)
        for level in self.registry.nonempty_levels():
            if self._skips(level, stored_key, proof.levels):
                continue
            entry = self.prover.level_get_proof(level, stored_key, tsq)
            if self._stops_at(proof.levels, entry, tsq):
                break
        return proof

    def _skips(self, level: int, stored_key: bytes, entries: list) -> bool:
        """The level-skip rule of GET and MULTIGET: when the level's key
        range or :meth:`_trusted_absence` rules ``stored_key`` out, append
        the skip to the key's proof ``entries`` and return True."""
        out_of_range = self.registry.get(level).excludes_key(stored_key)
        if out_of_range or self._trusted_absence(level, stored_key):
            entries.append(LevelSkipped(level, "trusted-metadata"))
            return True
        return False

    def _stops_at(self, entries: list, entry, tsq: int) -> bool:
        """Append the prover's level ``entry`` to the key's proof
        ``entries``; True when the descent stops there (early stop)."""
        entries.append(entry)
        if self.db.config.use_bloom and isinstance(entry, LevelNonMembership):
            # The filter said "maybe" but the level had nothing: the
            # false positive cost a full non-membership proof.
            self._m_bloom_fp.inc()
        return self.early_stop and stops_descent(entry, tsq)

    def _trusted_absence(self, level: int, stored_key: bytes) -> bool:
        """Bloom/key-range check over trusted in-enclave metadata.

        A negative here is a sound non-membership witness (filters have
        no false negatives), so the level is skipped without a Merkle
        proof — which is exactly why a *false positive* is expensive: it
        forces a full non-membership proof for the level, the asymmetry
        the filter-saturation adversary mines for.
        """
        run = self.db.level_run(level)
        if run is None or run.is_empty:
            return True
        if not self.db.config.use_bloom:
            return False
        self._m_bloom_checks.inc()
        if run.may_contain(stored_key):
            return False
        self._m_bloom_negatives.inc()
        return True

    def _book_proof(
        self, hashes_before: float, proof_bytes: int, sizes, negatives: int = 0
    ) -> None:
        """Book a verified proof: the trusted hashes its verification
        spent since ``hashes_before``, its bytes (running total,
        ``proof.bytes`` resource, admission proof work, the ``sizes``
        histogram) and the negative-read charge for ``negatives`` absent
        keys."""
        self._m_verify_hashes.inc(self._m_hash_calls.total() - hashes_before)
        self.total_proof_bytes += proof_bytes
        self.telemetry.charge_resource("proof.bytes", proof_bytes)
        if self.admission is not None:
            self.admission.charge_proof_work(self._client, proof_bytes)
            if negatives > 0:
                self.admission.charge_negative(
                    self._client, negatives * self.NEGATIVE_READ_COST
                )
        sizes.observe(proof_bytes)

    def scan(
        self, lo: bytes, hi: bytes, ts_query: int | None = None
    ) -> list[tuple[bytes, bytes]]:
        """SCAN(k1, k2, tsq): verified-complete range result."""
        with self.db._lock, self.telemetry.span("elsm.scan") as span:
            # Admission runs before the enclave transition: a shed
            # request must not cost an ECall.
            self._admit("scan")
            with self.env.op_call("scan", in_bytes=len(lo) + len(hi)):
                if not self.codec.supports_range:
                    raise ValueError(
                        "deterministic key encryption cannot serve range queries; "
                        "use the order-preserving mode"
                    )
                tsq = self._ts if ts_query is None else ts_query
                enc_lo, enc_hi = self.codec.encode_range(lo, hi)
                proof = self.scan_proof(enc_lo, enc_hi, tsq)
                memtable_records = list(self.db.mem_range(enc_lo, enc_hi))
                hashes_before = self._m_hash_calls.total()
                records = self.verifier.verify_scan(
                    enc_lo, enc_hi, tsq, proof, extra_trusted=memtable_records
                )
                proof_bytes = proof.size_bytes()
                self._book_proof(hashes_before, proof_bytes, self._m_proof_scan_bytes)
                span.set(result_count=len(records), proof_bytes=proof_bytes)
                return [
                    (self.codec.decode_key(r.key), self.codec.decode_value(r.value))
                    for r in records
                ]

    def scan_proof(self, lo: bytes, hi: bytes, tsq: int) -> ScanProof:
        """Assemble the SCAN proof for stored-form bounds ``[lo, hi]``:
        a level is skipped only when its key range is disjoint from the
        query, a skip any verifier can re-check.  The remote server
        serves the same proof."""
        proof = ScanProof(lo=lo, hi=hi, ts_query=tsq)
        for level in self.registry.nonempty_levels():
            if self.registry.get(level).excludes_range(lo, hi):
                proof.levels.append(LevelSkipped(level, "range-disjoint"))
            else:
                proof.levels.append(self.prover.level_range_proof(level, lo, hi, tsq))
        return proof

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def compact_level(self, level: int) -> None:
        """Authenticated merge of one level into the next."""
        self.db.compact_level(level)

    def compact_all(self) -> None:
        """Merge everything into the deepest level (test/maintenance aid)."""
        self.db.flush()
        while True:
            levels = self.db.level_indices()
            if len(levels) <= 1:
                break
            self.db.compact_level(levels[0])

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def audit(self, check_embedded_proofs: bool = True):
        """Eagerly verify the whole on-disk state (see repro.core.audit)."""
        from repro.core.audit import audit_store

        return audit_store(
            self.db, self.registry, check_embedded_proofs=check_embedded_proofs
        )

    def _level_report(self, level: int) -> dict:
        run = self.db.level_run(level)
        digest = self.registry.get(level)
        return {
            **super()._level_report(level),
            "records": run.record_count,
            "distinct_keys": digest.leaf_count,
            "root": digest.root.hex()[:16],
        }

    def report(self) -> dict:
        """The shell's placement snapshot with the proof keys spliced in
        (levels gain their digests; see :meth:`PlacedStore.report`)."""
        placement = super().report()
        cache = self.verifier.node_cache
        proof_keys = {
            "wal_sync_every": {"durable_ts": self.durability_ts()},
            "levels": {
                "level_bytes_total": sum(
                    entry["bytes"] for entry in placement["levels"].values()
                )
            },
            "cache_misses": {
                "hash_invocations": int(
                    self.telemetry.metrics.counter(
                        "enclave.hash.invocations"
                    ).total()
                ),
                "verified_gets": self.verifier.verified_gets,
                "verified_multi_gets": self.verifier.verified_multi_gets,
                "verified_scans": self.verifier.verified_scans,
                "verifier_cache_hits": cache.hits if cache is not None else 0,
                "verifier_cache_misses": (
                    cache.misses if cache is not None else 0
                ),
                "proof_bytes_total": self.total_proof_bytes,
                "proof_get_bytes_mean": self._m_proof_get_bytes.mean(),
            },
            "events_dropped": {
                "salted_bloom": bool(self.db.config.bloom_salt),
                "admission": (
                    self.admission.snapshot()
                    if self.admission is not None
                    else None
                ),
            },
        }
        report = {}
        for key, value in placement.items():
            report[key] = value
            report.update(proof_keys.get(key, {}))
        return report

    # ------------------------------------------------------------------
    # State continuity: sealing and rollback defence (Section 5.6.1)
    # ------------------------------------------------------------------
    def dataset_hash(self) -> bytes:
        """Fingerprint of the trusted state (every level root plus the WAL
        digest); perfbench's round check and the golden test compare it."""
        return self.registry.dataset_hash(self.listener.wal_digest)

    def _seal_state(self) -> SealedBlob:
        """Seal the trusted state, claiming the counter value that
        :meth:`persist_seal` moves to once the blob is durable."""
        payload = {
            "registry": self.registry.to_payload(),
            "wal_digest": self.listener.wal_digest.hex(),
            "ts": self._ts,
            "counter": self.anchor.anchored_value + 1 if self.rollback_protection else 0,
            "manifest_seq": self.db.manifest_seq,
            "wal_epoch": self.db.wal.epoch,
            # The background-flush time cut: WAL records at or below this
            # are already in committed SSTables (one log + one digest
            # cover the active table AND the immutable queue, so the
            # epoch does not advance on a background flush).  Recovery
            # replays only records newer than it.
            "flushed_ts": self.db.flushed_ts,
            # The Bloom master salt travels only inside the sealed blob:
            # recovery must rebuild the *same* keyed filters, and the
            # untrusted disk must never learn the key.
            "bloom_salt": self.db.config.bloom_salt.hex(),
        }
        return seal(self.enclave, payload)

    @property
    def _seal_prefix(self) -> str:
        return f"{self.db.name_prefix}/SEAL-"

    def _seal_name(self, seq: int) -> str:
        return f"{self._seal_prefix}{seq:06d}"

    def persist_seal(self) -> str:
        """Seal the trusted state and write it to disk as the newest
        ``SEAL-<n>`` file, then move the counter (its only mover); the
        durability floor and the reaping of older seals wait for that.
        Returns the file name written.

        Takes the engine lock (reentrant: autoseal callers hold it), so a
        background step cannot move the counter between the state read
        and its seal."""
        with self.db._lock:
            ts_at_seal = self._ts
            blob = self._seal_state()
            self._seal_seq += 1
            name = self._seal_name(self._seal_seq)
            store_blob(self.env, name, blob)
            if self.rollback_protection:
                self.anchor.anchor()
            self._m_seals.inc()
            self._durable_ts = max(self._durable_ts, ts_at_seal)
            for seq in reversed(self.env.file_seqs(self._seal_prefix)):
                if seq != self._seal_seq:
                    self.env.file_delete(self._seal_name(seq))
            return name

    def _autoseal_commit(self, reason: str) -> None:
        self.persist_seal()

    def durability_ts(self) -> int:
        """Largest timestamp guaranteed to survive a power cut.

        With autoseal this is the newest *on-disk seal's* timestamp —
        an fsynced WAL record the enclave has not yet sealed cannot be
        authenticated after a restart, so it does not count as durable.
        """
        if self.autoseal:
            return self._durable_ts
        return self.db.durable_ts()

    def recover_from_disk(self) -> int:
        """Restart when only the disk (and hardware counter) survive:
        adopt the newest on-disk seal that decodes and unseals cleanly,
        rollback-check it, adopt its manifest and WAL epoch, authenticate
        the WAL, replay it, and (with rollback protection) re-anchor with
        a fresh seal.

        Call on a store constructed with ``reopen=True`` over the same
        disk (and the same hardware ``counter``).  Returns the number of
        WAL records replayed.

        Torn or corrupt seal files (a crash during the seal write) fall
        back to the previous seal; a seal that unseals but fails the
        freshness check raises :class:`RollbackDetected` — an older seal
        is *never* tried in that case, since silently accepting one is
        exactly the rollback being defended against.

        The WAL check accepts the *longest prefix* whose running digest
        equals the sealed digest: entries appended after the seal (the
        crash window) are unauthenticated, so they are discarded — with
        telemetry and a physical truncation — rather than trusted.  If
        no prefix matches (tampering, or a device that dropped an
        acknowledged fsync), recovery raises :class:`IntegrityViolation`.
        """
        # Pick the newest seal that unseals; adopt it after the loop.
        last_error: Exception | None = None
        for seq in reversed(self.env.file_seqs(self._seal_prefix)):
            try:
                payload = unseal(self.enclave, load_blob(self.env, self._seal_name(seq)))
                break
            except SealError as exc:
                last_error = exc
        else:
            if last_error is not None:
                raise IntegrityViolation(
                    f"no intact sealed state found on disk: {last_error}"
                )
            raise IntegrityViolation("no sealed state found on disk")
        # The recovery span owns every charge replay makes (hashing
        # the WAL, replay IO, the recovery flush), so a trace of a
        # restart shows what recovery cost; its events carry its ids.
        with self.telemetry.span("elsm.recovery") as span:
            if self.rollback_protection and not self.anchor.check_freshness(
                payload["counter"]
            ):
                raise RollbackDetected(
                    "sealed state counter is neither the trusted counter "
                    "nor one ahead"
                )
            self.registry.load_payload(payload["registry"])
            self.listener.wal_digest = bytes.fromhex(payload["wal_digest"])
            self._ts = payload["ts"]
            # Restore the sealed Bloom salt *before* the manifest
            # reload: every filter rebuilt from file bytes must be
            # keyed exactly as the original was.
            self.db.config.bloom_salt = bytes.fromhex(payload["bloom_salt"])
            # Adopt the on-disk seal numbering *before* replay: a
            # recovery-triggered flush may autoseal, and its seal must
            # outnumber every seal on disk or a stale one would win
            # the next restart.
            disk_seals = self.env.file_seqs(self._seal_prefix)
            if disk_seals:
                self._seal_seq = max(self._seal_seq, disk_seals[-1])
            if payload["manifest_seq"] > 0:
                if not self.db.load_manifest(payload["manifest_seq"]):
                    raise IntegrityViolation(
                        "manifest named by the sealed state is missing from disk"
                    )
            else:
                # The seal predates the first commit: no level may
                # survive, even if an uncommitted manifest was eagerly
                # loaded on open.
                self.db.reset_levels()
            if payload["wal_epoch"] > 0:
                self.db.wal.set_epoch(payload["wal_epoch"])

            target = self.listener.wal_digest
            digest = WAL_DIGEST_INIT
            seen: list[Record] = []
            accepted: list[Record] = []
            accepted_end = 0
            # An empty log matches the reset digest.
            matched = constant_time_eq(digest, target)
            for record, end in self.db.wal.replay_entries():
                digest = advance_wal_digest(digest, record)
                self.env.trusted_hash(record.approximate_bytes() + 32)
                seen.append(record)
                if constant_time_eq(digest, target):
                    accepted = list(seen)
                    accepted_end = end
                    matched = True
            if not matched:
                raise IntegrityViolation(
                    "write-ahead log failed authentication during recovery"
                )
            wal_size = self.disk.size(self.db.wal.path)
            if wal_size > accepted_end:
                self._m_recovery_dropped_bytes.inc(wal_size - accepted_end)
                self._m_recovery_dropped_entries.inc(len(seen) - len(accepted))
                self.telemetry.emit(
                    "wal.recovery.truncated",
                    dropped_bytes=wal_size - accepted_end,
                    dropped_entries=len(seen) - len(accepted),
                    accepted_end=accepted_end,
                )
                self.db.wal.truncate_to(accepted_end)

            self.db.cleanup_orphans()
            if accepted:
                self._ts = max(self._ts, max(r.ts for r in accepted))
            # Drop the replay prefix a background flush already
            # committed to SSTables: the seal's flushed_ts is the
            # time-cut boundary, and replaying below it would duplicate
            # (key, ts) pairs between the rebuilt MemTable and the
            # levels.  (Timestamp restoration above uses the
            # *unfiltered* accepted records.)
            flushed_ts = payload["flushed_ts"]
            if flushed_ts:
                self.db.restore_flushed_ts(flushed_ts)
                accepted = [r for r in accepted if r.ts > flushed_ts]
            replayed = self.db.recover(records=accepted)
            self._ts = max(self._ts, self.db.last_ts)
            if self.autoseal:
                # Everything just recovered is on disk and sealed.
                self._durable_ts = max(self._durable_ts, self._ts)
            if self.rollback_protection:
                # Re-anchor: a seal one ahead gets its lost increment,
                # and a seal the host hid can never stand for this
                # restart's writes.
                self.persist_seal()
            span.set(replayed=replayed)
        self.telemetry.emit("store.recovered", replayed=replayed, ts=self._ts)
        # Reap only seals older than the one adopted: a recovery
        # flush may already have written (and reaped around) a newer
        # one, which must survive.
        for other in reversed(self.env.file_seqs(self._seal_prefix)):
            if other < seq:
                self.env.file_delete(self._seal_name(other))
        return replayed

    #: A P2 restart is always authenticated: the shell's plain WAL replay
    #: would trust whatever the host's disk says.
    recover = recover_from_disk
