"""The LSM store facade (the "vanilla LevelDB" of the paper).

``LSMStore`` wires the MemTable, WAL, leveled SSTables, read buffer, and
compactor together behind the PUT/GET/SCAN interface of Equation 1.  It
knows nothing about enclave placement beyond what its
:class:`~repro.sgx.env.ExecutionEnv` dictates, and nothing about
authentication beyond firing :class:`~repro.lsm.events.EventListener`
hooks — eLSM-P2 is layered on top purely through those hooks.
"""

from __future__ import annotations

import heapq
import json
import threading
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro.lsm.cache import LOCATION_UNTRUSTED, ReadBuffer
from repro.lsm.compaction import Compactor
from repro.lsm.events import CompactionContext, EventListener
from repro.lsm.memtable import SkipListMemTable
from repro.lsm.records import KIND_DELETE, KIND_PUT, Record
from repro.lsm.sstable import BlockFetcher, Entry, SSTableMeta, rebuild_meta
from repro.lsm.version import LevelRun
from repro.lsm.wal import WriteAheadLog
from repro.sgx.env import ExecutionEnv
from repro.sim.disk import StorageFailure

_MEMTABLE_REGION = "memtable"
_TABLE_META_REGION = "table_meta"

#: Session-wide default WAL fsync cadence.  ``LSMConfig.wal_sync_every``
#: of None resolves to this, so the CLI's ``--wal-sync-every`` flag can
#: retune every store an experiment constructs.
DEFAULT_WAL_SYNC_EVERY = 32

#: Bloom filter density and level fan-out: LevelDB's defaults, used by
#: every store and experiment.
BLOOM_BITS_PER_KEY = 10
LEVEL_SIZE_RATIO = 10


def _merged(streams: list[Iterator[Record]]) -> Iterator[Record]:
    """Merge sorted per-table record streams by (key, -ts)."""
    if len(streams) == 1:
        return streams[0]
    return heapq.merge(*streams, key=lambda r: r.sort_key())


class StoreDegradedError(RuntimeError):
    """The store is read-only after a persistent storage failure.

    Raised by write operations once :meth:`LSMStore.health` has flipped
    to degraded; reads continue to be served from the intact in-memory
    and on-disk state.  Degradation is *terminal* for the process —
    contrast with the retryable ``overloaded`` state (see
    :class:`repro.core.admission.AdmissionShedError`), which recovers.
    """


@dataclass
class LSMConfig:
    """Tuning knobs; defaults suit the 1/256-scaled experiments."""

    write_buffer_bytes: int = 16 * 1024
    block_bytes: int = 4096
    use_bloom: bool = True
    level1_max_bytes: int = 40 * 1024
    file_max_bytes: int = 16 * 1024
    read_mode: str = "buffer"  # "buffer" or "mmap"
    read_buffer_bytes: int = 256 * 1024
    buffer_location: str = LOCATION_UNTRUSTED
    protect_files: bool = False
    compression: bool = False
    compaction_enabled: bool = True
    wal_sync_every: int | None = None  # None -> DEFAULT_WAL_SYNC_EVERY
    #: Pipelined write path: when > 0, a full write buffer *rotates* the
    #: active MemTable into an immutable queue (bounded to this many
    #: entries) instead of flushing synchronously, and queued tables are
    #: flushed off the foreground path — overlapped with foreground work
    #: on the simulated clock.  0 keeps the legacy stop-the-world flush.
    max_immutable_memtables: int = 0
    #: Master salt keying every SSTable Bloom filter (b"" = legacy
    #: unkeyed hashing).  eLSM draws it from enclave randomness and
    #: seals it with the trusted state; it must never be persisted to
    #: the untrusted disk.
    bloom_salt: bytes = b""


@dataclass
class GetResult:
    """A point lookup outcome with its provenance level (0 = MemTable)."""

    record: Record | None
    level: int | None

    @property
    def found(self) -> bool:
        return self.record is not None


@dataclass
class StoreStats:
    flushes: int = 0
    compactions: int = 0
    bytes_flushed: int = 0
    bytes_compacted: int = 0
    user_bytes_written: int = 0

    def write_amplification(self) -> float:
        """Bytes written to disk per user byte accepted."""
        if self.user_bytes_written == 0:
            return 0.0
        return (self.bytes_flushed + self.bytes_compacted) / self.user_bytes_written


class LSMStore:
    """A leveled LSM key-value store over the simulated substrate."""

    def __init__(
        self,
        env: ExecutionEnv,
        config: LSMConfig | None = None,
        listeners: Iterable[EventListener] = (),
        name_prefix: str = "db",
        reopen: bool = False,
    ) -> None:
        self.env = env
        self.config = config or LSMConfig()
        self.listeners = list(listeners)
        self.name_prefix = name_prefix
        self._lock = threading.RLock()
        self.stats = StoreStats()
        self.telemetry = env.telemetry
        self._tracer = self.telemetry.tracer
        self._m_ops = self.telemetry.counter(
            "lsm.ops", "engine operations by kind", labels=("op",)
        )
        self._m_get_level = self.telemetry.counter(
            "lsm.get.served_level",
            "point lookups by the level that served them (0 = MemTable)",
            labels=("level",),
        )
        self._m_flush_bytes = self.telemetry.counter(
            "lsm.flush.bytes", "SSTable bytes written by MemTable flushes"
        )
        self._m_compact_bytes = self.telemetry.counter(
            "lsm.compaction.bytes", "SSTable bytes written by compactions"
        )
        self._m_user_bytes = self.telemetry.counter(
            "lsm.user.bytes", "user payload bytes accepted by writes"
        )
        self._m_degraded = self.telemetry.counter(
            "lsm.degraded.events",
            "times the store flipped to read-only on storage failure",
        )
        self._m_overload = self.telemetry.counter(
            "lsm.overload.transitions",
            "overload state transitions (entered / recovered)",
            labels=("state",),
        )
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
        self._m_gc_groups = self.telemetry.counter(
            "lsm.group_commit.groups",
            "write groups committed (one WAL write + one fsync each)",
        )
        self._m_gc_records = self.telemetry.counter(
            "lsm.group_commit.records",
            "records committed through the group-commit path",
        )
        self._m_rotations = self.telemetry.counter(
            "lsm.memtable.rotations",
            "active MemTables rotated into the immutable queue",
        )
        self._m_bg_flush_us = self.telemetry.counter(
            "lsm.flush.background_us",
            "simulated microseconds of flush work run off the foreground path",
        )

        env.meta_region(_MEMTABLE_REGION)
        env.meta_region(_TABLE_META_REGION)

        if self.config.wal_sync_every is None:
            self.config.wal_sync_every = DEFAULT_WAL_SYNC_EVERY
        self.memtable = SkipListMemTable()
        #: Rotated (frozen) MemTables awaiting background flush, oldest
        #: first.  Reads consult active + immutables + levels.
        self.immutables: list[SkipListMemTable] = []
        self._immutable_enqueued_us: list[float] = []
        self._rotations = 0
        #: Simulated instant at which the background flush worker frees
        #: up — its single track serializes consecutive flushes.
        self._bg_free_us = 0.0
        self.wal = WriteAheadLog(
            env, f"{name_prefix}/wal.log", sync_every=self.config.wal_sync_every
        )

        buffer = None
        if self.config.read_mode == "buffer":
            buffer = ReadBuffer(
                env,
                self.config.read_buffer_bytes,
                location=self.config.buffer_location,
                block_stride=self.config.block_bytes,
                region=f"{name_prefix}.read_buffer",
            )
        self.read_buffer = buffer
        self.fetcher = BlockFetcher(
            env,
            mode=self.config.read_mode,
            buffer=buffer,
            protected=self.config.protect_files,
        )
        self._compactor = Compactor(
            env,
            self.listeners,
            block_bytes=self.config.block_bytes,
            file_max_bytes=self.config.file_max_bytes,
            bloom_bits_per_key=BLOOM_BITS_PER_KEY,
            protect_files=self.config.protect_files,
            compression=self.config.compression,
            bloom_salt_provider=lambda: self.config.bloom_salt,
        )
        self._levels: dict[int, LevelRun] = {}
        self._file_no = 0
        self._meta_bytes = 0
        self._auto_ts = 0
        self._recovering = False
        self._manifest_seq = 0
        self._pending_deletes: list[str] = []
        self._flushed_ts = 0
        self._health = "ok"
        self._degraded_reason: str | None = None
        self._overload_reason: str | None = None
        #: Called with a reason ("flush", "compaction", "wal_sync") at
        #: every commit point; eLSM-P2 persists its sealed state here so
        #: the on-disk seal always names the newest manifest/WAL epoch.
        self.commit_hook: Callable[[str], None] | None = None
        if reopen:
            self.load_manifest()

    # ------------------------------------------------------------------
    # Public interface (Equation 1)
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes, ts: int | None = None) -> int:
        """Write <key, value>; returns the timestamp assigned."""
        return self._write_one("put", KIND_PUT, key, value, ts)

    def delete(self, key: bytes, ts: int | None = None) -> int:
        """Write a tombstone for ``key``."""
        return self._write_one("delete", KIND_DELETE, key, b"", ts)

    def _write_one(
        self, op: str, kind: int, key: bytes, value: bytes, ts: int | None
    ) -> int:
        with self._lock:
            self._guard_write()
            self._m_ops.inc(op=op)
            ts = self._resolve_ts(ts)
            try:
                self._write(Record(key=key, ts=ts, kind=kind, value=value))
            except StorageFailure as exc:
                self._degrade(op, exc)
            return ts

    def commit_group(
        self,
        ops: list[tuple[int, bytes, bytes]],
        stamps: list[int] | None = None,
    ) -> list[int]:
        """Group commit: apply many writes with ONE WAL write and ONE
        fsync (all-or-nothing durability for the group).

        ``ops`` is a list of ``(kind, key, value)`` tuples; ``stamps``
        optionally pins the timestamps (recovery/replication), otherwise
        consecutive timestamps are assigned.  Returns the timestamps in
        op order.  Unlike :meth:`put` — which logs its record with its
        own disk write under the WAL's fsync cadence — the whole group
        lands as a single
        :meth:`~repro.lsm.wal.WriteAheadLog.append_group`, so the
        per-operation cost of the fsync (and, in eLSM, of the enclave
        transition and seal) is amortised across the group.  The flush
        trigger is evaluated once, after the whole group, so a group
        never straddles a MemTable flush.
        """
        with self._lock:
            self._guard_write()
            self._m_ops.inc(op="group_commit")
            records = [
                Record(
                    key=key,
                    ts=self._resolve_ts(stamps[i] if stamps else None),
                    kind=kind,
                    value=value,
                )
                for i, (kind, key, value) in enumerate(ops)
            ]
            if not records:
                return []
            try:
                for record in records:
                    for listener in self.listeners:
                        listener.on_wal_append(record)
                self.wal.append_group(records)
                self._m_gc_groups.inc()
                self._m_gc_records.inc(len(records))
                self._apply(records)
            except StorageFailure as exc:
                self._degrade("group_commit", exc)
            return [record.ts for record in records]

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Operational status, graded:

        * ``ok`` — normal service;
        * ``overloaded`` — load is being shed with retryable errors at
          the admission layer; admitted operations still succeed, and
          the store returns to ``ok`` once pressure subsides;
        * ``degraded`` — read-only after a persistent storage failure
          (terminal for the process).
        """
        with self._lock:
            status = self._health
            if status == "degraded":
                reason = self._degraded_reason
            else:
                reason = self._overload_reason
        return {
            "status": status,
            "read_only": status == "degraded",
            "reason": reason,
        }

    def enter_overload(self, reason: str) -> None:
        """Flip ``ok`` -> ``overloaded`` (no-op from any other state).

        Called by the admission controller when its global budget is
        exhausted; unlike :meth:`_degrade` this is recoverable and does
        not make the store read-only.
        """
        with self._lock:
            if self._health != "ok":
                return
            self._health = "overloaded"
            self._overload_reason = reason
            self._m_overload.inc(state="entered")
            self.telemetry.emit("lsm.overloaded", reason=reason)

    def exit_overload(self) -> None:
        """Flip ``overloaded`` back to ``ok`` (no-op otherwise)."""
        with self._lock:
            if self._health != "overloaded":
                return
            self._health = "ok"
            reason, self._overload_reason = self._overload_reason, None
            self._m_overload.inc(state="recovered")
            self.telemetry.emit("lsm.overload.recovered", reason=reason or "")

    def _guard_write(self) -> None:
        if self._health == "degraded":
            raise StoreDegradedError(
                f"store is read-only (degraded: {self._degraded_reason})"
            )

    def _degrade(self, op: str, exc: StorageFailure) -> None:
        """Flip to read-only after a storage failure survived the retry
        budget; reads keep working off the intact state."""
        self._health = "degraded"
        self._degraded_reason = f"{op}: {exc}"
        self._m_degraded.inc()
        self.telemetry.emit("lsm.degraded", op=op, reason=str(exc))
        raise StoreDegradedError(
            f"store degraded to read-only after {op} failed: {exc}"
        ) from exc

    def get(self, key: bytes, ts_query: int | None = None) -> bytes | None:
        """Latest value of ``key`` at ``ts_query`` (None = now)."""
        result = self.get_with_level(key, ts_query)
        if result.record is None or result.record.is_tombstone:
            return None
        return result.record.value

    def get_with_level(self, key: bytes, ts_query: int | None = None) -> GetResult:
        """Point lookup that also reports the level that served it."""
        with self._lock:
            self._m_ops.inc(op="get")
            self.env.clock.charge("compute", self.env.costs.cpu_op_base_us)
            record = self.mem_lookup(key, ts_query)
            if record is not None:
                self._touch_memtable(key, record.approximate_bytes())
                self._m_get_level.inc(level="0")
                return GetResult(record=record, level=0)
            for level in self.level_indices():
                record = self._level_lookup(
                    self._levels[level], self.fetcher, key, ts_query
                )
                if record is not None:
                    self._m_get_level.inc(level=str(level))
                    return GetResult(record=record, level=level)
            self._m_get_level.inc(level="miss")
            return GetResult(record=None, level=None)

    def multi_get(
        self, keys: list[bytes], ts_query: int | None = None
    ) -> list[bytes | None]:
        """Batched point lookups under one lock acquisition.

        Keys are grouped per level in sorted order and served through one
        :class:`~repro.lsm.sstable.ScopedBlockCache`, so a block shared
        by several keys is fetched once instead of once per key.
        Results align with the request order and match what N sequential
        :meth:`get` calls would return.
        """
        from repro.lsm.sstable import ScopedBlockCache

        with self._lock:
            self._m_ops.inc(op="multi_get")
            self.env.clock.charge("compute", self.env.costs.cpu_op_base_us)
            results: dict[bytes, Record | None] = {}
            pending: list[bytes] = []
            seen: set[bytes] = set()
            for key in keys:
                if key in seen:
                    continue
                seen.add(key)
                record = self.mem_lookup(key, ts_query)
                if record is not None:
                    self._touch_memtable(key, record.approximate_bytes())
                    results[key] = record
                else:
                    pending.append(key)
            pending.sort()
            scoped = ScopedBlockCache(self.fetcher)
            for level in self.level_indices():
                if not pending:
                    break
                run = self._levels[level]
                still_pending: list[bytes] = []
                for key in pending:
                    found = self._level_lookup(run, scoped, key, ts_query)
                    if found is None:
                        still_pending.append(key)
                    else:
                        results[key] = found
                pending = still_pending
            for key in pending:
                results[key] = None
            out: list[bytes | None] = []
            for key in keys:
                record = results.get(key)
                if record is None or record.is_tombstone:
                    out.append(None)
                else:
                    out.append(record.value)
            return out

    def _level_lookup(
        self, run: LevelRun, fetcher, key: bytes, ts_query: int | None
    ) -> Record | None:
        """Newest version of ``key`` in one level visible at ``ts_query``,
        consulting the level's filter first.  ``fetcher`` is the store's
        block fetcher for a GET, or a MULTIGET's shared block scope."""
        self.env.clock.charge("compute", self.env.costs.cpu_block_scan_us)
        if self.config.use_bloom:
            self._m_bloom_checks.inc()
            if not run.may_contain(key):
                self._m_bloom_negatives.inc()
                return None
        group = run.get_group(fetcher, key)
        if not group and self.config.use_bloom:
            self._m_bloom_fp.inc()
        for candidate, _aux in group:
            if ts_query is None or candidate.ts <= ts_query:
                return candidate
        return None

    def scan(
        self, lo: bytes, hi: bytes, ts_query: int | None = None
    ) -> list[Record]:
        """All live records with lo <= key <= hi at ``ts_query``."""
        with self._lock:
            self._m_ops.inc(op="scan")
            best: dict[bytes, Record] = {}

            def consider(record: Record) -> None:
                if ts_query is not None and record.ts > ts_query:
                    return
                incumbent = best.get(record.key)
                if incumbent is None or record.ts > incumbent.ts:
                    best[record.key] = record

            for record in self.mem_range(lo, hi):
                consider(record)
            for level in self.level_indices():
                run = self._levels[level]
                _, entries, _ = run.range_entries(self.fetcher, lo, hi)
                for record, _aux in entries:
                    consider(record)
            return [
                best[key]
                for key in sorted(best)
                if not best[key].is_tombstone
            ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def last_ts(self) -> int:
        """Largest timestamp the store has seen (recovery restores it)."""
        with self._lock:
            return self._auto_ts

    @property
    def manifest_seq(self) -> int:
        """Sequence number of the current (newest committed) manifest."""
        return self._manifest_seq

    @property
    def manifest_path(self) -> str:
        """File name of the current manifest."""
        return self._manifest_name(self._manifest_seq)

    def durable_ts(self) -> int:
        """Largest timestamp guaranteed to survive a power cut: covered
        either by a committed flush (in SSTables + manifest) or by a
        completed WAL fsync."""
        with self._lock:
            return max(self._flushed_ts, self.wal.durable_ts)

    @property
    def flushed_ts(self) -> int:
        """Largest timestamp covered by a committed flush.  With the
        immutable queue this is the time-cut boundary below which WAL
        records are already in SSTables — recovery must not replay
        them (they would duplicate into the rebuilt memory state)."""
        with self._lock:
            return self._flushed_ts

    def restore_flushed_ts(self, ts: int) -> None:
        """Adopt a sealed ``flushed_ts`` during authenticated recovery."""
        self._flushed_ts = max(self._flushed_ts, ts)

    def level_indices(self) -> list[int]:
        """Non-empty level ids, shallowest (newest) first."""
        return sorted(i for i, run in self._levels.items() if not run.is_empty)

    def level_run(self, level: int) -> LevelRun | None:
        """The sorted run at a level (None if the level never existed)."""
        return self._levels.get(level)

    def total_data_bytes(self) -> int:
        """Bytes across all levels plus the MemTable."""
        return sum(run.total_bytes for run in self._levels.values()) + (
            self.mem_bytes()
        )

    def resize_read_buffer(self, capacity_bytes: int) -> None:
        """Swap in a fresh read buffer of a new capacity.

        Used by the buffer-size sweeps (Figures 2 and 6c) so each point
        reuses the loaded dataset instead of rebuilding the store.
        """
        if self.config.read_mode != "buffer":
            raise ValueError("resize_read_buffer requires buffer read mode")
        region = f"{self.name_prefix}.read_buffer"
        if self.config.buffer_location != LOCATION_UNTRUSTED:
            self.env.meta_reset(region)
        self.config.read_buffer_bytes = capacity_bytes
        self.read_buffer = ReadBuffer(
            self.env,
            capacity_bytes,
            location=self.config.buffer_location,
            block_stride=self.config.block_bytes,
            region=region,
        )
        self.fetcher = BlockFetcher(
            self.env,
            mode="buffer",
            buffer=self.read_buffer,
            protected=self.config.protect_files,
        )

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _resolve_ts(self, ts: int | None) -> int:
        if ts is None:
            self._auto_ts += 1
            return self._auto_ts
        self._auto_ts = max(self._auto_ts, ts)
        return ts

    def _write(self, record: Record, log: bool = True) -> None:
        """One record through the per-record WAL front (digest, append,
        cadence fsync) — skipped by WAL replay — then into the MemTable.
        Group commit shares everything but the front: one
        ``append_group`` and one fsync for the whole group."""
        if log:
            for listener in self.listeners:
                listener.on_wal_append(record)
            self.wal.append(record)
        self._apply([record])

    def _apply(self, records: list[Record]) -> None:
        """Add logged records to the active MemTable (one operation's
        worth of CPU), then handle a full write buffer."""
        for record in records:
            self.memtable.add(record)
            nbytes = record.approximate_bytes()
            self.stats.user_bytes_written += nbytes
            self._m_user_bytes.inc(nbytes)
            self.env.meta_grow(_MEMTABLE_REGION, nbytes)
            self._touch_memtable(record.key, nbytes, write=True)
        self.env.clock.charge("compute", self.env.costs.cpu_op_base_us)
        self._maybe_flush()

    def _maybe_flush(self) -> None:
        """Handle a full write buffer: rotate (pipelined mode) or flush.

        In pipelined mode (``max_immutable_memtables > 0``) the active
        MemTable is frozen and queued and the writer returns immediately;
        flush work happens off the foreground path.  Only when the queue
        exceeds its bound does the writer wait — and then only for the
        *gap* until the background worker's simulated completion instant,
        which is usually zero because that work overlapped foreground
        time (charge-as-max, not sum).
        """
        if self._recovering:
            return
        if self.memtable.approximate_bytes < self.config.write_buffer_bytes:
            return
        if self.config.max_immutable_memtables <= 0:
            self.flush()
            return
        self._rotate_memtable()
        while len(self.immutables) > self.config.max_immutable_memtables:
            self.flush_oldest_immutable(wait=True)

    def _rotate_memtable(self) -> None:
        """Freeze the active MemTable into the immutable queue and start
        a fresh one; O(1), no IO — the foreground write path never waits
        on a flush here."""
        self.env.crash_point("memtable.rotate")
        self.memtable.freeze()
        self.immutables.append(self.memtable)
        self._immutable_enqueued_us.append(self.env.clock.now_us)
        self._rotations += 1
        self._m_rotations.inc()
        self.memtable = SkipListMemTable(
            seed=self.stats.flushes + self._rotations
        )

    def _touch_memtable(self, key: bytes, nbytes: int, write: bool = False) -> None:
        """Approximate the skip list's enclave page accesses.

        The offset hash must not depend on ``PYTHONHASHSEED``: paging
        costs feed the simulated clock, and the perf baselines promise
        bit-identical numbers across processes.
        """
        if self.env.enclave is None:
            return
        region_bytes = max(1, self.env.enclave.region_bytes(_MEMTABLE_REGION))
        offset = zlib.crc32(key) % region_bytes
        self.env.meta_touch(_MEMTABLE_REGION, offset, nbytes, write=write)

    # ------------------------------------------------------------------
    # In-memory tables (active + immutable queue)
    # ------------------------------------------------------------------
    def memtables(self) -> list[SkipListMemTable]:
        """All in-memory tables, newest first (active, then immutables
        newest to oldest).  Rotations are sequential time cuts, so the
        first table holding a key's record holds its newest version."""
        return [self.memtable, *reversed(self.immutables)]

    def mem_lookup(self, key: bytes, ts_query: int | None = None) -> Record | None:
        """Newest in-memory record of ``key`` with ts <= ``ts_query``,
        searching the active table then the immutable queue."""
        for table in self.memtables():
            record = table.get(key, ts_query)
            if record is not None:
                return record
        return None

    def mem_versions(self, key: bytes) -> list[Record]:
        """All in-memory versions of ``key``, newest first."""
        out: list[Record] = []
        for table in self.memtables():
            out.extend(table.versions(key))
        return out

    def mem_range(self, lo: bytes, hi: bytes) -> Iterator[Record]:
        """In-memory records with lo <= key <= hi in (key, -ts) order,
        merged across the active table and the immutable queue."""
        return _merged([t.range(lo, hi) for t in self.memtables() if len(t)])

    def mem_records(self) -> int:
        """Records buffered in memory (active + immutables)."""
        return sum(len(t) for t in self.memtables())

    def mem_bytes(self) -> int:
        """Payload bytes buffered in memory (active + immutables)."""
        return sum(t.approximate_bytes for t in self.memtables())

    def recover(self, records: list[Record] | None = None) -> int:
        """Replay the WAL into the MemTable; returns records recovered.

        ``records`` lets an authenticated caller pass the prefix it has
        already verified against the sealed digest instead of trusting
        whatever is on disk.  The replay is materialised up front and
        flushing is deferred to the end — a flush mid-replay would
        truncate the very log being iterated.
        """
        with self._lock:
            if records is None:
                records = list(self.wal.replay())
            self._recovering = True
            try:
                for record in records:
                    self._resolve_ts(record.ts)
                    self._write(record, log=False)
            finally:
                self._recovering = False
            if self.memtable.approximate_bytes >= self.config.write_buffer_bytes:
                self.flush()
            return len(records)

    # ------------------------------------------------------------------
    # Flush & compaction
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Persist the MemTable into level 1.

        Commit protocol (every step leaves a recoverable disk state):

        1. write SSTables + new manifest (old files/manifest untouched);
        2. advance the WAL to a fresh epoch (old epoch untouched);
        3. run the commit hook — eLSM persists its seal here, naming the
           new manifest and epoch, which is the actual commit point;
        4. only then delete the superseded files.

        A crash before step 3 recovers from the previous seal with the
        previous manifest + WAL epoch still intact; a crash after it
        recovers the new state.

        In pipelined mode this is a *full drain*: the active table and
        every queued immutable are merged (as one level-0 source) into
        the flush, so callers that need an empty memory state — epoch
        advance, digest reset, benchmarks — get it in one commit.
        """
        with self._lock:
            if len(self.memtable) == 0 and not self.immutables:
                return
            self._guard_write()
            try:
                self._flush_locked()
            except StorageFailure as exc:
                self._degrade("flush", exc)

    def _flush_locked(self) -> None:
        with self._tracer.span(
            "lsm.flush",
            records=self.mem_records(),
            memtable_bytes=self.mem_bytes(),
        ):
            flushed_ts = self._auto_ts
            self._flush_tables(self._memtable_source())
            self.env.crash_point("flush.after_install")
            self.memtable = SkipListMemTable(seed=self.stats.flushes)
            self.immutables.clear()
            self._immutable_enqueued_us.clear()
            self.env.meta_reset(_MEMTABLE_REGION)
            self._pending_deletes.append(self.wal.advance_epoch())
            self.env.crash_point("flush.after_wal_epoch")
            for listener in self.listeners:
                listener.on_wal_reset()
            self.stats.flushes += 1
            # Advance flushed_ts before sealing: the commit publishes
            # the flush as durable, so the recovery boundary it implies
            # must already be in place when the seal lands (EL702).
            self._flushed_ts = max(self._flushed_ts, flushed_ts)
            self._commit("flush")
        self._maybe_compact()

    def _commit(self, reason: str) -> None:
        """Make the preceding installs durable and reap superseded files."""
        self.env.crash_point("commit.before_hook")
        if self.commit_hook is not None:
            self.commit_hook(reason)
        self.env.crash_point("commit.after_hook")
        pending, self._pending_deletes = self._pending_deletes, []
        for name in pending:
            if self.env.file_exists(name):
                self.env.file_delete(name)

    def flush_oldest_immutable(self, wait: bool = False) -> bool:
        """Flush the oldest queued immutable off the foreground path.

        The flush (merge into L1, manifest, commit, cascading
        compactions) runs on a :meth:`~repro.sim.clock.SimClock.parallel_track`
        forked at the instant the background worker could have started —
        the later of when the table was queued and when the previous
        background flush finished — so its cost overlaps foreground time
        instead of adding to it.  With ``wait=True`` the caller then
        joins on the track's completion instant, charging only the
        remaining gap (usually zero).  Returns False if the queue was
        empty.

        Durability note: the WAL epoch does NOT advance here.  One log
        and one enclave digest cover the active table and the whole
        queue; the seal's ``flushed_ts`` records the time-cut boundary,
        and recovery replays only records newer than it (see
        ``ELSMP2Store.recover_from_seal``).
        """
        with self._lock:
            if not self.immutables:
                return False
            self._guard_write()
            try:
                self._background_flush_locked(wait=wait)
            except StorageFailure as exc:
                self._degrade("background_flush", exc)
            return True

    def _background_flush_locked(self, wait: bool) -> None:
        imm = self.immutables[0]
        fork_us = max(self._immutable_enqueued_us[0], self._bg_free_us)
        clock = self.env.clock
        with clock.parallel_track(start_us=fork_us) as track:
            with self._tracer.span(
                "lsm.flush.background",
                records=len(imm),
                queued=len(self.immutables),
            ):
                self._flush_tables([(record, b"") for record in imm])
                self.env.crash_point("flush.background.publish")
                self.immutables.pop(0)
                self._immutable_enqueued_us.pop(0)
                if self.env.enclave is not None:
                    self.env.enclave.shrink(
                        _MEMTABLE_REGION, imm.approximate_bytes
                    )
                self.stats.flushes += 1
                # The epoch does not advance, so the commit seal's digest
                # covers every WAL record appended so far — sync first,
                # or a crash right after sealing could truncate records
                # the digest vouches for and recovery would refuse.
                if self.wal.has_unsynced:
                    self.wal.sync()
                # Advance the time-cut BEFORE sealing: the seal that
                # publishes this flush must carry the new boundary, or
                # recovery would replay records the SSTable already holds.
                self._flushed_ts = max(self._flushed_ts, imm.max_ts)
                self._commit("background_flush")
            self._maybe_compact()
        self._bg_free_us = max(self._bg_free_us, track.end_us)
        self._m_bg_flush_us.inc(track.elapsed_us)
        if wait:
            clock.wait_until(track.end_us)

    def drain_immutables(self) -> int:
        """Background-flush every queued immutable (oldest first);
        returns how many were flushed.  Used by the background flusher
        thread and by tests."""
        drained = 0
        while self.flush_oldest_immutable():
            drained += 1
        return drained

    def _memtable_source(self) -> list[Entry]:
        """The in-memory state as ONE sorted level-0 source: the active
        table and every queued immutable merged by (key, -ts) — a single
        trusted source, so the authenticated-compaction listener treats
        the whole in-memory state uniformly."""
        tables = [iter(t) for t in self.memtables() if len(t)]
        return [(record, b"") for record in _merged(tables)]

    def _flush_tables(self, source: list[Entry]) -> None:
        """Write one level-0 source into level 1: merged with the existing
        level 1 (leveled), or — with compaction off — stacked as a new
        level 1 above every existing level."""
        sources: list[tuple[int, Iterable[Entry]]] = [(0, source)]
        if self.config.compaction_enabled:
            is_bottom = self._is_bottom(1)
            existing = self._levels.get(1)
            if existing is not None and not existing.is_empty:
                sources.append((1, existing.iter_entries(self.env)))
        else:
            is_bottom = not self._levels
            # Shift existing levels one deeper to make room at level 1.
            for level in sorted(self._levels, reverse=True):
                self._levels[level + 1] = self._levels.pop(level)
            for listener in self.listeners:
                listener.on_level_inserted(1)
        self._merge_into("flush", sources, 1, is_bottom)

    def _merge_into(
        self,
        kind: str,
        sources: list[tuple[int, Iterable[Entry]]],
        output: int,
        is_bottom: bool,
        emptied: Iterable[int] = (),
    ) -> None:
        """Run the authenticated merge of ``sources`` and install its
        output as level ``output``; every level in ``emptied`` is left
        empty.  The one merge-and-install path of flushes and
        compactions: the manifest is published only after the merge —
        and with it eLSM's per-level root update — completed (EL811)."""
        ctx = CompactionContext(
            kind=kind,
            input_levels=[level for level, _ in sources],
            output_level=output,
            is_bottom_level=is_bottom,
        )
        span = (
            self._tracer.span(
                "lsm.compaction",
                input_levels=list(ctx.input_levels),
                output_level=output,
            )
            if kind == "compaction"
            else nullcontext()
        )
        with span as open_span:
            metas = self._compactor.run(ctx, sources, self._next_file)
            written = sum(m.size_bytes for m in metas)
            if open_span is not None:
                open_span.set(output_bytes=written, output_files=len(metas))
        if kind == "flush":
            self.stats.bytes_flushed += written
            self._m_flush_bytes.inc(written)
        else:
            self.stats.compactions += 1
            self.stats.bytes_compacted += written
            self._m_compact_bytes.inc(written)
        for level in emptied:
            self._replace_run(level, [])
        # Install (and persist the manifest) only after the emptied
        # levels are reflected in the in-memory state.
        self._install_run(output, metas)

    def compact_level(self, level: int) -> None:
        """Merge level ``level`` into ``level + 1`` (authenticated in eLSM)."""
        with self._lock:
            run = self._levels.get(level)
            if run is None or run.is_empty:
                return
            self.compact_levels([level, level + 1])

    def compact_levels(self, levels: list[int]) -> None:
        """Merge several adjacent levels into the deepest of them.

        The paper's COMPACTION generalisation: "it is natural to extend
        it to more complicated cases such as merging more than two
        levels".  ``levels`` must be contiguous ascending level ids; the
        output replaces the deepest one and the rest become empty.
        """
        with self._lock:
            levels = sorted(levels)
            if len(levels) < 2:
                raise ValueError("need at least two levels to merge")
            if levels != list(range(levels[0], levels[-1] + 1)):
                raise ValueError("levels must be contiguous")
            sources: list[tuple[int, Iterable[Entry]]] = []
            for level in levels:
                run = self._levels.get(level)
                if run is not None and not run.is_empty:
                    sources.append((level, run.iter_entries(self.env)))
            if not sources:
                return
            output = levels[-1]
            self._merge_into(
                "compaction",
                sources,
                output,
                self._is_bottom(output),
                emptied=levels[:-1],
            )
            self.env.crash_point("compaction.after_install")
            self._commit("compaction")

    def _maybe_compact(self) -> None:
        """Cascade compactions while any level exceeds its capacity."""
        if not self.config.compaction_enabled:
            return
        level = 1
        while True:
            run = self._levels.get(level)
            if run is None:
                break
            if not run.is_empty and run.total_bytes > self._level_capacity(level):
                # An over-capacity deepest level spills into a brand-new
                # deeper level; that is how the tree grows with the data.
                self.compact_level(level)
            level += 1

    def _level_capacity(self, level: int) -> int:
        return self.config.level1_max_bytes * LEVEL_SIZE_RATIO ** (level - 1)

    def _is_bottom(self, level: int) -> bool:
        return all(
            idx <= level or run.is_empty for idx, run in self._levels.items()
        )

    # ------------------------------------------------------------------
    # Run installation & bookkeeping
    # ------------------------------------------------------------------
    def _next_file(self, level: int) -> tuple[str, int]:
        self._file_no += 1
        return (
            f"{self.name_prefix}/L{level}-{self._file_no:06d}.sst",
            self._file_no,
        )

    def _replace_run(self, level: int, metas: list[SSTableMeta]) -> None:
        # Superseded files are only *queued* for deletion here; they stay
        # on disk until _commit so a crash mid-install can still recover
        # the previous manifest's state.
        old = self._levels.get(level)
        if old is not None:
            for meta in old.tables:
                self.fetcher.invalidate_file(meta.name)
                self._pending_deletes.append(meta.name)
        self._levels[level] = LevelRun(level, metas)
        for listener in self.listeners:
            listener.on_level_replaced(level)

    def _install_run(self, level: int, metas: list[SSTableMeta]) -> None:
        self._replace_run(level, metas)
        self._account_meta()
        self._write_manifest()

    def _manifest_name(self, seq: int) -> str:
        return f"{self.name_prefix}/MANIFEST-{seq:06d}"

    def _write_manifest(self) -> None:
        """Persist the level -> files mapping as the *next* numbered
        manifest (LevelDB's MANIFEST, versioned so the previous one
        survives until commit)."""
        payload = {
            "file_no": self._file_no,
            "levels": {
                str(level): [
                    {"name": meta.name, "file_no": meta.file_no}
                    for meta in run.tables
                ]
                for level, run in self._levels.items()
            },
        }
        previous = self._manifest_seq
        self._manifest_seq += 1
        name = self._manifest_name(self._manifest_seq)
        self.env.crash_point("manifest.before_write")
        self.env.file_write(name, json.dumps(payload).encode())
        self.env.file_fsync(name)
        self.env.crash_point("manifest.after_write")
        if previous > 0:
            self._pending_deletes.append(self._manifest_name(previous))

    def _manifest_seqs_on_disk(self) -> list[int]:
        """Manifest sequence numbers present on disk, descending."""
        prefix = f"{self.name_prefix}/MANIFEST-"
        seqs = []
        for fname in self.env.file_list(prefix):
            suffix = fname[len(prefix):]
            if suffix.isdigit():
                seqs.append(int(suffix))
        return sorted(seqs, reverse=True)

    def load_manifest(self, seq: int | None = None) -> bool:
        """Rebuild the level structure from disk (store reopen).

        With ``seq``, loads exactly that manifest (sealed recovery names
        the manifest its registry covers); without, falls back over the
        manifests on disk newest-first, skipping torn or unparsable
        ones.  Returns True when a manifest was loaded.  SSTable
        metadata — block index, Bloom filters, MACs — is re-derived from
        the file bytes; the WAL is NOT replayed here (eLSM authenticates
        it first via its digest; see ELSMP2Store.recover_from_seal).
        """
        candidates = [seq] if seq is not None else self._manifest_seqs_on_disk()
        for candidate in candidates:
            name = self._manifest_name(candidate)
            if not self.env.file_exists(name):
                continue
            try:
                size = self.env.disk.size(name)
                payload = json.loads(self.env.file_read(name, 0, size))
                levels = {}
                for level_str, files in payload["levels"].items():
                    level = int(level_str)
                    metas = [
                        rebuild_meta(
                            self.env,
                            entry["name"],
                            level,
                            entry["file_no"],
                            block_bytes=self.config.block_bytes,
                            bloom_bits_per_key=BLOOM_BITS_PER_KEY,
                            protect=self.config.protect_files,
                            compress=self.config.compression,
                            bloom_salt=self.config.bloom_salt,
                        )
                        for entry in files
                    ]
                    levels[level] = LevelRun(level, metas)
            except (OSError, ValueError, KeyError):
                if seq is not None:
                    raise
                continue
            self._file_no = payload["file_no"]
            self._levels = levels
            self._manifest_seq = candidate
            self._account_meta()
            return True
        return False

    def reset_levels(self) -> None:
        """Forget every on-disk level (recovery adopting a sealed state
        that predates the first manifest).  The constructor's eager
        ``load_manifest()`` may have picked up an *uncommitted* manifest;
        the orphaned files it referenced are reaped by
        :meth:`cleanup_orphans`."""
        for run in self._levels.values():
            for meta in run.tables:
                self.fetcher.invalidate_file(meta.name)
        self._levels = {}
        self._manifest_seq = 0
        self._account_meta()

    def cleanup_orphans(self) -> list[str]:
        """Delete files under this store's prefix that the current
        manifest does not reference: half-written compaction outputs,
        superseded manifests, and stale WAL epochs.

        Only safe once recovery has decided which manifest and WAL epoch
        are authoritative — never called from the constructor, because a
        sealed state may name an *older* manifest than the newest on
        disk.  Returns the deleted names.
        """
        live = {
            meta.name for run in self._levels.values() for meta in run.tables
        }
        current_manifest = self._manifest_name(self._manifest_seq)
        manifest_prefix = f"{self.name_prefix}/MANIFEST-"
        removed = []
        for name in self.env.file_list(f"{self.name_prefix}/"):
            if name.endswith(".sst") and name not in live:
                self.fetcher.invalidate_file(name)
                self.env.file_delete(name)
                removed.append(name)
            elif name.startswith(manifest_prefix) and name != current_manifest:
                self.env.file_delete(name)
                removed.append(name)
        removed.extend(self.wal.drop_other_epochs())
        self._pending_deletes = []
        return removed

    def _account_meta(self) -> None:
        """Re-account the enclave footprint of indexes and Bloom filters."""
        total = sum(
            meta.meta_bytes()
            for run in self._levels.values()
            for meta in run.tables
        )
        delta = total - self._meta_bytes
        if delta > 0:
            self.env.meta_grow(_TABLE_META_REGION, delta)
        elif delta < 0:
            if self.env.enclave is not None:
                self.env.enclave.shrink(_TABLE_META_REGION, -delta)
        self._meta_bytes = total
