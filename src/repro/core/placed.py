"""The placed-store shell: the paper's Table 1 as one class.

Every LSM-backed store in the paper is the same vanilla engine placed
differently.  A placement is three facts, declared as class attributes
by each named store:

* ``enclave_name`` — the enclave the code runs in (None: no enclave, so
  operations pay no ECalls and files no OCalls);
* ``buffer_location`` — whether the read buffer lives in the enclave or
  in untrusted memory;
* ``protect_files`` — SDK-style per-block encryption + MAC of SSTables.

The shell owns everything that does not depend on authentication:
construction of the simulated machine and the engine, the timestamp
manager, the operation lock, the plain (unverified) operations,
maintenance, WAL-replay recovery and the placement half of ``report()``.
eLSM-P2 subclasses it and overrides what authentication changes.
"""

from __future__ import annotations

import threading

from repro.lsm.cache import LOCATION_UNTRUSTED
from repro.lsm.db import LSMConfig, LSMStore
from repro.lsm.records import parse_write_ops
from repro.sgx.enclave import Enclave
from repro.sgx.env import ExecutionEnv
from repro.sim.clock import SimClock
from repro.sim.costs import DEFAULT_COSTS, CostModel
from repro.sim.disk import SimDisk
from repro.sim.scale import MB, ScaleConfig


class PlacedStore:
    """An LSM store at one Table-1 placement, with no authentication."""

    enclave_name: str | None = None
    buffer_location: str = LOCATION_UNTRUSTED
    protect_files: bool = False

    def __init__(
        self,
        *,
        scale: ScaleConfig | None = None,
        costs: CostModel = DEFAULT_COSTS,
        clock: SimClock | None = None,
        disk: SimDisk | None = None,
        read_mode: str = "mmap",
        read_buffer_bytes: int | None = None,
        write_buffer_bytes: int | None = None,
        level1_max_bytes: int | None = None,
        file_max_bytes: int | None = None,
        block_bytes: int = 4096,
        use_bloom: bool = True,
        compaction: bool = True,
        compression: bool = False,
        wal_sync_every: int | None = None,
        max_immutable_memtables: int = 0,
        reopen: bool = False,
        name_prefix: str,
    ) -> None:
        self.scale = scale or ScaleConfig()
        self.costs = costs
        self.clock = clock or SimClock()
        self.disk = disk or SimDisk(
            self.clock, costs, cache_bytes=self.scale.ram_bytes
        )
        self.enclave: Enclave | None = (
            Enclave(self.clock, costs, self.scale.epc_bytes, name=self.enclave_name)
            if self.enclave_name is not None
            else None
        )
        self.env = ExecutionEnv(self.clock, costs, self.disk, enclave=self.enclave)
        self.telemetry = self.env.telemetry
        config = LSMConfig(
            write_buffer_bytes=write_buffer_bytes
            or max(self.scale.scale_bytes(4 * MB), 8 * 1024),
            block_bytes=block_bytes,
            use_bloom=use_bloom,
            level1_max_bytes=level1_max_bytes
            or max(self.scale.scale_bytes(10 * MB), 32 * 1024),
            file_max_bytes=file_max_bytes
            or max(self.scale.scale_bytes(2 * MB), 16 * 1024),
            read_mode=read_mode,
            read_buffer_bytes=read_buffer_bytes or self.scale.scale_bytes(64 * MB),
            buffer_location=self.buffer_location,
            protect_files=self.protect_files,
            compression=compression,
            compaction_enabled=compaction,
            wal_sync_every=wal_sync_every,
            max_immutable_memtables=max_immutable_memtables,
        )
        self.db = LSMStore(
            self.env,
            config,
            listeners=self._before_engine(config),
            name_prefix=name_prefix,
            reopen=reopen,
        )
        self._ts = 0
        # The in-enclave mutex guarding concurrent operations (5.5.2).
        self._op_lock = threading.RLock()

    def _before_engine(self, config: LSMConfig) -> list:
        """Build what the engine is built with; returns its listeners."""
        return []

    # ------------------------------------------------------------------
    # Timestamp manager (runs in the enclave)
    # ------------------------------------------------------------------
    def _next_ts(self) -> int:
        self._ts += 1
        return self._ts

    @property
    def current_ts(self) -> int:
        return self._ts

    # ------------------------------------------------------------------
    # Plain operations: the placement alone protects them
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> int:
        """PUT(k, v) -> ts, unverified."""
        with self._op_lock, self.telemetry.span("elsm.put"), self.env.op_call(
            "put", in_bytes=len(key) + len(value)
        ):
            ts = self._next_ts()
            self.db.put(key, value, ts)
            return ts

    def delete(self, key: bytes) -> int:
        """DELETE(k) -> ts: a tombstone write."""
        with self._op_lock, self.telemetry.span("elsm.delete"), self.env.op_call(
            "delete", in_bytes=len(key)
        ):
            ts = self._next_ts()
            self.db.delete(key, ts)
            return ts

    def group_commit(self, ops) -> list[int]:
        """One call, one WAL write, one fsync for a group of
        ``("put", key, value)`` / ``("delete", key)`` ops (same contract
        as :meth:`repro.core.store_p2.ELSMP2Store.group_commit`)."""
        encoded = parse_write_ops(ops)
        total_bytes = sum(len(key) + len(value) for _, key, value in encoded)
        with self._op_lock, self.telemetry.span(
            "elsm.group_commit"
        ), self.env.op_call("group_commit", in_bytes=total_bytes):
            stamps = [self._next_ts() for _ in encoded]
            return self.db.commit_group(encoded, stamps=stamps)

    def get(self, key: bytes, ts_query: int | None = None) -> bytes | None:
        """GET(k, tsq); ``None`` reads the newest version.  Unverified."""
        with self._op_lock, self.telemetry.span("elsm.get"), self.env.op_call(
            "get", in_bytes=len(key)
        ):
            return self.db.get(key, ts_query)

    def scan(
        self, lo: bytes, hi: bytes, ts_query: int | None = None
    ) -> list[tuple[bytes, bytes]]:
        """SCAN(k1, k2, tsq); completeness is not verified."""
        with self._op_lock, self.telemetry.span("elsm.scan"), self.env.op_call(
            "scan", in_bytes=len(lo) + len(hi)
        ):
            return [(r.key, r.value) for r in self.db.scan(lo, hi, ts_query)]

    # ------------------------------------------------------------------
    # Maintenance and recovery
    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Flush the MemTable into level 1."""
        self.db.flush()

    def health(self) -> dict:
        """Graded health (``ok`` / ``overloaded`` / ``degraded``)."""
        return self.db.health()

    def recover(self) -> int:
        """Replay the WAL after a reopen and restore the timestamp clock.

        There is no sealed trusted state to check against: the restart
        trust model is exactly what the disk says (see
        tests/core/test_p1_persistence.py for the consequences).
        """
        replayed = self.db.recover()
        self._ts = max(self._ts, self.db.last_ts)
        return replayed

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _level_report(self, level: int) -> dict:
        run = self.db.level_run(level)
        return {"files": len(run.tables), "bytes": run.total_bytes}

    def report(self) -> dict:
        """An operational snapshot: the placement-cost keys every store
        shares, read back from the telemetry registry (so a
        ``--metrics-out`` dump and this report never disagree).  The
        enclave keys are omitted when the store runs in no enclave."""
        metrics = self.telemetry.metrics

        def total(name: str, *labels: str) -> int:
            return int(metrics.counter(name, labels=labels).total())

        enclave = {}
        if self.enclave is not None:
            enclave = {
                "enclave_bytes": self.enclave.total_bytes(),
                "epc_bytes": self.enclave.epc_bytes,
                "epc_faults": self.enclave.pager.fault_count,
                "dirty_evictions": self.enclave.pager.evicted_dirty_count,
            }
        stats = self.db.stats
        return {
            "timestamp": self._ts,
            "health": self.db.health(),
            "wal_sync_every": self.db.config.wal_sync_every,
            "levels": {
                level: self._level_report(level)
                for level in self.db.level_indices()
            },
            "memtable_records": self.db.mem_records(),
            "immutable_memtables": len(self.db.immutables),
            "memtable_rotations": total("lsm.memtable.rotations"),
            "group_commits": total("lsm.group_commit.groups"),
            "background_flush_us": metrics.counter(
                "lsm.flush.background_us"
            ).total(),
            **enclave,
            "ecalls": total("enclave.ecalls", "call"),
            "ocalls": total("enclave.ocalls", "call"),
            "boundary_copy_bytes": total("enclave.copy.bytes", "dir"),
            "flushes": stats.flushes,
            "compactions": stats.compactions,
            "bytes_flushed": total("lsm.flush.bytes"),
            "bytes_compacted": total("lsm.compaction.bytes"),
            "user_bytes_written": stats.user_bytes_written,
            "write_amplification": stats.write_amplification(),
            "wal_appends": total("wal.appends"),
            "wal_bytes": total("wal.bytes"),
            "cache_hits": total("cache.hits", "region"),
            "cache_misses": total("cache.misses", "region"),
            "disk_bytes": self.disk.total_bytes(),
            "simulated_us": self.clock.now_us,
            "cost_breakdown_us": self.clock.breakdown(),
            "spans_dropped": self.telemetry.tracer.dropped,
            "events_dropped": self.telemetry.events.dropped,
        }
