"""Write-ahead log.

Every PUT/DELETE is appended to the WAL before entering the MemTable, so
buffered writes survive a crash.  In eLSM the WAL *file* lives outside
the enclave (untrusted) while the enclave keeps a running hash digest of
it — the listener hook :meth:`~repro.lsm.events.EventListener.on_wal_append`
is where eLSM attaches that digest.

Entries are length-prefixed with a CRC32, and replay stops at the first
torn or corrupt entry (LevelDB's recovery semantics) — recording what it
dropped in the ``wal.replay_dropped_*`` telemetry counters and a
structured warning, so silent data loss is visible to operators.

The log is a sequence of numbered *epoch* files (``<base>.000001``,
``<base>.000002``, ...).  A flush does not truncate in place — it
creates the next epoch, switches appends over, and only then deletes the
old file, so there is no crash window in which the tail of the log
exists nowhere on disk.
"""

from __future__ import annotations

import logging
import struct
import zlib
from typing import Iterator

from repro.lsm.records import Record, decode_record, encode_record
from repro.sgx.env import ExecutionEnv

_ENTRY_HEADER = struct.Struct("<II")  # payload length, crc32

logger = logging.getLogger("repro.lsm.wal")


def _frame(record: Record) -> bytes:
    """One log entry: length + CRC32 header, then the encoded record."""
    payload = encode_record(record)
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return _ENTRY_HEADER.pack(len(payload), crc) + payload


class WriteAheadLog:
    """Append-only log of recent writes on the (untrusted) disk."""

    def __init__(self, env: ExecutionEnv, name: str, sync_every: int = 64) -> None:
        self.env = env
        self.name = name  # base name; epoch files are f"{name}.{epoch:06d}"
        self.sync_every = sync_every
        self._appends_since_sync = 0
        #: Timestamp of the last appended / last fsync-covered record.
        self._appended_ts = 0
        self._durable_ts = 0
        self._m_appends = env.telemetry.counter(
            "wal.appends", "records appended to the write-ahead log"
        )
        self._m_bytes = env.telemetry.counter(
            "wal.bytes", "bytes appended to the write-ahead log"
        )
        self._m_syncs = env.telemetry.counter(
            "wal.syncs", "fsyncs issued for the write-ahead log"
        )
        self._m_dropped_bytes = env.telemetry.counter(
            "wal.replay_dropped_bytes",
            "bytes discarded by replay as torn or corrupt",
        )
        self._m_dropped_entries = env.telemetry.counter(
            "wal.replay_dropped_entries",
            "log entries discarded by replay as torn or corrupt",
        )
        #: Called after every completed fsync (eLSM piggybacks sealing
        #: of the trusted state onto the durability boundary).
        self.on_sync = None
        existing = self.env.file_seqs(self.name + ".")
        if existing:
            self.epoch = existing[-1]
        else:
            self.epoch = 1
            env.file_create(self.path)
            env.file_fsync(self.path)

    # ------------------------------------------------------------------
    # Epoch bookkeeping
    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        """The current epoch's file name."""
        return self._epoch_path(self.epoch)

    def _epoch_path(self, epoch: int) -> str:
        return f"{self.name}.{epoch:06d}"

    @property
    def durable_ts(self) -> int:
        """Largest record timestamp covered by a completed fsync."""
        return self._durable_ts

    @property
    def has_unsynced(self) -> bool:
        """Records appended since the last completed fsync exist."""
        return self._appends_since_sync > 0

    def advance_epoch(self) -> str:
        """Open epoch N+1 and switch appends to it; returns the *old*
        epoch's file name, which the caller deletes only after its
        contents are durable elsewhere (flushed SSTables + manifest).

        Unlike a delete-then-recreate truncation there is no window in
        which a crash leaves no log at all: both epochs coexist until
        the caller commits.
        """
        old_path = self.path
        self.epoch += 1
        self.env.file_create(self.path)
        self.env.file_fsync(self.path)
        self.env.crash_point("wal.epoch.after_create")
        self._appends_since_sync = 0
        return old_path

    def set_epoch(self, epoch: int) -> None:
        """Adopt a specific epoch (recovery from a sealed state names
        the epoch its WAL digest covers)."""
        self.epoch = epoch
        if not self.env.file_exists(self.path):
            # The epoch file was created but its directory entry did not
            # survive the crash; recovery proceeds with an empty log.
            self.env.file_create(self.path)
        self._appends_since_sync = 0

    def drop_other_epochs(self) -> list[str]:
        """Delete every epoch file except the current one.

        Only safe once recovery has decided which epoch is authoritative;
        returns the deleted names.
        """
        dropped = []
        for epoch in self.env.file_seqs(self.name + "."):
            if epoch != self.epoch:
                self.env.file_delete(self._epoch_path(epoch))
                dropped.append(self._epoch_path(epoch))
        return dropped

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def append(self, record: Record) -> None:
        """Append one record; fsyncs every ``sync_every`` appends."""
        entry = _frame(record)
        self._m_appends.inc()
        self._m_bytes.inc(len(entry))
        self.env.crash_point("wal.append.before_write")
        self.env.file_append(self.path, entry)
        self.env.crash_point("wal.append.after_write")
        self._appended_ts = max(self._appended_ts, record.ts)
        self._appends_since_sync += 1
        if self._appends_since_sync >= self.sync_every:
            self.sync()

    def append_group(self, records: list[Record]) -> None:
        """Group commit: append many records as ONE disk write, then
        fsync once.

        Each record keeps its own length+CRC frame, so :meth:`replay`
        needs no group awareness — a torn group simply replays as a
        shorter prefix of intact frames (and authenticated recovery then
        discards any unsealed tail).  Completion of the trailing
        :meth:`sync` is the whole group's durability boundary: a group
        is acknowledged all-or-nothing.
        """
        if not records:
            return
        chunks = [_frame(record) for record in records]
        entry = b"".join(chunks)
        self._m_appends.inc(len(records))
        self._m_bytes.inc(len(entry))
        self.env.crash_point("wal.group.before_write")
        self.env.file_append(self.path, entry)
        self.env.crash_point("wal.group.after_write")
        self._appended_ts = max(
            self._appended_ts, max(record.ts for record in records)
        )
        self._appends_since_sync += len(records)
        self.sync()

    def sync(self) -> None:
        """fsync the log now and reset the cadence counter.

        Completion of this call is the durability boundary: records
        appended before it survive power loss, later ones may not.
        """
        self._m_syncs.inc()
        self.env.crash_point("wal.sync.before_fsync")
        self.env.file_fsync(self.path)
        self.env.crash_point("wal.sync.after_fsync")
        self._appends_since_sync = 0
        self._durable_ts = self._appended_ts
        if self.on_sync is not None:
            self.on_sync()

    def truncate_to(self, offset: int) -> None:
        """Physically cut the log at ``offset`` (recovery discards an
        unauthenticated or torn tail so future appends extend a prefix
        the enclave's digest actually covers)."""
        self.env.file_truncate(self.path, offset)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self) -> Iterator[Record]:
        """Yield all intact records; stops at the first corrupt entry."""
        for record, _end in self.replay_entries():
            yield record

    def replay_entries(self) -> Iterator[tuple[Record, int]]:
        """Yield ``(record, end_offset)`` for every intact entry.

        Stops at the first torn or corrupt entry, counts what it dropped
        in telemetry, and emits a structured warning — replay never
        silently discards data.
        """
        size = self.env.disk.size(self.path)
        offset = 0
        entries = 0
        while offset + _ENTRY_HEADER.size <= size:
            header = self.env.file_read(self.path, offset, _ENTRY_HEADER.size)
            length, crc = _ENTRY_HEADER.unpack(header)
            if offset + _ENTRY_HEADER.size + length > size:
                self._record_dropped(offset, size, entries, "torn tail")
                return
            payload = self.env.file_read(
                self.path, offset + _ENTRY_HEADER.size, length
            )
            if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                self._record_dropped(offset, size, entries, "CRC mismatch")
                return
            offset += _ENTRY_HEADER.size + length
            entries += 1
            record, _ = decode_record(payload)
            yield record, offset
        if offset < size:
            self._record_dropped(offset, size, entries, "truncated header")

    def _record_dropped(
        self, offset: int, size: int, intact: int, reason: str
    ) -> None:
        dropped = size - offset
        self._m_dropped_bytes.inc(dropped)
        self._m_dropped_entries.inc()
        self.env.telemetry.emit(
            "wal.replay.truncated",
            file=self.path,
            reason=reason,
            dropped_bytes=dropped,
            intact_entries=intact,
        )
        logger.warning(
            "wal replay dropped tail: file=%s reason=%s offset=%d "
            "dropped_bytes=%d intact_entries=%d",
            self.path, reason, offset, dropped, intact,
        )
