"""Merge compaction with listener hooks.

``Compactor.run`` merges any number of sorted input sources (the
MemTable and/or level runs) into one new sorted run, firing the listener
events eLSM's authenticated COMPACTION hangs off.  Guarantees:

* output is strictly sorted by (key asc, ts desc);
* a key's version group never spans an output *file* boundary (so the
  prover can always serve a whole hash chain from one file);
* tombstone GC matches LevelDB: records older than a tombstone among the
  merge inputs are dropped with it, and the tombstone itself is dropped
  only when the output is the bottom level;
* every other version survives: the paper's per-key hash chains need
  the whole version history.

A merge writes nothing: its output tables are built in memory, and the
caller either writes them (``write_table``) or hands the output records
on to the next merge of a compaction chain (``LSMStore._merge_into``).
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator

from repro.lsm.events import CompactionContext, EventListener
from repro.lsm.records import Record
from repro.lsm.sstable import BuiltTable, Entry, SSTableBuilder
from repro.sgx.env import ExecutionEnv


class Compactor:
    """Stateless merge executor; configuration comes from the store."""

    def __init__(
        self,
        env: ExecutionEnv,
        listeners: list[EventListener],
        block_bytes: int,
        file_max_bytes: int,
        bloom_bits_per_key: int,
        protect_files: bool = False,
        compression: bool = False,
        bloom_salt_provider: Callable[[], bytes] | None = None,
    ) -> None:
        self.env = env
        self.listeners = listeners
        self.block_bytes = block_bytes
        self.file_max_bytes = file_max_bytes
        self.bloom_bits_per_key = bloom_bits_per_key
        self.protect_files = protect_files
        self.compression = compression
        # Read lazily so a salt restored after construction (seal
        # recovery) reaches every file this compactor builds.
        self.bloom_salt_provider = bloom_salt_provider or (lambda: b"")

    def run(
        self,
        ctx: CompactionContext,
        sources: list[tuple[int, Iterable[Entry]]],
        file_namer,
    ) -> tuple[list[Record], list[BuiltTable]]:
        """Merge ``sources`` and build the output run's tables in memory.

        ``sources`` are (level_id, sorted entries) pairs; ``file_namer``
        maps a fresh file number to a file name and is called once per
        output table.  Returns the output records and the built tables;
        no file is written.
        """
        for listener in self.listeners:
            listener.on_compaction_begin(ctx)
        output = list(self._merged_output(ctx, sources))
        for listener in self.listeners:
            listener.on_compaction_finish(ctx)
        return output, self._build_tables(ctx, output, file_namer)

    # ------------------------------------------------------------------
    def _merged_output(
        self,
        ctx: CompactionContext,
        sources: list[tuple[int, Iterable[Entry]]],
    ) -> Iterator[Record]:
        """Yield surviving output records in sorted order."""

        def tagged(level_id: int, entries: Iterable[Entry]):
            for record, _aux in entries:
                yield (record.sort_key(), level_id, record)

        merged = heapq.merge(*(tagged(lvl, it) for lvl, it in sources))
        current_key: bytes | None = None
        deleted_at: int | None = None  # ts of the governing tombstone
        for _, level_id, record in merged:
            for listener in self.listeners:
                listener.on_compaction_input_record(ctx, level_id, record)
            if record.key != current_key:
                current_key = record.key
                deleted_at = None
            if deleted_at is not None and record.ts < deleted_at:
                continue  # shadowed by a newer tombstone in this merge
            if record.is_tombstone:
                deleted_at = record.ts
                if ctx.is_bottom_level:
                    continue  # tombstone has done its job; drop it
            for listener in self.listeners:
                listener.on_compaction_output_record(ctx, record)
            yield record

    def _build_tables(
        self,
        ctx: CompactionContext,
        records: list[Record],
        file_namer,
    ) -> list[BuiltTable]:
        """Pack output records into tables, never splitting a key group."""
        tables: list[BuiltTable] = []
        chunk: list[Record] = []
        chunk_bytes = 0
        for index, record in enumerate(records):
            chunk.append(record)
            chunk_bytes += record.approximate_bytes()
            next_key = records[index + 1].key if index + 1 < len(records) else None
            if chunk_bytes >= self.file_max_bytes and next_key != record.key:
                tables.append(self._build_table(ctx, chunk, file_namer))
                chunk, chunk_bytes = [], 0
        if chunk:
            tables.append(self._build_table(ctx, chunk, file_namer))
        return tables

    def _build_table(
        self,
        ctx: CompactionContext,
        records: list[Record],
        file_namer,
    ) -> BuiltTable:
        # Tables are built before any of them is written, so a crash
        # here leaves nothing of this merge on disk.
        self.env.crash_point("compactor.before_file")
        entries: list[Entry] = [(record, b"") for record in records]
        for listener in self.listeners:
            entries = listener.on_table_file_created(ctx, entries)
        name, file_no = file_namer(ctx.output_level)
        builder = SSTableBuilder(
            self.env,
            name,
            level=ctx.output_level,
            file_no=file_no,
            block_bytes=self.block_bytes,
            bloom_bits_per_key=self.bloom_bits_per_key,
            protect=self.protect_files,
            compress=self.compression,
            bloom_salt=self.bloom_salt_provider(),
        )
        for record, aux in entries:
            builder.add(record, aux)
        return builder.build()
