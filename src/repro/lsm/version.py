"""Level manifest: sorted runs of SSTables and navigation within them.

Following the paper's formulation, every level ``L_i`` (i >= 1) holds one
sorted run — possibly split across several SSTable files, but globally
ordered by (key asc, ts desc) with no key group spanning a file boundary
(the compactor guarantees that).  :class:`LevelRun` provides the three
access patterns the system needs:

* ``lookup`` — a key's whole version group plus its *neighbour* entries
  (the newest records of the adjacent keys), which is exactly what a
  Merkle non-membership proof must exhibit;
* ``range_entries`` — all entries in a key range plus both neighbours,
  feeding SCAN completeness proofs;
* ``iter_entries`` — sequential scan for flush, compaction, audit and
  snapshots: each table is read with one file read (one OCall inside an
  enclave) and decoded block by block, bypassing the read buffer.

``lookup``, ``get_group`` and ``range_entries`` are one walk of a
:class:`_RunCursor`, which owns block residency for the operation: each
data block is fetched at most once, blocks are stepped over using only
the block index, and neighbours are resolved only when a caller asks for
them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import cached_property
from typing import Iterator

from repro.lsm.sstable import (
    BlockFetcher,
    Entry,
    ScopedBlockCache,
    SSTableMeta,
    read_table_sequential,
)
from repro.sgx.env import ExecutionEnv


class LookupResult:
    """Outcome of a walk over one level: a key's group or a range's entries.

    ``group`` holds the entries found (for a point lookup: all versions of
    the key, newest first).  ``left`` is the newest entry of the greatest
    key below them and ``right`` the newest entry of the smallest key
    above; both are resolved on first access, so a membership proof, which
    never reads them, never fetches a block only they live in.  A result
    reads through its operation's block scope, so like
    :class:`~repro.lsm.sstable.ScopedBlockCache` it must not outlive the
    operation that created it.
    """

    def __init__(
        self,
        group: list[Entry],
        cursor: _RunCursor,
        start: _Position | None,
        after: _Position | None,
    ) -> None:
        self.group = group
        self._cursor = cursor
        self._start = start
        self._after = after

    @cached_property
    def left(self) -> Entry | None:
        """Newest entry of the greatest key below the group."""
        return self._cursor.newest_before(self._start)

    @cached_property
    def right(self) -> Entry | None:
        """Newest entry of the smallest key above the group."""
        return self._cursor.entry(self._after)


class LevelRun:
    """One level's sorted run of SSTables."""

    def __init__(self, level: int, tables: list[SSTableMeta]) -> None:
        self.level = level
        self.tables = sorted(tables, key=lambda t: t.min_key)
        for prev, cur in zip(self.tables, self.tables[1:]):
            if prev.max_key >= cur.min_key:
                raise ValueError(
                    f"overlapping tables in level {level}: "
                    f"{prev.name} and {cur.name}"
                )
        self._max_keys = [t.max_key for t in self.tables]

    @property
    def total_bytes(self) -> int:
        return sum(t.size_bytes for t in self.tables)

    @property
    def record_count(self) -> int:
        return sum(t.record_count for t in self.tables)

    @property
    def is_empty(self) -> bool:
        return not self.tables

    @property
    def min_key(self) -> bytes | None:
        return self.tables[0].min_key if self.tables else None

    @property
    def max_key(self) -> bytes | None:
        return self.tables[-1].max_key if self.tables else None

    def may_contain(self, key: bytes) -> bool:
        """Trusted-metadata pre-check: key range plus per-table Bloom."""
        table_index = self._table_for_key(key)
        if table_index is None:
            return False
        meta = self.tables[table_index]
        if key < meta.min_key:
            return False
        return meta.bloom.may_contain(key)

    def _table_for_key(self, key: bytes) -> int | None:
        index = bisect_left(self._max_keys, key)
        if index >= len(self.tables):
            return None
        return index

    # ------------------------------------------------------------------
    # Cursor-based navigation
    # ------------------------------------------------------------------
    def lookup(self, fetcher: BlockFetcher, key: bytes) -> LookupResult:
        """Find a key's version group; its neighbours resolve on access."""
        return self._walk(fetcher, key, key)

    def get_group(self, fetcher: BlockFetcher, key: bytes) -> list[Entry]:
        """Just the version group of ``key`` (no neighbours), newest first."""
        return self._walk(fetcher, key, key).group

    def range_entries(
        self, fetcher: BlockFetcher, lo: bytes, hi: bytes
    ) -> tuple[Entry | None, list[Entry], Entry | None]:
        """All entries with lo <= key <= hi, plus both neighbours."""
        if lo > hi:
            raise ValueError("empty range")
        window = self._walk(fetcher, lo, hi)
        return window.left, window.group, window.right

    def _walk(self, fetcher: BlockFetcher, lo: bytes, hi: bytes) -> LookupResult:
        """The one walk behind every lookup: entries with lo <= key <= hi.

        ``fetcher`` is a bare :class:`BlockFetcher` or a MULTIGET's
        :class:`ScopedBlockCache`, which the cursor joins.
        """
        cursor = _RunCursor(self, fetcher)
        start = cursor.seek(lo)
        entries, after = cursor.collect(start, hi)
        return LookupResult(entries, cursor, start, after)

    def iter_entries(self, env: ExecutionEnv) -> Iterator[Entry]:
        """Sequential scan for compaction: one read per table, no read buffer."""
        for meta in self.tables:
            yield from read_table_sequential(env, meta)


_Position = tuple[int, int, int]  # (table index, block index, entry index)


def _entry_key(entry: Entry) -> bytes:
    return entry[0].key


class _RunCursor:
    """Navigates a level run entry by entry across blocks and files.

    The cursor owns block residency for its operation: handed a bare
    fetcher it wraps it in a :class:`ScopedBlockCache`, handed a MULTIGET
    scope it joins that scope, so every block is fetched — and its access
    cost charged — at most once however often the walk returns to it.
    Moving between blocks reads only the block index (``first_key`` /
    ``last_key``), never a block the answer does not contain.
    """

    def __init__(self, run: LevelRun, fetcher: BlockFetcher | ScopedBlockCache) -> None:
        self.run = run
        self.tables = run.tables
        if not isinstance(fetcher, ScopedBlockCache):
            fetcher = ScopedBlockCache(fetcher)
        self.blocks = fetcher

    def _block_entries(self, table: int, block: int) -> list[Entry]:
        meta = self.tables[table]
        return self.blocks.read_block(meta, meta.handles[block]).entries

    def entry(self, position: _Position | None) -> Entry | None:
        if position is None:
            return None
        table, block, index = position
        return self._block_entries(table, block)[index]

    def seek(self, key: bytes) -> _Position | None:
        """Position of the first entry with entry.key >= key."""
        table = self.run._table_for_key(key)
        if table is None:
            return None
        return self._seek_in_table(table, key)

    def _seek_in_table(self, table: int, key: bytes) -> _Position:
        # key <= the table's max key, so the first block whose last key is
        # >= key exists and holds the entry.
        block = self.tables[table].block_for_key(key)
        assert block is not None
        entries = self._block_entries(table, block)
        return (table, block, bisect_left(entries, key, key=_entry_key))

    def _next_block(self, table: int, block: int) -> _Position | None:
        """First position after the last entry of ``(table, block)``."""
        if block + 1 < len(self.tables[table].handles):
            return (table, block + 1, 0)
        if table + 1 < len(self.tables):
            return (table + 1, 0, 0)
        return None

    def collect(
        self, position: _Position | None, hi: bytes
    ) -> tuple[list[Entry], _Position | None]:
        """Entries from ``position`` while key <= hi, and the position after.

        A block whose first key is already past ``hi`` is never fetched.
        """
        entries: list[Entry] = []
        while position is not None:
            table, block, index = position
            if index == 0 and self.tables[table].handles[block].first_key > hi:
                break
            block_entries = self._block_entries(table, block)
            end = bisect_right(block_entries, hi, lo=index, key=_entry_key)
            entries.extend(block_entries[index:end])
            if end < len(block_entries):
                return entries, (table, block, end)
            position = self._next_block(table, block)
        return entries, position

    def newest_before(self, position: _Position | None) -> Entry | None:
        """Newest entry of the key group just before ``position``.

        ``None`` as ``position`` means past the run's end.  The group's key
        comes from the resident block or the block index, and since no
        group spans a file boundary its newest entry is one seek away.
        """
        if position is None:
            if not self.tables:
                return None
            table = len(self.tables) - 1
            key = self.tables[table].max_key
        else:
            table, block, index = position
            if index > 0:
                key = self._block_entries(table, block)[index - 1][0].key
            elif block > 0:
                key = self.tables[table].handles[block - 1].last_key
            elif table > 0:
                table -= 1
                key = self.tables[table].max_key
            else:
                return None
        return self.entry(self._seek_in_table(table, key))
