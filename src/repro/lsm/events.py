"""RocksDB-style event listeners.

Section 5.5.3: RocksDB exposes callbacks through which applications can
listen to internal events, and eLSM is implemented purely as handlers for
them — no engine changes.  We expose the same surface:

* ``on_compaction_output_record`` is the paper's ``Filter()`` event,
  fired for every record a compaction or flush produces;
* ``on_table_file_created`` is ``OnTableFileCreated()``, fired per output
  file and allowed to rewrite the entries' ``aux`` annotations (the
  embedded proofs);
* ``on_compaction_input_record`` feeds the authentication of compaction
  *inputs* (the paper's input MHT reconstruction);
* ``on_wal_append`` lets the enclave digest the WAL stream;
* ``on_compaction_finish`` is where input roots are checked and the new
  output root is computed;
* ``on_compaction_installed`` is where that root takes effect, once the
  merge's output is installed;
* ``on_level_inserted`` tracks level insertion so a digest registry
  can shadow the manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.lsm.records import Record
from repro.lsm.sstable import Entry


@dataclass
class CompactionContext:
    """Describes one flush or compaction to the listeners.

    ``input_levels`` uses 0 for the MemTable.  ``trusted_levels`` are the
    inputs whose bytes never left the enclave (the MemTable, and the
    output of the previous merge of a chain, ``held``): they need no
    integrity verification.
    """

    kind: str  # "flush" or "compaction"
    input_levels: list[int]
    output_level: int
    is_bottom_level: bool = False
    #: The previous merge of a compaction chain, whose output this merge
    #: takes from memory as its input ``held.output_level``.
    held: CompactionContext | None = None
    #: Listener scratch space (e.g. the eLSM digesters live here).
    state: dict[str, Any] = field(default_factory=dict)

    @property
    def trusted_levels(self) -> set[int]:
        held = self.held.output_level if self.held is not None else 0
        return {level for level in self.input_levels if level in (0, held)}


class EventListener:
    """Base listener with no-op hooks; subclass what you need."""

    def on_wal_append(self, record: Record) -> None:
        """A record is about to be appended to the write-ahead log."""

    def on_wal_reset(self) -> None:
        """The WAL was truncated after a successful flush."""

    def on_compaction_begin(self, ctx: CompactionContext) -> None:
        """A flush/compaction is starting."""

    def on_compaction_input_record(
        self, ctx: CompactionContext, level_id: int, record: Record
    ) -> None:
        """One input record was consumed from ``level_id``."""

    def on_compaction_output_record(
        self, ctx: CompactionContext, record: Record
    ) -> None:
        """The paper's Filter(): one record survived into the output."""

    def on_compaction_finish(self, ctx: CompactionContext) -> None:
        """All records merged; inputs may now be verified."""

    def on_compaction_installed(self, ctx: CompactionContext) -> None:
        """The merge's output now stands at ``ctx.output_level`` and its
        inputs are consumed; fired for each merge of a chain, in order,
        once the chain's tables are written."""

    def on_table_file_created(
        self, ctx: CompactionContext, entries: list[Entry]
    ) -> list[Entry]:
        """An output table is being built; may rewrite ``aux``."""
        return entries

    def on_level_inserted(self, level: int) -> None:
        """A new level was inserted at ``level`` (deeper levels shifted)."""
