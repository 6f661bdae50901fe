"""A from-scratch LSM-tree storage engine (the paper's "vanilla LSM store").

Modelled on LevelDB/RocksDB: a skip-list MemTable in front of a
write-ahead log, leveled SSTables with block indexes and Bloom filters,
full-level merge compaction, and — crucially for eLSM — a RocksDB-style
:class:`~repro.lsm.events.EventListener` interface exposing ``Filter()``
and ``OnTableFileCreated()`` so authentication can be layered on *without
modifying the engine* (Section 5.5.3).
"""

from repro.lsm.records import KIND_DELETE, KIND_PUT, Record, decode_record, encode_record
from repro.lsm.db import LSMConfig, LSMStore
from repro.lsm.background import BackgroundFlusher
from repro.lsm.events import CompactionContext, EventListener

__all__ = [
    "Record",
    "KIND_PUT",
    "KIND_DELETE",
    "encode_record",
    "decode_record",
    "LSMStore",
    "LSMConfig",
    "BackgroundFlusher",
    "EventListener",
    "CompactionContext",
]
