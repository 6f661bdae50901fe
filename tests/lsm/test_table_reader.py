"""The sequential table reader behind flush, compaction, audit and snapshots.

``LevelRun.iter_entries`` reads each table with one file read (one OCall
inside an enclave) and walks its blocks in memory.  These tests hold it
to that I/O shape, to the entries and per-block charges of the cached
block path, and to block-ordered failure on a corrupt protected block.
"""

from __future__ import annotations

import pytest

from repro.core.audit import audit_store
from repro.core.digest import DigestRegistry
from repro.lsm.cache import ReadBuffer
from repro.lsm.records import Record
from repro.lsm.sstable import (
    BlockCorruptionError,
    BlockFetcher,
    SSTableBuilder,
    write_table,
)
from repro.lsm.version import LevelRun
from tests.conftest import kv, make_p1_store, make_p2_store

#: Charges the block walk makes per block, whichever path reads it.
_PER_BLOCK_CATEGORIES = ("crypto", "decompress", "hash")


def _ocalls(store, call: str) -> float:
    return store.telemetry.metrics.get("enclave.ocalls").value(call=call)


def _disk_reads(env) -> float:
    return env.telemetry.metrics.get("disk.ops").value(op="read")


def _stacked(store):
    """Four flushes with compaction off: one level per flush."""
    for i in range(200):
        store.put(*kv(i))
        if i % 50 == 49:
            store.flush()
    return store


def test_compaction_makes_one_read_ocall_per_input_table():
    store = _stacked(make_p2_store(compaction=False))
    db = store.db
    levels = db.level_indices()
    assert len(levels) >= 2
    inputs = levels[-2:]
    tables = sum(len(db.level_run(level).tables) for level in inputs)
    blocks = sum(
        len(meta.handles) for level in inputs for meta in db.level_run(level).tables
    )
    assert blocks > tables  # one read per block would show here

    before = _ocalls(store, "read")
    db.compact_levels(inputs)
    assert _ocalls(store, "read") - before == tables


def _table(env, name, file_no, keys, compress=False, protect=False):
    builder = SSTableBuilder(
        env, name, level=1, file_no=file_no, block_bytes=256,
        compress=compress, protect=protect,
    )
    for i in keys:
        builder.add(Record(key=b"key%05d" % i, ts=i + 1, value=b"v%d" % i * 8), b"aux%d" % i)
    return write_table(env, builder.build())


def _charged(env, read):
    """``read()``'s result, and the microseconds and number of charges it
    made in each per-block category."""
    clock = env.clock
    us, counts = clock.breakdown(), {c: clock.event_count(c) for c in _PER_BLOCK_CATEGORIES}
    result = read()
    after = clock.breakdown()
    return (
        result,
        {c: after.get(c, 0.0) - us.get(c, 0.0) for c in _PER_BLOCK_CATEGORIES},
        {c: clock.event_count(c) - counts[c] for c in _PER_BLOCK_CATEGORIES},
    )


@pytest.mark.parametrize(
    "flags",
    [{}, {"compress": True}, {"protect": True}],
    ids=["plain", "compressed", "protected"],
)
def test_iter_entries_matches_block_by_block_decoding(enclave_env, flags):
    env = enclave_env
    run = LevelRun(
        1,
        [
            _table(env, "run/a", 1, range(0, 60), **flags),
            _table(env, "run/b", 2, range(60, 130), **flags),
        ],
    )
    assert all(len(meta.handles) > 1 for meta in run.tables)

    fetcher = BlockFetcher(
        env,
        buffer=ReadBuffer(env, 256 * 1024, block_stride=256),
        protected=flags.get("protect", False),
    )
    expected, block_us, block_counts = _charged(
        env,
        lambda: [
            entry
            for meta in run.tables
            for handle in meta.handles
            for entry in fetcher.read_block(meta, handle).entries
        ],
    )
    reads_before = _disk_reads(env)
    entries, us, counts = _charged(env, lambda: list(run.iter_entries(env)))
    assert len(expected) == 130
    assert entries == expected
    assert counts == block_counts
    assert us == pytest.approx(block_us)
    assert _disk_reads(env) - reads_before == len(run.tables)


def test_corrupt_last_block_fails_compaction_and_audit_after_earlier_blocks():
    db = _stacked(make_p1_store(compaction=False)).db
    levels = db.level_indices()
    assert len(levels) >= 2
    level = levels[-1]
    run = db.level_run(level)
    meta = run.tables[0]
    last = meta.handles[-1]
    assert len(meta.handles) > 1 and last.mac is not None
    db.env.disk.open(meta.name).data[last.offset] ^= 0x01
    records_before_bad_block = sum(h.entry_count for h in meta.handles[:-1])

    report = audit_store(db, DigestRegistry())
    (level_report,) = [r for r in report.levels if r.level == level]
    assert not level_report.clean
    assert level_report.records == records_before_bad_block
    assert any(
        "level stream corrupt" in p and "failed its MAC check" in p
        for p in level_report.problems
    )

    with pytest.raises(BlockCorruptionError, match=f"{meta.name}@{last.offset}"):
        db.compact_levels(levels[-2:])
