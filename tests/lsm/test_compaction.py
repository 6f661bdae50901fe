"""Merge compaction: ordering, GC, file cuts, listener events."""

import pytest

from repro.lsm.compaction import Compactor
from repro.lsm.events import CompactionContext, EventListener
from repro.lsm.records import Record, tombstone
from repro.lsm.sstable import write_table


def entry(key, ts, value=b"v"):
    return (Record(key=key, ts=ts, value=value), b"")


def make_compactor(env, listeners=(), file_max=10_000):
    return Compactor(
        env,
        list(listeners),
        block_bytes=256,
        file_max_bytes=file_max,
        bloom_bits_per_key=10,
    )


def ctx(inputs=(0,), output=1, bottom=False):
    return CompactionContext(
        kind="compaction",
        input_levels=list(inputs),
        output_level=output,
        is_bottom_level=bottom,
    )


def namer(level):
    namer.count += 1
    return (f"c/L{level}-{namer.count}", namer.count)


namer.count = 0


def run_compaction(env, sources, **kw):
    bottom = kw.pop("bottom", False)
    listeners = kw.pop("listeners", ())
    compactor = make_compactor(env, listeners=listeners, **kw)
    context = ctx(inputs=[lvl for lvl, _ in sources], output=9, bottom=bottom)
    _, tables = compactor.run(context, sources, namer)
    metas = [write_table(env, table) for table in tables]
    out = []
    for meta in metas:
        for handle in meta.handles:
            raw = env.file_read(meta.name, handle.offset, handle.length)
            from repro.lsm.sstable import decode_entry

            offset = 0
            while offset < len(raw):
                (record, _), offset = decode_entry(raw, offset)
                out.append(record)
    return metas, out


def test_merge_is_globally_sorted(free_env):
    a = [entry(b"a", 5), entry(b"c", 3), entry(b"e", 1)]
    b = [entry(b"b", 4), entry(b"c", 2), entry(b"f", 6)]
    _, out = run_compaction(free_env, [(1, a), (2, b)])
    keys = [(r.key, -r.ts) for r in out]
    assert keys == sorted(keys)
    assert len(out) == 6


def test_keep_versions_retains_chains(free_env):
    a = [entry(b"k", 9)]
    b = [entry(b"k", 4), entry(b"k", 1)]
    _, out = run_compaction(free_env, [(1, a), (2, b)])
    assert [r.ts for r in out] == [9, 4, 1]


def test_tombstone_shadows_older_records(free_env):
    a = [(tombstone(b"k", 9), b"")]
    b = [entry(b"k", 4), entry(b"k", 1)]
    _, out = run_compaction(free_env, [(1, a), (2, b)])
    assert [r.ts for r in out] == [9]
    assert out[0].is_tombstone


def test_tombstone_dropped_at_bottom(free_env):
    a = [(tombstone(b"k", 9), b""), entry(b"x", 3)]
    b = [entry(b"k", 4)]
    _, out = run_compaction(free_env, [(1, a), (2, b)], bottom=True)
    assert [r.key for r in out] == [b"x"]


def test_newer_put_survives_older_tombstone(free_env):
    a = [entry(b"k", 9), (tombstone(b"k", 5), b"")]
    _, out = run_compaction(free_env, [(1, a)], bottom=True)
    assert [r.ts for r in out] == [9]


def test_file_cut_never_splits_key_group(free_env):
    source = []
    for i in range(40):
        key = b"key%02d" % (i // 4)  # chains of 4 versions
        source.append(entry(key, 1000 - i, b"x" * 40))
    metas, _ = run_compaction(free_env, [(1, source)], file_max=300)
    assert len(metas) > 1
    for prev, cur in zip(metas, metas[1:]):
        assert prev.max_key != cur.min_key


def test_listener_event_sequence(free_env):
    events = []

    class Recorder(EventListener):
        def on_compaction_begin(self, ctx):
            events.append("begin")

        def on_compaction_input_record(self, ctx, level_id, record):
            events.append(("in", level_id, record.ts))

        def on_compaction_output_record(self, ctx, record):
            events.append(("out", record.ts))

        def on_compaction_finish(self, ctx):
            events.append("finish")

        def on_table_file_created(self, ctx, entries):
            events.append(("file", len(entries)))
            return entries

    a = [(tombstone(b"k", 9), b"")]
    b = [entry(b"k", 4)]
    run_compaction(free_env, [(1, a), (2, b)], listeners=[Recorder()], bottom=True)
    assert events[0] == "begin"
    assert ("in", 1, 9) in events and ("in", 2, 4) in events
    # tombstone at bottom + shadowed record: no outputs at all -> no file
    assert not any(isinstance(e, tuple) and e[0] == "out" for e in events)
    assert "finish" in events


def test_listener_can_rewrite_aux(free_env):
    class Annotator(EventListener):
        def on_table_file_created(self, ctx, entries):
            return [(record, b"ANNOTATED") for record, _ in entries]

    source = [entry(b"a", 1), entry(b"b", 2)]
    metas, _ = run_compaction(free_env, [(1, source)], listeners=[Annotator()])
    from repro.lsm.sstable import decode_entry

    meta = metas[0]
    raw = free_env.file_read(meta.name, 0, meta.handles[0].length)
    (record, aux), _ = decode_entry(raw)
    assert aux == b"ANNOTATED"


def test_input_hook_sees_dropped_records(free_env):
    """Input digesters must see every consumed record, even GC'd ones."""
    seen = []

    class Recorder(EventListener):
        def on_compaction_input_record(self, ctx, level_id, record):
            seen.append(record.ts)

    a = [(tombstone(b"k", 9), b"")]
    b = [entry(b"k", 4), entry(b"k", 1)]
    run_compaction(free_env, [(1, a), (2, b)], listeners=[Recorder()], bottom=True)
    assert sorted(seen) == [1, 4, 9]
