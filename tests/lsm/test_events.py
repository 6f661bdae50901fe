"""EventListener contract: defaults are no-ops, hooks fire in order."""

from repro.lsm.db import LSMConfig, LSMStore
from repro.lsm.events import CompactionContext, EventListener
from repro.lsm.records import Record


def test_default_listener_is_inert(free_env):
    """A bare EventListener must never alter engine behaviour."""
    listener = EventListener()
    store = LSMStore(
        free_env,
        LSMConfig(write_buffer_bytes=512, block_bytes=256),
        listeners=[listener],
    )
    for i in range(100):
        store.put(b"key%03d" % i, b"v" * 30)
    store.flush()
    assert store.get(b"key050") == b"v" * 30


def test_on_table_file_created_default_returns_entries():
    listener = EventListener()
    ctx = CompactionContext(kind="flush", input_levels=[0], output_level=1)
    entries = [(Record(key=b"k", ts=1), b"aux")]
    assert listener.on_table_file_created(ctx, entries) is entries


def test_trusted_levels_only_memtable():
    ctx = CompactionContext(
        kind="compaction", input_levels=[0, 1, 2], output_level=2
    )
    assert ctx.trusted_levels == {0}
    ctx = CompactionContext(kind="compaction", input_levels=[1, 2], output_level=2)
    assert ctx.trusted_levels == set()


def test_full_hook_sequence(free_env):
    """WAL append -> flush (begin/in/out/finish/file/replace) -> reset."""
    events: list[str] = []

    class Recorder(EventListener):
        def on_wal_append(self, record):
            events.append("wal_append")

        def on_wal_reset(self):
            events.append("wal_reset")

        def on_compaction_begin(self, ctx):
            events.append("begin")

        def on_compaction_input_record(self, ctx, level_id, record):
            events.append("input")

        def on_compaction_output_record(self, ctx, record):
            events.append("output")

        def on_compaction_finish(self, ctx):
            events.append("finish")

        def on_table_file_created(self, ctx, entries):
            events.append("file")
            return entries

        def on_compaction_installed(self, ctx):
            events.append("installed")

    store = LSMStore(
        free_env,
        LSMConfig(write_buffer_bytes=1 << 20),
        listeners=[Recorder()],
    )
    store.put(b"a", b"1")
    store.put(b"b", b"2")
    store.flush()
    assert events[:2] == ["wal_append", "wal_append"]
    body = events[2:]
    assert body.index("begin") < body.index("input")
    assert body.index("input") < body.index("output")
    assert body.index("output") < body.index("finish")
    assert body.index("finish") < body.index("file")
    assert body.index("file") < body.index("installed")
    assert events[-1] == "wal_reset"


def test_flush_then_compaction_sequences(free_env):
    """One flush and one explicit compaction, each with the full ordered
    callback sequence and the right CompactionContext kind."""
    events: list[tuple[str, str]] = []  # (ctx.kind, hook)

    class Recorder(EventListener):
        def on_compaction_begin(self, ctx):
            events.append((ctx.kind, "begin"))

        def on_compaction_input_record(self, ctx, level_id, record):
            events.append((ctx.kind, "input"))

        def on_compaction_output_record(self, ctx, record):
            events.append((ctx.kind, "output"))

        def on_compaction_finish(self, ctx):
            events.append((ctx.kind, "finish"))

        def on_table_file_created(self, ctx, entries):
            events.append((ctx.kind, "file"))
            return entries

        def on_compaction_installed(self, ctx):
            events.append((ctx.kind, "installed"))

    store = LSMStore(
        free_env,
        LSMConfig(write_buffer_bytes=1 << 20, compaction_enabled=False),
        listeners=[Recorder()],
    )
    for i in range(20):
        store.put(b"key%03d" % i, b"v" * 10)
    store.flush()
    flush_hooks = [hook for kind, hook in events if kind == "flush"]
    assert flush_hooks[0] == "begin"
    assert flush_hooks.count("input") == 20
    assert flush_hooks.count("output") == 20
    # Records stream through the merge: inputs and outputs interleave,
    # but every record is read before it is written out...
    assert flush_hooks.index("input") < flush_hooks.index("output")
    # ...and the tail is strictly finish -> file -> installed.
    assert flush_hooks[-3:] == ["finish", "file", "installed"]

    events.clear()
    store.compact_level(1)
    kinds = {kind for kind, _ in events}
    assert kinds == {"compaction"}
    hooks = [hook for _, hook in events]
    assert hooks[0] == "begin"
    assert hooks.count("input") == 20 and hooks.count("output") == 20
    # The engine seals output records, then announces completion, then
    # materialises the table file(s) and swaps the level in — strictly
    # in that order.
    assert hooks.index("begin") < hooks.index("input")
    assert hooks.index("input") < hooks.index("output")
    assert max(i for i, h in enumerate(hooks) if h == "output") < hooks.index(
        "finish"
    )
    assert hooks.index("finish") < hooks.index("file")
    assert hooks.index("file") < hooks.index("installed")
    assert hooks[-1] == "installed"


def test_stacking_mode_fires_level_inserted(free_env):
    events: list[int] = []

    class Recorder(EventListener):
        def on_level_inserted(self, level):
            events.append(level)

    store = LSMStore(
        free_env,
        LSMConfig(write_buffer_bytes=256, compaction_enabled=False),
        listeners=[Recorder()],
    )
    for i in range(40):
        store.put(b"key%03d" % i, b"v" * 20)
    store.flush()
    assert events and all(level == 1 for level in events)
