"""LSMStore end-to-end engine behaviour."""

import pytest

from repro.lsm.db import LSMConfig, LSMStore


def small_config(**overrides):
    defaults = dict(
        write_buffer_bytes=512,
        level1_max_bytes=2048,
        file_max_bytes=1024,
        block_bytes=256,
        read_buffer_bytes=64 * 1024,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


@pytest.fixture
def store(free_env):
    return LSMStore(free_env, small_config())


def test_put_get(store):
    store.put(b"a", b"1")
    store.put(b"b", b"2")
    assert store.get(b"a") == b"1"
    assert store.get(b"missing") is None


def test_updates_return_latest(store):
    store.put(b"k", b"old")
    store.put(b"k", b"new")
    assert store.get(b"k") == b"new"


def test_delete(store):
    store.put(b"k", b"v")
    store.delete(b"k")
    assert store.get(b"k") is None


def test_delete_survives_flush(store):
    store.put(b"k", b"v")
    store.flush()
    store.delete(b"k")
    store.flush()
    assert store.get(b"k") is None


def test_flush_creates_levels(store):
    for i in range(100):
        store.put(b"key%04d" % i, b"v" * 30)
    assert store.level_indices()
    assert store.stats.flushes > 0


def test_cascading_compaction_builds_deeper_levels(store):
    for i in range(600):
        store.put(b"key%04d" % i, b"v" * 30)
    assert len(store.level_indices()) >= 2
    assert store.stats.compactions > 0
    # Every key still readable after all that churn.
    for i in range(0, 600, 37):
        assert store.get(b"key%04d" % i) == b"v" * 30


def test_versions_across_levels(store):
    store.put(b"k", b"v1", ts=1)
    store.flush()
    store.put(b"k", b"v2", ts=10)
    store.flush()
    assert store.get(b"k") == b"v2"
    assert store.get(b"k", ts_query=5) == b"v1"
    assert store.get(b"k", ts_query=0) is None


def test_get_with_level_provenance(store):
    store.put(b"k", b"v")
    assert store.get_with_level(b"k").level == 0  # memtable
    store.flush()
    result = store.get_with_level(b"k")
    assert result.level == 1
    assert result.record.value == b"v"


def test_scan_merges_memtable_and_levels(store):
    store.put(b"a", b"1")
    store.flush()
    store.put(b"b", b"2")
    records = store.scan(b"a", b"z")
    assert [(r.key, r.value) for r in records] == [(b"a", b"1"), (b"b", b"2")]


def test_scan_respects_versions_and_tombstones(store):
    store.put(b"a", b"old", ts=1)
    store.put(b"b", b"keep", ts=2)
    store.flush()
    store.put(b"a", b"new", ts=10)
    store.delete(b"b", ts=11)
    records = store.scan(b"a", b"z")
    assert [(r.key, r.value) for r in records] == [(b"a", b"new")]


def test_scan_ts_query(store):
    store.put(b"a", b"v1", ts=1)
    store.put(b"a", b"v2", ts=5)
    records = store.scan(b"a", b"z", ts_query=3)
    assert [r.value for r in records] == [b"v1"]


def test_recover_from_wal(free_env):
    store = LSMStore(free_env, small_config(write_buffer_bytes=100_000))
    store.put(b"a", b"1")
    store.put(b"b", b"2")
    # Simulated crash: a new store instance over the same disk.
    revived = LSMStore(free_env, small_config(write_buffer_bytes=100_000))
    assert revived.get(b"a") is None  # nothing until recovery
    assert revived.recover() == 2
    assert revived.get(b"a") == b"1"
    assert revived.get(b"b") == b"2"


def test_stacking_mode_without_compaction(free_env):
    store = LSMStore(free_env, small_config(compaction_enabled=False))
    for i in range(120):
        store.put(b"key%04d" % i, b"v" * 30)
    store.flush()
    assert store.stats.compactions == 0
    assert len(store.level_indices()) > 1  # flushes stacked as levels
    for i in range(0, 120, 13):
        assert store.get(b"key%04d" % i) == b"v" * 30


def test_stacking_mode_freshness(free_env):
    store = LSMStore(free_env, small_config(compaction_enabled=False))
    store.put(b"k", b"v1")
    store.flush()
    store.put(b"k", b"v2")
    store.flush()
    assert store.get(b"k") == b"v2"


def test_resize_read_buffer(free_env):
    store = LSMStore(free_env, small_config())
    for i in range(100):
        store.put(b"key%04d" % i, b"v" * 30)
    store.flush()
    store.resize_read_buffer(8 * 1024)
    assert store.get(b"key0050") == b"v" * 30
    assert store.config.read_buffer_bytes == 8 * 1024


def test_resize_rejected_in_mmap_mode(free_env):
    store = LSMStore(free_env, small_config(read_mode="mmap"))
    with pytest.raises(ValueError):
        store.resize_read_buffer(1024)


def test_write_amplification_accounted(store):
    for i in range(300):
        store.put(b"key%04d" % i, b"v" * 30)
    assert store.stats.write_amplification() > 1.0


def test_auto_timestamps_monotonic(store):
    t1 = store.put(b"a", b"1")
    t2 = store.put(b"b", b"2")
    t3 = store.delete(b"a")
    assert t1 < t2 < t3


def test_bloom_disabled_still_correct(free_env):
    store = LSMStore(free_env, small_config(use_bloom=False))
    for i in range(100):
        store.put(b"key%04d" % i, b"v")
    store.flush()
    assert store.get(b"key0042") == b"v"
    assert store.get(b"nope") is None


def test_total_data_bytes_grows(store):
    def total_data_bytes():
        levels = sum(store.level_run(i).total_bytes for i in store.level_indices())
        return levels + store.mem_bytes()

    before = total_data_bytes()
    for i in range(50):
        store.put(b"key%04d" % i, b"v" * 50)
    assert total_data_bytes() > before


def test_randomized_against_model(free_env):
    import random

    rng = random.Random(5)
    store = LSMStore(free_env, small_config())
    model: dict[bytes, bytes] = {}
    keys = [b"key%03d" % i for i in range(60)]
    for step in range(800):
        key = rng.choice(keys)
        action = rng.random()
        if action < 0.55:
            value = b"v%d" % step
            store.put(key, value)
            model[key] = value
        elif action < 0.7:
            store.delete(key)
            model.pop(key, None)
        else:
            assert store.get(key) == model.get(key), (step, key)
    for key in keys:
        assert store.get(key) == model.get(key)
    scanned = {r.key: r.value for r in store.scan(b"key000", b"key999")}
    assert scanned == model


def test_multi_get_matches_sequential(store):
    for i in range(80):
        store.put(b"key%03d" % i, b"v%03d" % i)
    store.flush()
    store.put(b"key005", b"fresh")  # memtable overlay
    store.delete(b"key006")
    keys = [b"key%03d" % i for i in range(0, 80, 7)] + [
        b"nope", b"key005", b"key006", b"key005",
    ]
    assert store.multi_get(keys) == [store.get(k) for k in keys]


def test_multi_get_ts_query(store):
    store.put(b"k", b"old")
    old_ts = store.memtable.get(b"k", None).ts
    store.put(b"k", b"new")
    store.flush()
    assert store.multi_get([b"k"], ts_query=old_ts) == [b"old"]
    assert store.multi_get([b"k"]) == [b"new"]


def test_multi_get_shares_block_fetches(store):
    """Adjacent keys in one block must be served by a single fetch."""
    for i in range(80):
        store.put(b"key%03d" % i, b"v%03d" % i)
    store.flush()
    reads = store.env.telemetry.counter("disk.ops", labels=("op",))
    keys = [b"key%03d" % i for i in range(40, 48)]
    before_seq = reads.total()
    for key in keys:
        store.get(key)
    sequential_reads = reads.total() - before_seq
    before_batch = reads.total()
    store.multi_get(keys)
    batch_reads = reads.total() - before_batch
    assert batch_reads <= sequential_reads
