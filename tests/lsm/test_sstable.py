"""SSTable building and the block read paths."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lsm.cache import ReadBuffer
from repro.lsm.records import Record
from repro.lsm.sstable import (
    BlockCorruptionError,
    BlockFetcher,
    SSTableBuilder,
    decode_entry,
    encode_entry,
    write_table,
)


def rec(i, ts=None, value=b"v" * 20):
    return Record(key=b"key%05d" % i, ts=ts if ts is not None else i + 1, value=value)


def build_table(env, n=50, name="t1", block_bytes=256, protect=False, aux=b""):
    builder = SSTableBuilder(
        env, name, level=1, file_no=1, block_bytes=block_bytes, protect=protect
    )
    for i in range(n):
        builder.add(rec(i), aux)
    return write_table(env, builder.build())


@given(
    st.binary(max_size=50),
    st.integers(0, 2**40),
    st.binary(max_size=100),
    st.binary(max_size=80),
)
def test_entry_roundtrip(key, ts, value, aux):
    record = Record(key=key, ts=ts, value=value)
    (decoded, decoded_aux), end = decode_entry(encode_entry(record, aux))
    assert decoded == record
    assert decoded_aux == aux


def test_builder_produces_sorted_blocks(free_env):
    meta = build_table(free_env, n=100)
    assert meta.record_count == 100
    assert meta.min_key == b"key00000"
    assert meta.max_key == b"key00099"
    assert len(meta.handles) > 1  # multiple blocks were cut
    for prev, cur in zip(meta.handles, meta.handles[1:]):
        assert prev.last_key <= cur.first_key


def test_builder_rejects_unsorted(free_env):
    builder = SSTableBuilder(free_env, "t", level=1, file_no=1)
    builder.add(rec(5))
    with pytest.raises(ValueError):
        builder.add(rec(3))


def test_builder_rejects_duplicate_sort_key(free_env):
    builder = SSTableBuilder(free_env, "t", level=1, file_no=1)
    builder.add(rec(5, ts=9))
    with pytest.raises(ValueError):
        builder.add(rec(5, ts=9))


def test_same_key_versions_newest_first_ok(free_env):
    builder = SSTableBuilder(free_env, "t", level=1, file_no=1)
    builder.add(rec(5, ts=9))
    builder.add(rec(5, ts=3))  # older version after newer: valid
    meta = builder.build().meta
    assert meta.record_count == 2


def test_empty_table_rejected(free_env):
    builder = SSTableBuilder(free_env, "t", level=1, file_no=1)
    with pytest.raises(ValueError):
        builder.build()


def test_block_for_key(free_env):
    meta = build_table(free_env, n=100)
    assert meta.block_for_key(b"key00000") == 0
    assert meta.block_for_key(b"zzz") is None
    index = meta.block_for_key(b"key00050")
    handle = meta.handles[index]
    assert handle.first_key <= b"key00050" <= handle.last_key or (
        index > 0 and meta.handles[index - 1].last_key < b"key00050"
    )


def fetcher_for(env, mode="buffer", protected=False):
    buffer = (
        ReadBuffer(env, 64 * 1024, block_stride=256) if mode == "buffer" else None
    )
    return BlockFetcher(env, mode=mode, buffer=buffer, protected=protected)


def test_buffer_fetcher_reads_entries(free_env):
    meta = build_table(free_env, n=60)
    fetcher = fetcher_for(free_env)
    block = fetcher.read_block(meta, meta.handles[0])
    assert block.entries[0][0].key == b"key00000"


def test_buffer_caches_blocks(free_env):
    meta = build_table(free_env, n=60)
    fetcher = fetcher_for(free_env)
    fetcher.read_block(meta, meta.handles[0])
    fetcher.read_block(meta, meta.handles[0])
    assert fetcher.buffer.hits == 1
    assert fetcher.buffer.misses == 1


def test_mmap_fetcher(free_env):
    meta = build_table(free_env, n=60)
    fetcher = fetcher_for(free_env, mode="mmap")
    block = fetcher.read_block(meta, meta.handles[-1])
    assert block.entries[-1][0].key == meta.max_key


def test_mmap_with_protection_rejected(free_env):
    with pytest.raises(ValueError):
        BlockFetcher(free_env, mode="mmap", protected=True)


def test_buffer_mode_requires_buffer(free_env):
    with pytest.raises(ValueError):
        BlockFetcher(free_env, mode="buffer", buffer=None)


def test_unknown_mode_rejected(free_env):
    with pytest.raises(ValueError):
        BlockFetcher(free_env, mode="direct")


def test_protected_blocks_detect_tampering(free_env):
    meta = build_table(free_env, n=60, protect=True)
    f = free_env.disk.open(meta.name)
    f.data[10] ^= 0xFF
    fetcher = fetcher_for(free_env, protected=True)
    with pytest.raises(BlockCorruptionError):
        fetcher.read_block(meta, meta.handles[0])


def test_protected_blocks_read_fine_untampered(free_env):
    meta = build_table(free_env, n=60, protect=True)
    fetcher = fetcher_for(free_env, protected=True)
    block = fetcher.read_block(meta, meta.handles[0])
    assert block.entries


def test_invalidate_file_clears_caches(free_env):
    meta = build_table(free_env, n=60)
    fetcher = fetcher_for(free_env)
    fetcher.read_block(meta, meta.handles[0])
    fetcher.invalidate_file(meta.name)
    fetcher.read_block(meta, meta.handles[0])
    assert fetcher.buffer.misses == 2


def test_aux_survives_storage(free_env):
    meta = build_table(free_env, n=10, aux=b"PROOF")
    fetcher = fetcher_for(free_env)
    block = fetcher.read_block(meta, meta.handles[0])
    assert all(aux == b"PROOF" for _, aux in block.entries)


def test_meta_bytes_positive(free_env):
    meta = build_table(free_env, n=60)
    assert meta.meta_bytes() > 0


def test_scoped_block_cache_memoises(free_env):
    """Within one scope, a (file, offset) pair is fetched exactly once."""
    from repro.lsm.sstable import ScopedBlockCache

    class CountingFetcher:
        def __init__(self):
            self.calls = 0

        def read_block(self, meta, handle):
            self.calls += 1
            return object()

    class FakeMeta:
        name = "f"

    class FakeHandle:
        def __init__(self, offset):
            self.offset = offset

    fetcher = CountingFetcher()
    scope = ScopedBlockCache(fetcher)
    a1 = scope.read_block(FakeMeta(), FakeHandle(0))
    a2 = scope.read_block(FakeMeta(), FakeHandle(0))
    b = scope.read_block(FakeMeta(), FakeHandle(512))
    assert a1 is a2 and b is not a1
    assert fetcher.calls == 2
    assert (scope.hits, scope.misses) == (1, 2)
