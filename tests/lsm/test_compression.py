"""Block compression through the whole stack."""

import pytest

from repro.lsm.db import LSMConfig, LSMStore
from repro.lsm.records import Record
from repro.lsm.sstable import SSTableBuilder, rebuild_meta, write_table
from repro.lsm.cache import ReadBuffer
from repro.lsm.sstable import BlockFetcher
from tests.conftest import make_p2_store, kv

COMPRESSIBLE = b"the same phrase over and over " * 4  # 120 B, very redundant


def build(env, compress, n=80):
    builder = SSTableBuilder(
        env, f"c{compress}/t", level=1, file_no=1, block_bytes=512,
        compress=compress,
    )
    for i in range(n):
        builder.add(Record(key=b"key%04d" % i, ts=i + 1, value=COMPRESSIBLE))
    return write_table(env, builder.build())


def fetch(env, meta):
    fetcher = BlockFetcher(env, buffer=ReadBuffer(env, 64 * 1024, block_stride=512))
    out = []
    for handle in meta.handles:
        out.extend(fetcher.read_block(meta, handle).entries)
    return out


def test_compressed_file_is_smaller(free_env):
    plain = build(free_env, compress=False)
    packed = build(free_env, compress=True)
    assert packed.size_bytes < plain.size_bytes / 2
    assert packed.compressed and not plain.compressed


def test_compressed_blocks_decode_identically(free_env):
    plain = build(free_env, compress=False)
    packed = build(free_env, compress=True)
    assert fetch(free_env, plain) == fetch(free_env, packed)


def test_mmap_reads_compressed_blocks(free_env):
    meta = build(free_env, compress=True)
    fetcher = BlockFetcher(free_env, mode="mmap")
    entries = fetcher.read_block(meta, meta.handles[0]).entries
    assert entries[0][0].value == COMPRESSIBLE


def test_rebuild_meta_compressed(free_env):
    meta = build(free_env, compress=True)
    revived = rebuild_meta(
        free_env, meta.name, 1, 1, block_bytes=512, compress=True
    )
    assert revived.record_count == meta.record_count
    assert revived.min_key == meta.min_key
    assert revived.max_key == meta.max_key
    assert len(revived.handles) == len(meta.handles)
    assert [h.offset for h in revived.handles] == [h.offset for h in meta.handles]
    assert fetch(free_env, revived) == fetch(free_env, meta)


def test_compression_costs_charged(env):
    build(env, compress=True)
    assert env.clock.breakdown().get("compress", 0) > 0
    meta = rebuild_meta(env, "cTrue/t", 1, 1, block_bytes=512, compress=True)
    fetch(env, meta)
    assert env.clock.breakdown().get("decompress", 0) > 0


def test_lsm_store_with_compression(free_env):
    store = LSMStore(
        free_env,
        LSMConfig(write_buffer_bytes=1024, compression=True, block_bytes=512),
    )
    for i in range(100):
        store.put(b"key%04d" % i, COMPRESSIBLE)
    store.flush()
    for i in range(0, 100, 9):
        assert store.get(b"key%04d" % i) == COMPRESSIBLE
    assert store.scan(b"key0000", b"key0009")


def test_p2_authenticated_store_with_compression():
    """Digests hash the records, not the frames, so compression and
    authentication compose transparently."""
    store = make_p2_store(compression=True)
    for i in range(150):
        store.put(kv(i)[0], COMPRESSIBLE)
    store.flush()
    assert store.get(kv(75)[0]) == COMPRESSIBLE
    assert store.get(b"missing") is None
    assert len(store.scan(kv(10)[0], kv(20)[0])) == 11
    assert store.audit().clean


def test_compressed_store_smaller_on_disk():
    loud = make_p2_store(compression=False, name_prefix="nc")
    quiet = make_p2_store(compression=True, name_prefix="cc")
    for store in (loud, quiet):
        for i in range(150):
            store.put(kv(i)[0], COMPRESSIBLE)
        store.flush()
    assert quiet.disk.total_bytes() < loud.disk.total_bytes()


def test_p1_protected_and_compressed():
    from tests.conftest import make_p1_store

    store = make_p1_store(compression=True)
    for i in range(100):
        store.put(kv(i)[0], COMPRESSIBLE)
    store.flush()
    assert store.get(kv(42)[0]) == COMPRESSIBLE
