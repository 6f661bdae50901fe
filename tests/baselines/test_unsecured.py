"""Unsecured baseline wrappers."""

from repro.baselines.unsecured import UnsecuredLSMStore
from repro.sim.scale import ScaleConfig

SCALE = ScaleConfig(factor=1 / 4096)


def test_basic_crud_no_enclave():
    store = UnsecuredLSMStore(scale=SCALE, in_enclave=False)
    store.put(b"a", b"1")
    assert store.get(b"a") == b"1"
    store.delete(b"a")
    assert store.get(b"a") is None
    assert store.enclave is None


def test_in_enclave_variant_pays_world_switches():
    store = UnsecuredLSMStore(scale=SCALE, in_enclave=True, read_mode="buffer")
    store.put(b"a", b"1")
    assert store.get(b"a") == b"1"
    assert store.env.boundary.ecall_count >= 2


def test_no_protection_no_digests():
    store = UnsecuredLSMStore(scale=SCALE, in_enclave=True)
    for i in range(100):
        store.put(b"key%04d" % i, b"v" * 30)
    store.flush()
    run = store.db.level_run(store.db.level_indices()[0])
    entry = run.get_group(store.db.fetcher, b"key0005")[0]
    assert entry[1] == b""  # no embedded proofs
    assert all(h.mac is None for meta in run.tables for h in meta.handles)


def test_scan():
    store = UnsecuredLSMStore(scale=SCALE)
    for i in range(20):
        store.put(b"key%04d" % i, b"v%d" % i)
    result = store.scan(b"key0005", b"key0010")
    assert len(result) == 6


def test_historical_reads():
    store = UnsecuredLSMStore(scale=SCALE)
    t1 = store.put(b"k", b"v1")
    store.put(b"k", b"v2")
    assert store.get(b"k", ts_query=t1) == b"v1"


def _reopenable(**overrides):
    options = dict(
        scale=SCALE, write_buffer_bytes=1 << 20, name_prefix="plainrec"
    )
    options.update(overrides)
    return UnsecuredLSMStore(**options)


def test_reopen_replays_the_wal_tail():
    store = _reopenable()  # everything stays in the WAL
    for i in range(30):
        store.put(b"key%04d" % i, b"v%d" % i)
    store.delete(b"key0003")
    revived = _reopenable(disk=store.disk, clock=store.clock, reopen=True)
    assert revived.recover() == 31
    assert revived.current_ts == store.current_ts == 31
    assert revived.get(b"key0007") == b"v7"
    assert revived.get(b"key0003") is None
    assert revived.put(b"new", b"x") == 32


def test_reopen_restores_flushed_levels():
    store = _reopenable(write_buffer_bytes=None)
    for i in range(150):
        store.put(b"key%04d" % i, b"v" * 30)
    store.flush()
    revived = _reopenable(
        disk=store.disk, clock=store.clock, write_buffer_bytes=None, reopen=True
    )
    revived.recover()
    assert revived.get(b"key0042") == b"v" * 30
    assert len(revived.scan(b"key0010", b"key0019")) == 10
