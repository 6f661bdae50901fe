"""eLSM-P1 strawman behaviour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lsm.sstable import BlockCorruptionError
from tests.conftest import TEST_SCALE, kv, make_p1_store


@pytest.fixture
def store():
    s = make_p1_store()
    for i in range(150):
        s.put(*kv(i))
    return s


def test_crud(store):
    assert store.get(kv(7)[0]) == kv(7)[1]
    assert store.get(b"missing") is None
    store.delete(kv(7)[0])
    assert store.get(kv(7)[0]) is None


def test_update(store):
    key, value = kv(3, version=9)
    store.put(key, value)
    assert store.get(key) == value


def test_scan(store):
    lo, hi = kv(10)[0], kv(19)[0]
    result = store.scan(lo, hi)
    assert len(result) == 10
    assert result[0] == kv(10)


def test_historical_read(store):
    key = kv(0)[0]
    old_ts = 1  # first write
    assert store.get(key, ts_query=old_ts) == kv(0)[1]
    assert store.get(key, ts_query=0) is None


def test_buffer_lives_in_enclave(store):
    assert store.db.config.buffer_location == "enclave"
    assert store.db.config.protect_files
    assert store.enclave.has_region("p1.read_buffer")


def test_mmap_is_not_available():
    """The paper: P1 cannot use mmap (files are SDK-protected)."""
    with pytest.raises(ValueError):
        make_p1_store(read_buffer_bytes=None).db.fetcher.__class__(
            make_p1_store().env, mode="mmap", protected=True
        )


def test_file_tampering_detected(store):
    store.flush()
    # Read something to be sure the table layout is live.
    assert store.get(kv(5)[0]) == kv(5)[1]
    from repro.core.adversary import tamper_sstable_byte

    # Invalidate the cache so reads hit the tampered file bytes.
    assert tamper_sstable_byte(store.disk) is not None
    for run in [store.db.level_run(i) for i in store.db.level_indices()]:
        for meta in run.tables:
            store.db.fetcher.invalidate_file(meta.name)
    detected = False
    for i in range(150):
        try:
            store.get(kv(i)[0])
        except BlockCorruptionError:
            detected = True
            break
    assert detected


def test_paging_beyond_epc():
    """P1's defining cost: buffer > EPC causes enclave paging on reads."""
    store = make_p1_store(read_buffer_bytes=4 * TEST_SCALE.epc_bytes)
    n = (4 * TEST_SCALE.epc_bytes) // 120
    for i in range(n):
        store.put(*kv(i))
    store.flush()
    before = store.enclave.pager.fault_count
    for i in range(0, n, 3):
        store.get(kv(i)[0])
    assert store.enclave.pager.fault_count > before


def test_ecalls_counted(store):
    before = store.env.boundary.ecall_count
    store.get(kv(1)[0])
    store.put(b"x", b"y")
    assert store.env.boundary.ecall_count == before + 2


def test_timestamps_monotonic(store):
    t1 = store.put(b"a", b"1")
    t2 = store.delete(b"a")
    assert t2 > t1
    assert store.current_ts == t2


_HASH_SEED_SCRIPT = """
from tests.conftest import kv, make_p1_store

store = make_p1_store(read_buffer_bytes=16 * 1024)
for round_ in range(3):
    for i in range(150):
        store.put(*kv(i, version=round_))
    for i in range(0, 150, 3):
        store.get(kv(i)[0])
    store.scan(kv(10)[0], kv(40)[0])
print(repr(store.clock.now_us))
"""


def _clock_under_hash_seed(seed: str) -> str:
    root = Path(__file__).resolve().parents[2]
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
    )
    result = subprocess.run(
        [sys.executable, "-c", _HASH_SEED_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_simulated_clock_independent_of_hash_seed():
    """The enclave-resident read buffer recycles slots freed by
    compaction; if that order followed ``set`` iteration, paging offsets
    and hence the simulated clock would vary with PYTHONHASHSEED."""
    assert _clock_under_hash_seed("0") == _clock_under_hash_seed("1")
