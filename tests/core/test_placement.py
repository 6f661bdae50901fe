"""Table 1 in code: each named store is one placement of the same shell."""

import pytest

from repro.baselines.unsecured import UnsecuredLSMStore
from repro.core.placed import PlacedStore
from tests.conftest import TEST_SCALE, kv, make_p1_store, make_p2_store

# (store factory, enclave name or None, read mode, buffer location,
#  file protection)
PLACEMENTS = {
    "p2": (make_p2_store, "elsm-enclave", "mmap", "untrusted", False),
    "p1": (make_p1_store, "elsm-p1", "buffer", "enclave", True),
    "plain-enclave": (
        lambda: UnsecuredLSMStore(scale=TEST_SCALE, in_enclave=True),
        "plain-enclave", "mmap", "untrusted", False,
    ),
    "plain": (
        lambda: UnsecuredLSMStore(scale=TEST_SCALE),
        None, "mmap", "untrusted", False,
    ),
}

ENCLAVE_KEYS = ["enclave_bytes", "epc_bytes", "epc_faults", "dirty_evictions"]

# The placement half of report(), in order, on every store.
SHARED_KEYS = [
    "timestamp", "health", "wal_sync_every", "levels", "memtable_records",
    "immutable_memtables", "memtable_rotations", "group_commits",
    "background_flush_us", "ecalls", "ocalls", "boundary_copy_bytes",
    "flushes", "compactions", "bytes_flushed", "bytes_compacted",
    "user_bytes_written", "write_amplification", "wal_appends", "wal_bytes",
    "cache_hits", "cache_misses", "disk_bytes", "simulated_us",
    "cost_breakdown_us", "spans_dropped", "events_dropped",
]

# ELSMP2Store.report() key order; CLI --json-out and perf-baseline output
# serialise the dict in this order.
P2_REPORT_KEYS = [
    "timestamp", "health", "wal_sync_every", "durable_ts", "levels",
    "level_bytes_total", "memtable_records", "immutable_memtables",
    "memtable_rotations", "group_commits", "background_flush_us",
    "enclave_bytes", "epc_bytes", "epc_faults", "dirty_evictions", "ecalls",
    "ocalls", "boundary_copy_bytes", "flushes", "compactions",
    "bytes_flushed", "bytes_compacted", "user_bytes_written",
    "write_amplification", "wal_appends", "wal_bytes", "cache_hits",
    "cache_misses", "hash_invocations", "verified_gets",
    "verified_multi_gets", "verified_scans", "verifier_cache_hits",
    "verifier_cache_misses", "proof_bytes_total", "proof_get_bytes_mean",
    "disk_bytes", "simulated_us", "cost_breakdown_us", "spans_dropped",
    "events_dropped", "salted_bloom", "admission",
]


def _worked(make):
    store = make()
    for i in range(120):
        store.put(*kv(i))
    store.flush()
    store.get(kv(7)[0])
    return store


@pytest.mark.parametrize("name", PLACEMENTS)
def test_placement_facts(name):
    make, enclave, read_mode, location, protect = PLACEMENTS[name]
    store = make()
    assert isinstance(store, PlacedStore)
    if enclave is None:
        assert store.enclave is None
    else:
        assert store.enclave.name == enclave
    config = store.db.config
    assert config.read_mode == read_mode
    assert config.buffer_location == location == store.buffer_location
    assert config.protect_files is protect is store.protect_files


@pytest.mark.parametrize("name", PLACEMENTS)
def test_report_carries_the_shared_placement_keys(name):
    make, enclave, *_ = PLACEMENTS[name]
    report = _worked(make).report()
    shared = [key for key in report if key in SHARED_KEYS]
    assert shared == SHARED_KEYS
    assert report["timestamp"] == 120
    assert report["flushes"] >= 1
    present = [key for key in ENCLAVE_KEYS if key in report]
    assert present == (ENCLAVE_KEYS if enclave is not None else [])
    if enclave is None:
        assert report["ecalls"] == report["ocalls"] == 0


def test_p2_report_key_order_is_pinned():
    report = _worked(make_p2_store).report()
    assert list(report) == P2_REPORT_KEYS
    level = next(iter(report["levels"].values()))
    assert list(level) == ["files", "bytes", "records", "distinct_keys", "root"]
    assert report["level_bytes_total"] == sum(
        entry["bytes"] for entry in report["levels"].values()
    )


def test_p1_and_unsecured_reports_have_no_proof_keys():
    for make in (make_p1_store, PLACEMENTS["plain"][0]):
        report = _worked(make).report()
        assert set(report) - set(SHARED_KEYS) - set(ENCLAVE_KEYS) == set()
