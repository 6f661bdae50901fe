"""Golden pin: one fixed script, exact simulated outcomes on every store.

The script (about 400 calls: puts, deletes, group commits including an
empty group, point and batched reads, scans, explicit flushes, a
compaction cascade, single-level and multi-level compactions) runs on
eLSM-P2, eLSM-P1 and the unsecured engine inside and outside an
enclave, each with the immutable-MemTable queue off and on and with
compaction on and off.  Every simulated quantity the engine produces —
the clock, its per-category breakdown and charge counts, disk bytes,
engine stats and P2's dataset hash — must equal the literals below to
the last bit, so any refactor of the engine that claims to be pure code
motion is checked against the whole cost model at once.

Four more P2-only cases (``READ_CASES``) run the script and then P2's
verified reads — MULTIGET batches and reads at older ``ts_query`` — once
under the default flags and once per descent flag turned away from it.

``python tests/test_golden.py`` prints the current values in the
literal's format, for diffing against ``GOLDEN`` when this test fails.
"""

from __future__ import annotations

import dataclasses
import pprint

import pytest

from tests.conftest import TEST_SCALE, kv, make_p1_store, make_p2_store

_GEOMETRY = dict(write_buffer_bytes=1024, level1_max_bytes=1024)


def _make(system: str, max_immutable: int, compaction: bool):
    if system == "p2":
        return make_p2_store(
            max_immutable_memtables=max_immutable,
            compaction=compaction,
            **_GEOMETRY,
        )
    if system == "p1":
        return make_p1_store(
            read_buffer_bytes=16 * 1024,
            max_immutable_memtables=max_immutable,
            compaction=compaction,
            **_GEOMETRY,
        )
    from repro.baselines.unsecured import UnsecuredLSMStore

    return UnsecuredLSMStore(
        scale=TEST_SCALE,
        in_enclave=(system == "plain-enclave"),
        max_immutable_memtables=max_immutable,
        compaction=compaction,
        **_GEOMETRY,
    )


def _compact_deepest_pair(store) -> None:
    levels = store.db.level_indices()
    if len(levels) >= 2:
        store.db.compact_levels(levels[-2:])


def _drive(store) -> None:
    db = store.db
    for i in range(110):
        store.put(*kv(i))
    for i in range(0, 110, 9):
        store.delete(kv(i)[0])
    assert store.group_commit([]) == []
    for g in range(6):
        ops = [("put", *kv(300 + 8 * g + j)) for j in range(7)]
        ops.append(("delete", kv(3 * g + 1)[0]))
        store.group_commit(ops)
    for i in range(0, 150, 3):
        store.get(kv(i)[0])
    for i in range(300, 348, 4):
        store.get(kv(i)[0])
    for lo in range(0, 100, 25):
        store.scan(kv(lo)[0], kv(lo + 12)[0])
    db.multi_get([kv(i)[0] for i in range(0, 60, 5)])
    store.flush()
    for i in range(90):
        store.put(*kv(i % 45, version=1))
    store.group_commit([("put", *kv(i, version=2)) for i in range(20, 30)])
    db.drain_immutables()
    for i in range(1, 120, 4):
        store.get(kv(i)[0])
    store.flush()
    if db.level_indices():
        db.compact_level(db.level_indices()[0])
    _compact_deepest_pair(store)
    for i in range(40):
        store.put(*kv(500 + i))
    db.multi_get([kv(500 + i)[0] for i in range(0, 40, 3)] + [b"absent"])
    for i in range(0, 40, 2):
        store.get(kv(500 + i)[0])
    store.scan(kv(0)[0], kv(600)[0])


def _observe(store) -> dict:
    clock = store.clock
    observed = {
        "now_us": clock.now_us,
        # category -> (microseconds charged, number of charges)
        "charges": {
            cat: (us, clock.event_count(cat))
            for cat, us in sorted(clock.breakdown().items())
        },
        "disk_bytes": store.disk.total_bytes(),
        "stats": dataclasses.asdict(store.db.stats),
    }
    if hasattr(store, "dataset_hash"):
        observed["dataset_hash"] = store.dataset_hash().hex()
    return observed


CASES = [
    (system, max_immutable, compaction)
    for system in ("p2", "p1", "plain-enclave", "plain")
    for max_immutable in (0, 2)
    for compaction in (True, False)
]


def _case_id(case) -> str:
    system, max_immutable, compaction = case
    return f"{system}-imm{max_immutable}-{'compact' if compaction else 'stack'}"


def run_case(case) -> dict:
    store = _make(*case)
    _drive(store)
    return _observe(store)


#: P2-only cases for the verified read paths: the script's batches go
#: through the engine's unverified ``db.multi_get``, so these add P2's
#: verified MULTIGET and every descent flag the read path branches on.
READ_CASES: dict[str, dict] = {
    "p2-reads-default": {},
    "p2-reads-no-early-stop": {"early_stop": False},
    "p2-reads-on-demand": {"proof_mode": "on_demand"},
    "p2-reads-no-bloom": {"use_bloom": False},
}


def _make_reads(name: str):
    return make_p2_store(
        max_immutable_memtables=0,
        compaction=False,
        **_GEOMETRY,
        **READ_CASES[name],
    )


def _drive_reads(store) -> None:
    """The script, then verified batches with duplicates, absent keys and
    MemTable hits, then GETs and MULTIGETs at two older ``ts_query``."""
    _drive(store)
    newest = store.current_ts
    for i in range(3):
        store.put(*kv(600 + i))
    absent = [b"absent", b"key", b"kez"]
    store.multi_get([kv(i)[0] for i in (0, 5, 5, 44, 600, 601, 600)] + absent)
    store.multi_get([kv(i)[0] for i in range(1, 120, 6)] + [kv(602)[0]])
    store.multi_get([kv(500 + i)[0] for i in range(0, 40, 5)] + absent[:1])
    for ts_query in (newest // 3, 2 * newest // 3):
        for i in range(0, 120, 7):
            store.get(kv(i)[0], ts_query)
        store.multi_get([kv(i)[0] for i in range(0, 120, 11)] + absent, ts_query)


def run_read_case(name: str) -> dict:
    store = _make_reads(name)
    _drive_reads(store)
    return _observe(store)


GOLDEN: dict[str, dict] = {
    "p1-imm0-compact": {
        "now_us": 15420.12509765606,
        "disk_bytes": 10665,
        "stats": {
            "bytes_compacted": 48460,
            "bytes_flushed": 301,
            "compactions": 10,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1276.8000000000043, 503),
            "crypto": (296.19140625, 146),
            "disk_write": (21.43515625, 34),
            "dram_copy": (30.37353515625, 326),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_copy": (17.675781249999996, 26),
            "enclave_touch": (21.750000000000174, 435),
            "epc_page_fault": (700.0, 14),
            "fsync": (5400.0, 45),
            "hash": (413.8296874999991, 146),
            "kernel_read": (78.0, 39),
            "kernel_write": (717.5, 287),
            "ocall": (3320.0, 415),
            "ocall_copy": (97.19531249999976, 326),
        },
    },
    "p1-imm0-stack": {
        "now_us": 14704.576904296771,
        "disk_bytes": 12110,
        "stats": {
            "bytes_compacted": 4958,
            "bytes_flushed": 11223,
            "compactions": 2,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1626.0000000000155, 794),
            "crypto": (90.8349609375, 57),
            "disk_write": (9.66796875, 31),
            "dram_copy": (13.177490234375, 312),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_copy": (12.552343750000002, 24),
            "enclave_touch": (23.000000000000192, 460),
            "epc_page_fault": (800.0, 16),
            "fsync": (5040.0, 42),
            "hash": (131.80195312500013, 57),
            "kernel_read": (56.0, 28),
            "kernel_write": (710.0, 284),
            "ocall": (3120.0, 390),
            "ocall_copy": (42.16796874999996, 312),
        },
    },
    "p1-imm2-compact": {
        "now_us": 10551.827832031211,
        "disk_bytes": 14922,
        "stats": {
            "bytes_compacted": 43602,
            "bytes_flushed": 0,
            "compactions": 8,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1209.6000000000022, 447),
            "crypto": (264.87060546875, 127),
            "disk_write": (22.312890624999998, 34),
            "dram_copy": (27.417236328125, 314),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_copy": (15.714062499999999, 22),
            "enclave_touch": (22.400000000000183, 448),
            "epc_page_fault": (250.0, 5),
            "fsync": (4320.0, 36),
            "hash": (368.6447265624995, 127),
            "kernel_read": (66.0, 33),
            "kernel_write": (702.5, 281),
            "ocall": (2968.0, 371),
            "ocall_copy": (87.7351562499997, 314),
        },
    },
    "p1-imm2-stack": {
        "now_us": 10634.359472656255,
        "disk_bytes": 16252,
        "stats": {
            "bytes_compacted": 4958,
            "bytes_flushed": 10053,
            "compactions": 2,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1384.8000000000077, 593),
            "crypto": (85.1220703125, 49),
            "disk_write": (11.660546875, 31),
            "dram_copy": (12.21923828125, 302),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_copy": (11.63828125, 20),
            "enclave_touch": (22.500000000000185, 450),
            "epc_page_fault": (300.0, 6),
            "fsync": (3960.0, 33),
            "hash": (121.74648437500011, 49),
            "kernel_read": (48.0, 24),
            "kernel_write": (695.0, 278),
            "ocall": (2800.0, 350),
            "ocall_copy": (39.10156250000004, 302),
        },
    },
    "p2-imm0-compact": {
        "now_us": 16131.908466795921,
        "disk_bytes": 80052,
        "dataset_hash": (
            "51e66057c6be41d985ff7e2b0e6b007e"
            "acff22152f7169c19562c78558cf897f"
        ),
        "stats": {
            "bytes_compacted": 280894,
            "bytes_flushed": 0,
            "compactions": 15,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (828.0000000000002, 297),
            "disk_write": (112.16289062500002, 32),
            "dram_copy": (121.289794921875, 296),
            "dram_touch": (4.779999999999986, 239),
            "ecall": (3024.0, 378),
            "ecall_copy": (21.234375000000124, 453),
            "enclave_touch": (15.200000000000081, 304),
            "epc_page_fault": (550.0, 11),
            "fsync": (5160.0, 43),
            "hash": (2124.614062500117, 2988),
            "kernel_read": (22.0, 11),
            "kernel_write": (712.5, 285),
            "ocall": (3048.0, 381),
            "ocall_copy": (388.1273437500012, 296),
        },
    },
    "p2-imm0-stack": {
        "now_us": 14570.296894530722,
        "disk_bytes": 68200,
        "dataset_hash": (
            "d1655a9d62c90a002205a0608c67d7e4"
            "9c837d96cfa2df6d64e0f6b59caca581"
        ),
        "stats": {
            "bytes_compacted": 31688,
            "bytes_flushed": 63473,
            "compactions": 2,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (862.8000000000003, 326),
            "disk_write": (40.51953125000001, 31),
            "dram_copy": (34.12548828125, 288),
            "dram_touch": (5.1799999999999775, 259),
            "ecall": (3024.0, 378),
            "ecall_copy": (20.73437500000012, 468),
            "enclave_touch": (15.200000000000081, 304),
            "epc_page_fault": (550.0, 11),
            "fsync": (5040.0, 42),
            "hash": (1222.5359374999994, 1778),
            "kernel_read": (8.0, 4),
            "kernel_write": (710.0, 284),
            "ocall": (2928.0, 366),
            "ocall_copy": (109.20156249999975, 288),
        },
    },
    "p2-imm2-compact": {
        "now_us": 10769.166191405846,
        "disk_bytes": 79144,
        "dataset_hash": (
            "7105f506fd92af6bc0c99e1f73c35928"
            "4ed28314f53f71d657fa5eed72a0cf1e"
        ),
        "stats": {
            "bytes_compacted": 216492,
            "bytes_flushed": 0,
            "compactions": 11,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (808.7999999999998, 281),
            "disk_write": (89.92031250000001, 32),
            "dram_copy": (91.29150390625, 288),
            "dram_touch": (3.4200000000000026, 171),
            "ecall": (3024.0, 378),
            "ecall_copy": (14.532031250000008, 423),
            "enclave_touch": (16.300000000000097, 326),
            "epc_page_fault": (100.0, 2),
            "fsync": (4080.0, 34),
            "hash": (1711.7634765625621, 2428),
            "kernel_read": (18.0, 9),
            "kernel_write": (697.5, 279),
            "ocall": (2728.0, 341),
            "ocall_copy": (292.13281250000136, 288),
        },
    },
    "p2-imm2-stack": {
        "now_us": 10387.698759765348,
        "disk_bytes": 70898,
        "dataset_hash": (
            "b0d9852d6e34741efb2ae535069769df"
            "620af53c580860f7f4830a2d00485fd9"
        ),
        "stats": {
            "bytes_compacted": 31688,
            "bytes_flushed": 60859,
            "compactions": 2,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (819.5999999999999, 290),
            "disk_write": (41.948046874999996, 31),
            "dram_copy": (33.100341796875, 282),
            "dram_touch": (3.4200000000000026, 171),
            "ecall": (3024.0, 378),
            "ecall_copy": (13.282031250000012, 425),
            "enclave_touch": (16.300000000000097, 326),
            "epc_page_fault": (100.0, 2),
            "fsync": (3960.0, 33),
            "hash": (1057.8718749999794, 1558),
            "kernel_read": (8.0, 4),
            "kernel_write": (695.0, 278),
            "ocall": (2640.0, 330),
            "ocall_copy": (105.92109374999973, 282),
        },
    },
    "plain-enclave-imm0-compact": {
        "now_us": 13491.077939453126,
        "disk_bytes": 10626,
        "stats": {
            "bytes_compacted": 48460,
            "bytes_flushed": 301,
            "compactions": 10,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1276.8000000000043, 503),
            "disk_write": (21.32734375, 29),
            "dram_copy": (24.782470703125, 291),
            "dram_touch": (2.940000000000002, 147),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_touch": (15.550000000000086, 311),
            "epc_page_fault": (550.0, 11),
            "fsync": (4800.0, 40),
            "kernel_read": (18.0, 9),
            "kernel_write": (705.0, 282),
            "ocall": (2968.0, 371),
            "ocall_copy": (79.30390624999974, 291),
        },
    },
    "plain-enclave-imm0-stack": {
        "now_us": 13958.251562500032,
        "disk_bytes": 12134,
        "stats": {
            "bytes_compacted": 4958,
            "bytes_flushed": 11223,
            "compactions": 2,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1626.0000000000155, 794),
            "disk_write": (9.74765625, 31),
            "dram_copy": (9.3046875, 288),
            "dram_touch": (2.5000000000000018, 125),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_touch": (15.550000000000086, 311),
            "epc_page_fault": (550.0, 11),
            "fsync": (5040.0, 42),
            "kernel_read": (8.0, 4),
            "kernel_write": (710.0, 284),
            "ocall": (2928.0, 366),
            "ocall_copy": (29.775000000000034, 288),
        },
    },
    "plain-enclave-imm2-compact": {
        "now_us": 9561.851279296903,
        "disk_bytes": 14880,
        "stats": {
            "bytes_compacted": 43602,
            "bytes_flushed": 0,
            "compactions": 8,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1209.6000000000022, 447),
            "disk_write": (22.234765625, 29),
            "dram_copy": (22.457763671875, 283),
            "dram_touch": (1.640000000000001, 82),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_touch": (18.75000000000013, 375),
            "epc_page_fault": (100.0, 2),
            "fsync": (3720.0, 31),
            "kernel_read": (14.0, 7),
            "kernel_write": (690.0, 276),
            "ocall": (2648.0, 331),
            "ocall_copy": (71.86484374999966, 283),
        },
    },
    "plain-enclave-imm2-stack": {
        "now_us": 10042.261582031248,
        "disk_bytes": 16267,
        "stats": {
            "bytes_compacted": 4958,
            "bytes_flushed": 10053,
            "compactions": 2,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1384.8000000000077, 593),
            "disk_write": (11.70625, 31),
            "dram_copy": (8.61083984375, 282),
            "dram_touch": (1.3400000000000007, 67),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_touch": (18.75000000000013, 375),
            "epc_page_fault": (100.0, 2),
            "fsync": (3960.0, 33),
            "kernel_read": (8.0, 4),
            "kernel_write": (695.0, 278),
            "ocall": (2640.0, 330),
            "ocall_copy": (27.55468750000007, 282),
        },
    },
    "plain-imm0-compact": {
        "now_us": 6848.849814453136,
        "disk_bytes": 10626,
        "stats": {
            "bytes_compacted": 48460,
            "bytes_flushed": 301,
            "compactions": 10,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1276.8000000000043, 503),
            "disk_write": (21.32734375, 29),
            "dram_copy": (24.782470703125, 291),
            "dram_touch": (2.940000000000002, 147),
            "fsync": (4800.0, 40),
            "kernel_read": (18.0, 9),
            "kernel_write": (705.0, 282),
        },
    },
    "plain-imm0-stack": {
        "now_us": 7405.552343749946,
        "disk_bytes": 12134,
        "stats": {
            "bytes_compacted": 4958,
            "bytes_flushed": 11223,
            "compactions": 2,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1626.0000000000155, 794),
            "disk_write": (9.74765625, 31),
            "dram_copy": (9.3046875, 288),
            "dram_touch": (2.5000000000000018, 125),
            "fsync": (5040.0, 42),
            "kernel_read": (8.0, 4),
            "kernel_write": (710.0, 284),
        },
    },
    "plain-imm2-compact": {
        "now_us": 4054.8622167968692,
        "disk_bytes": 14880,
        "stats": {
            "bytes_compacted": 43602,
            "bytes_flushed": 0,
            "compactions": 8,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1209.6000000000022, 447),
            "disk_write": (22.234765625, 29),
            "dram_copy": (22.457763671875, 283),
            "dram_touch": (1.640000000000001, 82),
            "fsync": (3720.0, 31),
            "kernel_read": (14.0, 7),
            "kernel_write": (690.0, 276),
        },
    },
    "plain-imm2-stack": {
        "now_us": 4473.423300781229,
        "disk_bytes": 16267,
        "stats": {
            "bytes_compacted": 4958,
            "bytes_flushed": 10053,
            "compactions": 2,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1384.8000000000077, 593),
            "disk_write": (11.70625, 31),
            "dram_copy": (8.61083984375, 282),
            "dram_touch": (1.3400000000000007, 67),
            "fsync": (3960.0, 33),
            "kernel_read": (8.0, 4),
            "kernel_write": (695.0, 278),
        },
    },
}


GOLDEN_READS: dict[str, dict] = {
    "p2-reads-default": {
        "now_us": 15155.803623046286,
        "disk_bytes": 68329,
        "dataset_hash": (
            "47024ebf7dfce0628cca754a64f15936"
            "34d847a1eadeb17e9b1c3c8d5825f821"
        ),
        "stats": {
            "bytes_compacted": 31688,
            "bytes_flushed": 63473,
            "compactions": 2,
            "flushes": 10,
            "user_bytes_written": 10551,
        },
        "charges": {
            "compute": (871.8000000000003, 329),
            "disk_write": (40.51953125000001, 31),
            "dram_copy": (34.156982421875, 291),
            "dram_touch": (7.939999999999919, 397),
            "ecall": (3376.0, 422),
            "ecall_copy": (41.38828125000006, 549),
            "enclave_touch": (15.350000000000083, 307),
            "epc_page_fault": (550.0, 11),
            "fsync": (5040.0, 42),
            "hash": (1391.8464843750207, 2013),
            "kernel_read": (8.0, 4),
            "kernel_write": (717.5, 287),
            "ocall": (2952.0, 369),
            "ocall_copy": (109.30234374999974, 291),
        },
    },
    "p2-reads-no-early-stop": {
        "now_us": 15274.90733398377,
        "disk_bytes": 68329,
        "dataset_hash": (
            "47024ebf7dfce0628cca754a64f15936"
            "34d847a1eadeb17e9b1c3c8d5825f821"
        ),
        "stats": {
            "bytes_compacted": 31688,
            "bytes_flushed": 63473,
            "compactions": 2,
            "flushes": 10,
            "user_bytes_written": 10551,
        },
        "charges": {
            "compute": (871.8000000000003, 329),
            "disk_write": (40.51953125000001, 31),
            "dram_copy": (34.156982421875, 291),
            "dram_touch": (9.639999999999883, 482),
            "ecall": (3376.0, 422),
            "ecall_copy": (53.645312499999996, 549),
            "enclave_touch": (15.350000000000083, 307),
            "epc_page_fault": (550.0, 11),
            "fsync": (5040.0, 42),
            "hash": (1496.993164062535, 2165),
            "kernel_read": (8.0, 4),
            "kernel_write": (717.5, 287),
            "ocall": (2952.0, 369),
            "ocall_copy": (109.30234374999974, 291),
        },
    },
    "p2-reads-on-demand": {
        "now_us": 25865.555820322767,
        "disk_bytes": 12239,
        "dataset_hash": (
            "47024ebf7dfce0628cca754a64f15936"
            "34d847a1eadeb17e9b1c3c8d5825f821"
        ),
        "stats": {
            "bytes_compacted": 4958,
            "bytes_flushed": 11223,
            "compactions": 2,
            "flushes": 10,
            "user_bytes_written": 10551,
        },
        "charges": {
            "compute": (871.8000000000003, 329),
            "disk_write": (9.66796875, 31),
            "dram_copy": (74.056640625, 474),
            "dram_touch": (0.14, 7),
            "ecall": (3376.0, 422),
            "ecall_copy": (41.38828125000006, 549),
            "enclave_touch": (15.350000000000083, 307),
            "epc_page_fault": (550.0, 11),
            "fsync": (5040.0, 42),
            "hash": (10142.671679684468, 15928),
            "kernel_read": (374.0, 187),
            "kernel_write": (717.5, 287),
            "ocall": (4416.0, 552),
            "ocall_copy": (236.98124999999993, 474),
        },
    },
    "p2-reads-no-bloom": {
        "now_us": 15904.170029295987,
        "disk_bytes": 68329,
        "dataset_hash": (
            "47024ebf7dfce0628cca754a64f15936"
            "34d847a1eadeb17e9b1c3c8d5825f821"
        ),
        "stats": {
            "bytes_compacted": 31688,
            "bytes_flushed": 63473,
            "compactions": 2,
            "flushes": 10,
            "user_bytes_written": 10551,
        },
        "charges": {
            "compute": (871.8000000000003, 329),
            "disk_write": (40.51953125000001, 31),
            "dram_copy": (34.156982421875, 291),
            "dram_touch": (12.739999999999817, 637),
            "ecall": (3376.0, 422),
            "ecall_copy": (109.90624999999959, 567),
            "enclave_touch": (15.350000000000083, 307),
            "epc_page_fault": (550.0, 11),
            "fsync": (5040.0, 42),
            "hash": (2066.8949218751177, 3169),
            "kernel_read": (8.0, 4),
            "kernel_write": (717.5, 287),
            "ocall": (2952.0, 369),
            "ocall_copy": (109.30234374999974, 291),
        },
    },
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden(case):
    assert run_case(case) == GOLDEN[_case_id(case)]


@pytest.mark.parametrize("name", READ_CASES)
def test_golden_reads(name):
    assert run_read_case(name) == GOLDEN_READS[name]


if __name__ == "__main__":
    pprint.pprint({_case_id(case): run_case(case) for case in CASES}, width=88)
    pprint.pprint({name: run_read_case(name) for name in READ_CASES}, width=88)
