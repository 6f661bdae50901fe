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


GOLDEN: dict[str, dict] = {
    "p1-imm0-compact": {
        "now_us": 18653.848437499735,
        "disk_bytes": 10665,
        "stats": {
            "bytes_compacted": 48460,
            "bytes_flushed": 11524,
            "compactions": 10,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1276.8000000000043, 503),
            "crypto": (323.59130859375, 164),
            "disk_write": (26.327734375000002, 52),
            "dram_copy": (36.17138671875, 394),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_copy": (17.675781249999996, 26),
            "enclave_touch": (21.750000000000174, 435),
            "epc_page_fault": (700.0, 14),
            "fsync": (7560.0, 63),
            "hash": (453.90957031249883, 164),
            "kernel_read": (178.0, 89),
            "kernel_write": (762.5, 305),
            "ocall": (4152.0, 519),
            "ocall_copy": (115.7484375, 394),
        },
    },
    "p1-imm0-stack": {
        "now_us": 14744.57690429677,
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
            "dram_copy": (13.177490234375, 316),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_copy": (12.552343750000002, 24),
            "enclave_touch": (23.000000000000192, 460),
            "epc_page_fault": (800.0, 16),
            "fsync": (5040.0, 42),
            "hash": (131.80195312500013, 57),
            "kernel_read": (64.0, 32),
            "kernel_write": (710.0, 284),
            "ocall": (3152.0, 394),
            "ocall_copy": (42.16796874999995, 316),
        },
    },
    "p1-imm2-compact": {
        "now_us": 11007.685644531199,
        "disk_bytes": 14922,
        "stats": {
            "bytes_compacted": 43602,
            "bytes_flushed": 10053,
            "compactions": 8,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1209.6000000000022, 447),
            "crypto": (289.4140625, 142),
            "disk_write": (26.625390625, 48),
            "dram_copy": (32.56689453125, 372),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_copy": (15.714062499999999, 22),
            "enclave_touch": (22.400000000000183, 448),
            "epc_page_fault": (250.0, 5),
            "fsync": (6000.0, 50),
            "hash": (404.0968749999993, 142),
            "kernel_read": (154.0, 77),
            "kernel_write": (737.5, 295),
            "ocall": (3656.0, 457),
            "ocall_copy": (104.21406249999977, 372),
        },
    },
    "p1-imm2-stack": {
        "now_us": 10674.359472656253,
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
            "dram_copy": (12.21923828125, 306),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_copy": (11.63828125, 20),
            "enclave_touch": (22.500000000000185, 450),
            "epc_page_fault": (300.0, 6),
            "fsync": (3960.0, 33),
            "hash": (121.74648437500011, 49),
            "kernel_read": (56.0, 28),
            "kernel_write": (695.0, 278),
            "ocall": (2832.0, 354),
            "ocall_copy": (39.101562500000036, 306),
        },
    },
    "p2-imm0-compact": {
        "now_us": 25211.512275393332,
        "disk_bytes": 80052,
        "dataset_hash": (
            "51e66057c6be41d985ff7e2b0e6b007e"
            "acff22152f7169c19562c78558cf897f"
        ),
        "stats": {
            "bytes_compacted": 347209,
            "bytes_flushed": 63473,
            "compactions": 15,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (828.0000000000002, 297),
            "disk_write": (163.713671875, 60),
            "dram_copy": (185.195556640625, 611),
            "dram_touch": (4.779999999999986, 239),
            "ecall": (3024.0, 378),
            "ecall_copy": (21.234375000000124, 453),
            "enclave_touch": (15.200000000000081, 304),
            "epc_page_fault": (550.0, 11),
            "fsync": (8520.0, 71),
            "hash": (3912.2628906253763, 6067),
            "kernel_read": (596.0, 298),
            "kernel_write": (782.5, 313),
            "ocall": (6016.0, 752),
            "ocall_copy": (592.62578125, 611),
        },
    },
    "p2-imm0-stack": {
        "now_us": 14930.64806640565,
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
            "dram_copy": (34.12548828125, 313),
            "dram_touch": (5.1799999999999775, 259),
            "ecall": (3024.0, 378),
            "ecall_copy": (20.73437500000012, 468),
            "enclave_touch": (15.200000000000081, 304),
            "epc_page_fault": (550.0, 11),
            "fsync": (5040.0, 42),
            "hash": (1332.8871093750133, 1974),
            "kernel_read": (58.0, 29),
            "kernel_write": (710.0, 284),
            "ocall": (3128.0, 391),
            "ocall_copy": (109.20156249999974, 313),
        },
    },
    "p2-imm2-compact": {
        "now_us": 13484.311650389684,
        "disk_bytes": 79144,
        "dataset_hash": (
            "7105f506fd92af6bc0c99e1f73c35928"
            "4ed28314f53f71d657fa5eed72a0cf1e"
        ),
        "stats": {
            "bytes_compacted": 274527,
            "bytes_flushed": 60859,
            "compactions": 11,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (808.7999999999998, 281),
            "disk_write": (136.959765625, 52),
            "dram_copy": (149.718017578125, 538),
            "dram_touch": (3.4200000000000026, 171),
            "ecall": (3024.0, 378),
            "ecall_copy": (14.532031250000008, 423),
            "enclave_touch": (16.300000000000097, 326),
            "epc_page_fault": (100.0, 2),
            "flush_wait": (211.39916992184317, 2),
            "fsync": (6480.0, 54),
            "hash": (3163.4630859377753, 4917),
            "kernel_read": (478.0, 239),
            "kernel_write": (747.5, 299),
            "ocall": (5048.0, 631),
            "ocall_copy": (479.09765625, 538),
        },
    },
    "p2-imm2-stack": {
        "now_us": 10746.737431640277,
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
            "dram_copy": (33.100341796875, 307),
            "dram_touch": (3.4200000000000026, 171),
            "ecall": (3024.0, 378),
            "ecall_copy": (13.282031250000012, 425),
            "enclave_touch": (16.300000000000097, 326),
            "epc_page_fault": (100.0, 2),
            "fsync": (3960.0, 33),
            "hash": (1168.0355468749913, 1754),
            "kernel_read": (58.0, 29),
            "kernel_write": (695.0, 278),
            "ocall": (2840.0, 355),
            "ocall_copy": (105.92109374999973, 307),
        },
    },
    "plain-enclave-imm0-compact": {
        "now_us": 16297.138828124975,
        "disk_bytes": 10626,
        "stats": {
            "bytes_compacted": 48460,
            "bytes_flushed": 11524,
            "compactions": 10,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1276.8000000000043, 503),
            "disk_write": (26.169531250000006, 47),
            "dram_copy": (30.548828125, 323),
            "dram_touch": (2.940000000000002, 147),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_touch": (15.550000000000086, 311),
            "epc_page_fault": (550.0, 11),
            "fsync": (6960.0, 58),
            "kernel_read": (46.0, 23),
            "kernel_write": (750.0, 300),
            "ocall": (3512.0, 439),
            "ocall_copy": (97.75624999999978, 323),
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
        "now_us": 9891.752451171902,
        "disk_bytes": 14880,
        "stats": {
            "bytes_compacted": 43602,
            "bytes_flushed": 10053,
            "compactions": 8,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1209.6000000000022, 447),
            "disk_write": (26.509375000000006, 43),
            "dram_copy": (27.583740234375, 309),
            "dram_touch": (1.640000000000001, 82),
            "ecall": (3024.0, 378),
            "ecall_copy": (5.374218749999972, 377),
            "enclave_touch": (18.75000000000013, 375),
            "epc_page_fault": (100.0, 2),
            "fsync": (5400.0, 45),
            "kernel_read": (38.0, 19),
            "kernel_write": (725.0, 290),
            "ocall": (3080.0, 385),
            "ocall_copy": (88.26796874999971, 309),
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
        "now_us": 9092.458359375069,
        "disk_bytes": 10626,
        "stats": {
            "bytes_compacted": 48460,
            "bytes_flushed": 11524,
            "compactions": 10,
            "flushes": 10,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1276.8000000000043, 503),
            "disk_write": (26.169531250000006, 47),
            "dram_copy": (30.548828125, 323),
            "dram_touch": (2.940000000000002, 147),
            "fsync": (6960.0, 58),
            "kernel_read": (46.0, 23),
            "kernel_write": (750.0, 300),
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
        "now_us": 4545.548789062488,
        "disk_bytes": 14880,
        "stats": {
            "bytes_compacted": 43602,
            "bytes_flushed": 10053,
            "compactions": 8,
            "flushes": 7,
            "user_bytes_written": 10446,
        },
        "charges": {
            "compute": (1209.6000000000022, 447),
            "disk_write": (26.509375000000006, 43),
            "dram_copy": (27.583740234375, 309),
            "dram_touch": (1.640000000000001, 82),
            "flush_wait": (237.1854003906251, 2),
            "fsync": (5400.0, 45),
            "kernel_read": (38.0, 19),
            "kernel_write": (725.0, 290),
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


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden(case):
    assert run_case(case) == GOLDEN[_case_id(case)]


if __name__ == "__main__":
    pprint.pprint({_case_id(case): run_case(case) for case in CASES}, width=88)
