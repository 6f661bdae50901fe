"""Telemetry pin: one fixed script, exact telemetry output on every store.

``tests/test_golden.py`` pins every simulated outcome of its script; this
file pins everything the stores' telemetry records while running the same
scripts on the same 16 cases and four P2 read cases: the metrics
snapshot, each exported span (name, start/end, attributes and both cost
ledgers), the tracer's ``attributed_total()`` and the kinds of the
recorded events.  Each case hashes the canonical JSON of those four
parts with SHA-256, so a change that claims to leave telemetry output
alone is checked against every counter series, histogram bucket, span
ledger and event at once.

``python tests/telemetry/test_snapshot_pin.py`` prints the current
digests in the literal's format.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from tests.test_golden import (
    CASES,
    READ_CASES,
    _case_id,
    _drive,
    _drive_reads,
    _make,
    _make_reads,
)


def telemetry_dump(store) -> dict:
    """The parts of a store's telemetry this pin covers."""
    telemetry = store.telemetry
    spans = [
        {
            "name": span["name"],
            "start_us": span["start_us"],
            "end_us": span["end_us"],
            "attributes": span["attributes"],
            "self_cost": span["self_cost"],
            "inclusive_cost": span["inclusive_cost"],
        }
        for span in telemetry.tracer.export()
    ]
    return {
        "metrics": telemetry.metrics.snapshot(),
        "spans": spans,
        "attributed_total": telemetry.tracer.attributed_total().to_dict(),
        "event_kinds": [event["kind"] for event in telemetry.events.export()],
    }


def _digest(store) -> str:
    canonical = json.dumps(telemetry_dump(store), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def telemetry_digest(case) -> str:
    store = _make(*case)
    _drive(store)
    return _digest(store)


def read_telemetry_digest(name: str) -> str:
    store = _make_reads(name)
    _drive_reads(store)
    return _digest(store)


PINNED: dict[str, str] = {
    "p2-imm0-compact": "600d602a4a9db9edf2a82724dca9af3599c5b0954cbf37702ac3cd2c84a20c3b",
    "p2-imm0-stack": "5037af6efef3faab1b861a221e2258100fac25a7d9bb77074973e7e017d0f192",
    "p2-imm2-compact": "45f32ed5da385bd57234bf60856d3a1ef5306729d3f8b76fe70914084d51048e",
    "p2-imm2-stack": "9fa98e06cd4274599b6583ce24ead68175c683dbcc1d4e10881390a7cbdc91fe",
    "p1-imm0-compact": "b1b9d3d7d93ee8a417935cdb675c57672d1647fe64069d90865002e2976b3c59",
    "p1-imm0-stack": "60ceabaa61708f0187df1715bf2912b670d75332ac85bd94fd6406a2151b1e58",
    "p1-imm2-compact": "6f3fba99484768bb66c1f24b83855c9d9c9ec1161d57ed87f0217bc0e94c7aca",
    "p1-imm2-stack": "3bea6015437872949d7be5e1f817549ee56c48678a8a8f457df976624dea263b",
    "plain-enclave-imm0-compact": "08d8d02b371f1c63763413bf58ee284296ab9b5995e6517debc7a40d50e07ae6",
    "plain-enclave-imm0-stack": "f835edfb4effe4141784f43d3bb32b71241c8aea8c01879bfcf24e23c2c14bf5",
    "plain-enclave-imm2-compact": "27d7e93b61b8ce9b4d72f7dc5d218145450a0bb3a3a2cfa7ebb7928a317ee90c",
    "plain-enclave-imm2-stack": "d7fd34a62da25599a05b06227e5ee7978419a77db3d3d3ff8da66b7e21bf74e3",
    "plain-imm0-compact": "a1c246641b8417e812b354c7aa50520baa8acdc93d7f3567d0bad51ef3dbc1b4",
    "plain-imm0-stack": "f845965b7c04ccd14baabe275478ba83b2d89331ee8e298229d09052448e41f9",
    "plain-imm2-compact": "d7cc92f98ec4a350de3cdd49468c08ca07c89a4cd9a79b1d249171534f403923",
    "plain-imm2-stack": "d57abfba633667e39f3fb334a41676e8ba576890f44c99f5bbf6ede8ef4edb9b",
}


PINNED_READS: dict[str, str] = {
    "p2-reads-default": "f23d721bdb9dc7a683413af888e3357e35d285712eb4594f32061d8338f37294",
    "p2-reads-no-early-stop": "7ea8bc4e3cdca6cce6506ac65ef55b1ea3961875cda7ea301a41d4b5d44260ae",
    "p2-reads-on-demand": "90ee14125604440c6f6104e590665043b920e9e87cbdc0052b43fdf426eba085",
    "p2-reads-no-bloom": "592621a3fa019bf081bf3ca9211ea526f1d1ad87113a4706dfde58417b65f4e3",
}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_telemetry_output_matches_pin(case):
    assert telemetry_digest(case) == PINNED[_case_id(case)]


@pytest.mark.parametrize("name", READ_CASES)
def test_read_telemetry_matches_pin(name):
    assert read_telemetry_digest(name) == PINNED_READS[name]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{_case_id(case)}": "{telemetry_digest(case)}",')
    for name in READ_CASES:
        print(f'    "{name}": "{read_telemetry_digest(name)}",')
