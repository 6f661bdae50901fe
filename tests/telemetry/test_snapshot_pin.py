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
    "p2-imm0-compact": "d100c0e180a3f1b984936f391307e873c305eb4ba234a0013133161f92b9a8a4",
    "p2-imm0-stack": "5037af6efef3faab1b861a221e2258100fac25a7d9bb77074973e7e017d0f192",
    "p2-imm2-compact": "b13bdbdbe8cfbd17b74497281d10c4804d38e927653d4777cc497c2ff5870715",
    "p2-imm2-stack": "9fa98e06cd4274599b6583ce24ead68175c683dbcc1d4e10881390a7cbdc91fe",
    "p1-imm0-compact": "be6f02949d2ee036a9c17fab1b034c1a25879881eb7b759fcb3f3a44e152f9bb",
    "p1-imm0-stack": "60ceabaa61708f0187df1715bf2912b670d75332ac85bd94fd6406a2151b1e58",
    "p1-imm2-compact": "8ce4b4876ff01740f833768c0e52a90575a1271db7a15f11df4890a1a54ad550",
    "p1-imm2-stack": "3bea6015437872949d7be5e1f817549ee56c48678a8a8f457df976624dea263b",
    "plain-enclave-imm0-compact": "03b154423789f788aa302a556aaa7bedcdf2039f2d7534b43fa42cf1011271ee",
    "plain-enclave-imm0-stack": "f835edfb4effe4141784f43d3bb32b71241c8aea8c01879bfcf24e23c2c14bf5",
    "plain-enclave-imm2-compact": "c8d9826a8549e5949ca6e29205f55fdab9235ed84e218ef5a4a512a146268472",
    "plain-enclave-imm2-stack": "d7fd34a62da25599a05b06227e5ee7978419a77db3d3d3ff8da66b7e21bf74e3",
    "plain-imm0-compact": "b5e8ced7aa65bf02d32bfef493ef50ac7c8079c699d2b32b145affa503637ca7",
    "plain-imm0-stack": "f845965b7c04ccd14baabe275478ba83b2d89331ee8e298229d09052448e41f9",
    "plain-imm2-compact": "02c9a8b074b6eee0d79e55d2c5259dc5e74390aa1224d523567ce6e72e3af035",
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
