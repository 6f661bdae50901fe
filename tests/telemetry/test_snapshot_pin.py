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
    "p2-imm0-compact": "345722b9e99b0151ad3b04b0ea97ed96501efd9df977b255539e71abde379bf5",
    "p2-imm0-stack": "69e1afcf559e0bb43610deb3cd8659977194bafb9a42f7c8c3b8f2ec6d1c50f0",
    "p2-imm2-compact": "9325d8ef126bbffb7d4e414427f2a14d4c11afef388c8b290d7f31ba8506ca6a",
    "p2-imm2-stack": "a471de84f4eca76be257047fc57aedb14dfa12037f8580f353cc854e26dc79a8",
    "p1-imm0-compact": "51ddf6b5d7caf1df89bfa122d009ab1a917bc60e534500ca2b0498dc65244887",
    "p1-imm0-stack": "4d207696a176d0b8751ad7360a4a56dd5c585cc75cc452a50c989e366fafbdeb",
    "p1-imm2-compact": "522a46a49b95c129c72305d33899f5d114cf83bacd8806ba78915ec93900e1f1",
    "p1-imm2-stack": "1ed7c072e490e8712d658f4a62cf9f50d2c3ebc8badbddc88895e185b84ee93b",
    "plain-enclave-imm0-compact": "85b4a8ec2743add0280e3a6cb74e0de435a055a9d6bbc7db1d64c461cbc108d3",
    "plain-enclave-imm0-stack": "f835edfb4effe4141784f43d3bb32b71241c8aea8c01879bfcf24e23c2c14bf5",
    "plain-enclave-imm2-compact": "b7acea5c5d3fd18e3c618b339190d4201359a38ae918e115dd6397bba7a8b893",
    "plain-enclave-imm2-stack": "d7fd34a62da25599a05b06227e5ee7978419a77db3d3d3ff8da66b7e21bf74e3",
    "plain-imm0-compact": "9d779fc485d46cf472378df5b6789d3e4bbc9554379bf19526b3b8ece1ceeeb2",
    "plain-imm0-stack": "f845965b7c04ccd14baabe275478ba83b2d89331ee8e298229d09052448e41f9",
    "plain-imm2-compact": "3fccaf00396ad1db04f26ec635f75593e47ac88be4119ccbb0e944e138cf41ba",
    "plain-imm2-stack": "d57abfba633667e39f3fb334a41676e8ba576890f44c99f5bbf6ede8ef4edb9b",
}


PINNED_READS: dict[str, str] = {
    "p2-reads-default": "6080bde5bc29b413b4f617eedc930bf5fba9abe5f33dde4d90eca1346ce70abb",
    "p2-reads-no-early-stop": "01028258f9638c1fb42df7bc1cc739597dcd845b319a8da7f1905014aa7f1ed9",
    "p2-reads-on-demand": "9adb37f7c80af517755e77b0507a2e4adc677ad4b72472099fc0393b70ae8b89",
    "p2-reads-no-bloom": "4a620d2db64f5ebfba391d38dd076a96f09b454e1f414d6980ac0e43838d0682",
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
