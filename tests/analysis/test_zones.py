"""Zone classification: precedence, roles, and config validation."""

from __future__ import annotations

import pytest

from repro.analysis import Zone, ZoneConfig, load_zone_config


def test_exact_match_beats_glob():
    config = ZoneConfig(
        zones={
            Zone.ENCLAVE: ["repro.enc.*"],
            Zone.UNTRUSTED: ["repro.enc.special"],
        }
    )
    assert config.zone_of("repro.enc.special") is Zone.UNTRUSTED
    assert config.zone_of("repro.enc.other") is Zone.ENCLAVE


def test_longest_glob_wins():
    config = ZoneConfig(
        zones={
            Zone.ENCLAVE: ["repro.x.*"],
            Zone.UNTRUSTED: ["repro.x.deep.*"],
        }
    )
    assert config.zone_of("repro.x.deep.mod") is Zone.UNTRUSTED
    assert config.zone_of("repro.x.shallow") is Zone.ENCLAVE


def test_unmatched_module_is_neutral():
    config = ZoneConfig(zones={Zone.ENCLAVE: ["repro.enc.*"]})
    assert config.zone_of("repro.lsm.db") is Zone.NEUTRAL
    # A glob does not match its own prefix.
    assert config.zone_of("repro.enc") is Zone.NEUTRAL


def test_is_fail_closed_covers_enclave_zone_and_role():
    config = ZoneConfig(
        zones={Zone.ENCLAVE: ["repro.enc.*"]},
        fail_closed=["repro.core.wire"],
    )
    assert config.is_fail_closed("repro.enc.verifier")
    assert config.is_fail_closed("repro.core.wire")
    assert not config.is_fail_closed("repro.lsm.db")


def test_load_rejects_unknown_keys(tmp_path):
    path = tmp_path / "zones.toml"
    path.write_text("[zones]\nenclave = []\n\n[roles]\nbogus = []\n")
    with pytest.raises(ValueError, match="roles.bogus"):
        load_zone_config(path)


def test_load_rejects_unknown_zone_name(tmp_path):
    path = tmp_path / "zones.toml"
    path.write_text("[zones]\nhyperspace = ['repro.*']\n")
    with pytest.raises(ValueError):
        load_zone_config(path)


def test_load_roundtrip(tmp_path):
    path = tmp_path / "zones.toml"
    path.write_text(
        "[zones]\n"
        "enclave = ['repro.enc.*']\n"
        "untrusted = ['repro.host.*']\n"
        "[roles]\n"
        "fail_closed = ['repro.fc']\n"
        "wire = ['repro.wireish']\n"
        "crash_plan = 'repro.plan'\n"
        "crash_catchers = ['repro.catcher']\n"
        "[telemetry]\n"
        "doc = 'docs/obs.md'\n"
        "name_pattern = '^[a-z.]+$'\n"
    )
    config = load_zone_config(path)
    assert config.zone_of("repro.enc.a") is Zone.ENCLAVE
    assert config.zone_of("repro.host.b") is Zone.UNTRUSTED
    assert config.crash_plan == "repro.plan"
    assert config.crash_catchers == ["repro.catcher"]
    assert config.telemetry_doc == "docs/obs.md"
    assert config.metric_name_pattern == "^[a-z.]+$"


def test_load_rejects_a_string_where_a_list_is_expected(tmp_path):
    # A bare string must not be read as its list of characters: that
    # would quietly stop EL503 checking verify_get.
    path = tmp_path / "zones.toml"
    path.write_text('[taint]\nverifiers = "verify_get"\n')
    with pytest.raises(ValueError, match=r"taint\.verifiers: expected an array"):
        load_zone_config(path)


def test_load_rejects_a_list_where_a_string_is_expected(tmp_path):
    path = tmp_path / "zones.toml"
    path.write_text('[roles]\ncrash_plan = ["x"]\n')
    with pytest.raises(ValueError, match=r"roles\.crash_plan: expected a string"):
        load_zone_config(path)


def test_load_rejects_a_non_string_list_element(tmp_path):
    path = tmp_path / "zones.toml"
    path.write_text('[concurrency]\nbackground_entries = ["repro.w._run", 3]\n')
    with pytest.raises(
        ValueError, match=r"concurrency\.background_entries\[1\]: expected a string"
    ):
        load_zone_config(path)


def test_load_rejects_a_mapping_value_of_the_wrong_type(tmp_path):
    path = tmp_path / "zones.toml"
    path.write_text('[protocol]\neffects."wal.fsync" = "file_fsync"\n')
    with pytest.raises(ValueError, match=r"protocol\.effects\.wal\.fsync: expected an array"):
        load_zone_config(path)


def test_repo_zone_config_classifies_core_modules():
    """Sanity-check the checked-in zones.toml against the real layout."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    config = load_zone_config(root / "analysis" / "zones.toml")
    assert config.zone_of("repro.core.verifier") is Zone.ENCLAVE
    assert config.zone_of("repro.mht.merkle") is Zone.ENCLAVE
    assert config.zone_of("repro.core.prover") is Zone.UNTRUSTED
    assert config.zone_of("repro.sim.disk") is Zone.UNTRUSTED
    assert config.zone_of("repro.sgx.env") is Zone.BOUNDARY
    assert config.zone_of("repro.lsm.records") is Zone.NEUTRAL
    assert config.is_fail_closed("repro.core.wire")
