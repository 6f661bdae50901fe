"""The crash-consistency harness end to end (a fast deterministic slice).

The full matrix runs via ``python -m repro crash-test``; these tests pin
a representative subset so regressions in the recovery invariants fail
in the unit suite, not just in CI's smoke job.
"""

from repro.cli import main as cli_main
from repro.faults import CrashConsistencyHarness


def run(h, site, hit=1):
    result = h.run_site(site, hit)
    assert result.triggered, f"{site} never fired"
    assert result.ok, f"{result.scenario}: {result.detail}"
    return result


def test_flush_and_commit_sites_recover():
    h = CrashConsistencyHarness(seed=11, ops=100)
    for site in (
        "flush.after_install",
        "flush.after_wal_epoch",
        "commit.before_hook",
        "commit.after_hook",
    ):
        run(h, site)


def test_wal_and_seal_sites_recover():
    h = CrashConsistencyHarness(seed=23, ops=100)
    run(h, "wal.append.after_write", hit=3)
    run(h, "wal.sync.before_fsync")
    run(h, "seal.before_write", hit=2)
    run(h, "seal.after_write")


def test_recovered_prefix_bounds():
    """The headline invariants as numbers: no durable loss, bounded tail."""
    h = CrashConsistencyHarness(seed=3, ops=100, sync_every=4)
    result = run(h, "manifest.before_write")
    assert result.recovered_ts >= result.durable_floor
    assert result.acked - result.recovered_ts <= h.sync_every


def test_random_crash_recovers():
    h = CrashConsistencyHarness(seed=5, ops=100)
    result = h.run_random_crash(1)
    assert result.triggered and result.ok, result.detail


def test_rollback_attack_detected():
    result = CrashConsistencyHarness(seed=2, ops=60).run_rollback_check()
    assert result.ok, result.detail
    assert "rollback detected" in result.detail


def test_fsync_loss_detected_or_superseded():
    result = CrashConsistencyHarness(seed=4, ops=100).run_fsync_loss()
    assert result.triggered and result.ok, result.detail


def test_cli_crash_test_smoke(capsys):
    code = cli_main(
        [
            "crash-test",
            "--seed", "1",
            "--ops", "80",
            "--quick",
            "--sites", "flush.after_install,seal.before_write",
            "--random-rounds", "1",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "0 failed" in out


def test_background_flush_site_recovers():
    """The workload drains the immutable queue as the flusher thread
    does, so the background flush's commit is crashed at too."""
    h = CrashConsistencyHarness(seed=0, ops=100)
    run(h, "flush.background.publish")
    run(h, "flush.background.publish", hit=3)


def test_cli_crash_test_fails_on_an_unreached_site(capsys):
    """Every scenario fires and passes; only the site's hit count is out
    of reach, and that alone fails the run."""
    code = cli_main(
        [
            "crash-test",
            "--seed", "1",
            "--ops", "120",
            "--hits", "1000",
            "--sites", "flush.background.publish",
            "--random-rounds", "0",
        ]
    )
    captured = capsys.readouterr()
    assert "0 failed" in captured.out
    assert code == 1
    assert "flush.background.publish" in captured.err


def test_every_random_round_and_fsync_loss_fires():
    """At these parameters a budget drawn without a dry run exceeds the
    workload's disk ops; every round and fsync-loss must still crash."""
    h = CrashConsistencyHarness(seed=1, ops=120)
    for result in h.run_random_crashes(2) + [h.run_fsync_loss()]:
        assert result.triggered, f"{result.scenario} never crashed"
        assert result.ok, f"{result.scenario}: {result.detail}"


def test_cli_crash_test_fails_on_a_scenario_that_never_fires(capsys):
    """One mutation makes no third WAL fsync for the device to drop."""
    code = cli_main(
        [
            "crash-test",
            "--ops", "1",
            "--quick",
            "--sites", "seal.before_write",
            "--random-rounds", "0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "fsync-loss" in out and "NOT-REACHED" in out
