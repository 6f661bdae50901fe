"""The command-line interface."""

import pytest

from repro.cli import main


def test_demo_runs_clean(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "stale-read attack detected" in out
    assert "CLEAN" in out


def test_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    assert "fig5a" in out and "ablation_counter_buffer" in out


def test_bench_unknown_experiment(capsys):
    assert main(["bench", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_bench_tiny_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        ["bench", "ablation_counter_buffer", "--ops", "10",
         "--factor", "0.00006", "--save"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "anchor every N writes" in out
    assert (tmp_path / "results" / "ablation_counter_buffer.txt").exists()


def test_ycsb_run(capsys):
    assert main(
        ["ycsb", "--workload", "C", "--system", "plain",
         "--records", "300", "--ops", "100", "--factor", "0.0002"]
    ) == 0
    out = capsys.readouterr().out
    assert "us/op mean" in out
    assert "read" in out


def test_audit_clean(capsys):
    assert main(["audit"]) == 0
    assert "CLEAN" in capsys.readouterr().out


def test_audit_tampered_detects(capsys):
    assert main(["audit", "--tamper"]) == 0
    out = capsys.readouterr().out
    assert "PROBLEMS FOUND" in out


def test_missing_command_errors():
    with pytest.raises(SystemExit):
        main([])


def test_ycsb_multiget_json_out(capsys, tmp_path):
    out_path = tmp_path / "run.json"
    assert main(
        ["ycsb", "--workload", "C", "--system", "p2",
         "--records", "300", "--ops", "120", "--factor", "0.000244",
         "--multiget", "16", "--json-out", str(out_path)]
    ) == 0
    import json

    payload = json.loads(out_path.read_text())
    assert payload["multiget"] == 16
    assert payload["verified_multi_gets"] > 0
    assert payload["per_op"]["read"]["count"] == 120
    assert payload["proof_bytes_total"] > 0


def test_bench_json_out(capsys, tmp_path):
    out_path = tmp_path / "bench.json"
    assert main(
        ["bench", "ablation_counter_buffer", "--ops", "10",
         "--factor", "0.00006", "--json-out", str(out_path)]
    ) == 0
    import json

    payload = json.loads(out_path.read_text())
    assert payload["experiment"] == "ablation_counter_buffer"
    assert payload["rows"]


def test_perf_baseline_quick_check(capsys, tmp_path, monkeypatch):
    """A fresh quick run must beat the acceptance bars, round-trip its
    baseline file, and pass its own regression check."""
    import repro.bench.perf_baseline as pb

    monkeypatch.setitem(
        pb.PROFILES, "quick",
        {"records": 600, "distinct_keys": 200, "batch_size": 120},
    )
    out_path = tmp_path / "BENCH_perf.json"
    assert main(["perf-baseline", "--quick", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "identical results: True" in out
    assert main(
        ["perf-baseline", "--quick", "--check", str(out_path)]
    ) == 0


def test_perf_baseline_appends_history(capsys, tmp_path, monkeypatch):
    import repro.bench.perf_baseline as pb
    from repro.bench.history import load_history

    monkeypatch.setitem(
        pb.PROFILES, "quick",
        {"records": 400, "distinct_keys": 150, "batch_size": 80},
    )
    history_path = tmp_path / "history.jsonl"
    for _ in range(2):
        assert main(
            ["perf-baseline", "--quick", "--history", str(history_path)]
        ) == 0
    assert "history appended to" in capsys.readouterr().out
    records = load_history(str(history_path))
    assert len(records) == 2
    assert all(r["profile"] == "quick" for r in records)


def test_ycsb_trace_and_events_out(capsys, tmp_path):
    """--trace-out writes a Perfetto-loadable trace, --events-out JSONL."""
    import json

    trace_path = tmp_path / "run.trace.json"
    events_path = tmp_path / "run.events.jsonl"
    assert main(
        ["ycsb", "--workload", "C", "--system", "p2",
         "--records", "300", "--ops", "60", "--factor", "0.000244",
         "--multiget", "16",
         "--trace-out", str(trace_path), "--events-out", str(events_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "trace written to" in out
    trace = json.loads(trace_path.read_text())
    assert trace["otherData"]["schema"] == "elsm-trace-1"
    names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
    assert "elsm.multi_get" in names
    assert events_path.exists()


def test_trace_report_reproduces_multiget_finding(capsys, tmp_path):
    """trace-report on a YCSB trace reproduces the MULTIGET cost story:
    the batch span's cost is dominated by boundary + proof work."""
    import json

    trace_path = tmp_path / "run.trace.json"
    assert main(
        ["ycsb", "--workload", "C", "--system", "p2",
         "--records", "300", "--ops", "60", "--factor", "0.000244",
         "--multiget", "16", "--trace-out", str(trace_path)]
    ) == 0
    capsys.readouterr()
    json_path = tmp_path / "report.json"
    assert main(
        ["trace-report", str(trace_path), "--json-out", str(json_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "top-down cost tree" in out
    assert "elsm.multi_get" in out
    payload = json.loads(json_path.read_text())
    assert payload["complete"] is True
    attr = payload["attribution"]["elsm.multi_get"]
    assert attr["boundary_proof_pct"] >= 80.0


def test_trace_report_rejects_garbage(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"metrics": {}}')
    assert main(["trace-report", str(bad)]) == 2
    assert "cannot load trace" in capsys.readouterr().err


def test_perf_report_renders_and_strict_flags(capsys, tmp_path):
    from repro.bench.history import append_history, history_record

    def result(batch_us):
        return {
            "profile": "quick", "batch_us": batch_us,
            "sequential_us": batch_us * 10, "us_saved_pct": 90.0,
            "batch_proof_bytes": 100, "sequential_proof_bytes": 500,
            "proof_bytes_saved_pct": 80.0,
        }

    history_path = tmp_path / "history.jsonl"
    for us in (100.0, 200.0):
        append_history(
            str(history_path),
            history_record(result(us), timestamp="t", commit="c"),
        )
    csv_path = tmp_path / "report.csv"
    md_path = tmp_path / "report.md"
    assert main(
        ["perf-report", "--history", str(history_path),
         "--csv-out", str(csv_path), "--md-out", str(md_path)]
    ) == 0
    err = capsys.readouterr().err
    assert "REGRESSION" in err
    assert "REGRESSION" in csv_path.read_text()
    assert "# Perf trajectory" in md_path.read_text()
    # --strict turns the flagged regression into a failing exit code.
    assert main(
        ["perf-report", "--history", str(history_path), "--strict"]
    ) == 1


def test_perf_report_missing_history(capsys, tmp_path):
    missing = tmp_path / "nope.jsonl"
    assert main(["perf-report", "--history", str(missing)]) == 2
    assert "cannot read history" in capsys.readouterr().err


def test_ycsb_plain_json_out_carries_the_report(capsys, tmp_path):
    """The unsecured store reports through the shared placement shell, so
    the no-enclave line gets its boundary counters (all zero)."""
    out_path = tmp_path / "plain.json"
    assert main(
        ["ycsb", "--workload", "A", "--system", "plain",
         "--records", "300", "--ops", "100", "--factor", "0.0002",
         "--json-out", str(out_path)]
    ) == 0
    import json

    payload = json.loads(out_path.read_text())
    assert payload["ecalls"] == payload["ocalls"] == 0
    assert payload["boundary_copy_bytes"] == 0
    assert "proof_bytes_total" not in payload
