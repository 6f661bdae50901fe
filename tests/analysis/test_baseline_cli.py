"""Finding fingerprints, suppression parsing, and the lint CLI."""

from __future__ import annotations

import json

from repro.analysis import Severity
from repro.analysis.model import Finding, parse_suppressions
from repro.cli import main


def make_finding(rule="EL203", path="src/repro/fc.py", line=10, message="digest"):
    return Finding(
        rule=rule,
        severity=Severity.ERROR,
        path=path,
        line=line,
        message=message,
    )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def test_fingerprint_ignores_line_number():
    a = make_finding(line=10)
    b = make_finding(line=99)
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != make_finding(message="other").fingerprint


# ----------------------------------------------------------------------
# Suppression parsing
# ----------------------------------------------------------------------
def test_parse_suppressions_forms():
    source = (
        "x = 1  # elsm-lint: disable=EL203\n"
        "# elsm-lint: disable=EL102, EL103\n"
        "y = 2\n"
        "z = 3  # elsm-lint: disable-file=EL402\n"
    )
    sup = parse_suppressions(source)
    assert sup.is_suppressed("EL203", 1)
    assert not sup.is_suppressed("EL102", 1)
    # Comment-only pragma applies to the line below it...
    assert sup.is_suppressed("EL102", 3) and sup.is_suppressed("EL103", 3)
    # ...but a trailing pragma does not leak onto the next line.
    assert not sup.is_suppressed("EL203", 2)
    assert sup.is_suppressed("EL402", 999)


def test_parse_suppressions_all_keyword():
    sup = parse_suppressions("risky()  # elsm-lint: disable=all\n")
    assert sup.is_suppressed("EL101", 1) and sup.is_suppressed("EL402", 1)


# ----------------------------------------------------------------------
# CLI behaviour (driven through repro.cli.main on fixture projects)
# ----------------------------------------------------------------------
def seed_violation(project):
    """A deliberately-introduced cross-boundary call (the CI gate demo)."""
    project.add_module(
        "enc.verifier",
        """
        from repro.host.prover import Prover

        def fetch(self, env, name):
            return env.disk.read(name, 0, 16)
        """,
    )


def test_cli_fails_on_cross_boundary_call(project, capsys):
    seed_violation(project)
    assert main(["lint", "--root", str(project.root)]) == 1
    out = capsys.readouterr().out
    assert "EL101" in out and "EL102" in out
    assert "finding(s)" in out


def test_cli_github_format(project, capsys):
    seed_violation(project)
    assert main(["lint", "--root", str(project.root), "--format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::error file=src/repro/enc/verifier.py" in out
    assert "title=EL101" in out


def test_cli_rule_filter(project, capsys):
    seed_violation(project)
    assert main(["lint", "--root", str(project.root), "--rule", "EL103"]) == 0
    assert main(["lint", "--root", str(project.root), "--rule", "EL101"]) == 1


def test_cli_unknown_rule_is_a_run_error(project, capsys):
    assert main(["lint", "--root", str(project.root), "--rule", "EL999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_json_out(project, capsys, tmp_path):
    seed_violation(project)
    out_path = tmp_path / "lint.json"
    assert (
        main(["lint", "--root", str(project.root), "--json-out", str(out_path)])
        == 1
    )
    payload = json.loads(out_path.read_text())
    assert payload["findings_total"] >= 2
    assert payload["errors"] >= 2
    rules = {f["rule"] for f in payload["findings"]}
    assert {"EL101", "EL102"} <= rules
    assert all(f["fingerprint"] for f in payload["findings"])
    assert "EL101" in payload["by_rule"]


def test_cli_sarif_out(project, capsys, tmp_path):
    seed_violation(project)
    out_path = tmp_path / "lint.sarif"
    assert (
        main(["lint", "--root", str(project.root), "--sarif-out", str(out_path)])
        == 1
    )
    results = json.loads(out_path.read_text())["runs"][0]["results"]
    assert {"EL101", "EL102"} <= {r["ruleId"] for r in results}
    for result in results:
        assert result["partialFingerprints"]["elsmLint/v1"]
        assert "suppressions" not in result


def test_cli_lint_is_clean_at_head(capsys):
    """The acceptance gate: `python -m repro lint` reports zero findings."""
    assert main(["lint"]) == 0
    assert "lint: 0 finding(s)" in capsys.readouterr().out
