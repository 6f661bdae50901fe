"""SARIF 2.1.0 export for lint findings.

CI uploads the lint run as a code-scanning artifact; SARIF is the
interchange format GitHub (and most viewers) understand.  The mapping
is deliberately small and lossless:

* severity -> ``level`` (ERROR -> error, WARNING -> warning,
  INFO -> note);
* the stable :attr:`~repro.analysis.model.Finding.fingerprint` becomes
  ``partialFingerprints["elsmLint/v1"]`` so viewers track a finding
  across commits even when edits above it move its line.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.analysis.model import Finding, Severity

SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"
FINGERPRINT_KEY = "elsmLint/v1"

_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def sarif_report(findings: Iterable[Finding]) -> dict:
    """Build a SARIF 2.1.0 log (as a plain dict) for ``findings``."""
    from repro.analysis.rules import ALL_RULES, RULE_DOCS

    rule_ids = sorted(ALL_RULES)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    rules = [
        {
            "id": rule_id,
            "shortDescription": {"text": ALL_RULES[rule_id][1]},
            "fullDescription": {"text": RULE_DOCS.get(rule_id, "")},
            "defaultConfiguration": {
                "level": _LEVELS[ALL_RULES[rule_id][0]]
            },
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": finding.rule,
            "ruleIndex": rule_index.get(finding.rule, -1),
            "level": _LEVELS[finding.severity],
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.path},
                        "region": {"startLine": max(1, finding.line)},
                    }
                }
            ],
            "partialFingerprints": {FINGERPRINT_KEY: finding.fingerprint},
        }
        for finding in findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "rules": rules,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
