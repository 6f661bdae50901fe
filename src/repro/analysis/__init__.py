"""Trust-boundary static analysis for the eLSM codebase.

The paper's security argument (Sections 4-5) is a *code discipline*:
enclave code consumes untrusted bytes only through the boundary
(:class:`~repro.sgx.env.ExecutionEnv`), digests are compared fail-closed
in constant time, verifiers reject rather than fall through on malformed
proofs, and simulated power cuts are never swallowed by broad exception
handlers.  ``repro.analysis`` turns that discipline into machine-checked
invariants: an AST pass over ``src/repro`` with a zone model
(``analysis/zones.toml``), rule IDs (EL1xx-EL9xx), and per-line
suppression (``# elsm-lint: disable=EL###``) as the only way to accept
a finding — EL901 reports any pragma that no longer suppresses one.

The EL5xx family goes beyond syntax: :mod:`repro.analysis.callgraph`
builds a project-wide call graph and :mod:`repro.analysis.taint` runs a
summary-based interprocedural taint fixpoint over it, checking the
source -> sanitizer -> sink policy declared in the ``[taint]`` section
of ``zones.toml`` (untrusted host bytes must be verified before
reaching trusted state; enclave secrets must be sealed or hashed before
reaching host-visible sinks; verification verdicts must gate control
flow).

EL6xx (:mod:`repro.analysis.concurrency`) and EL7xx
(:mod:`repro.analysis.protocol`) check the pipelined write path's
shared-state ownership and commit-effect order.  The EL8xx family
(:mod:`repro.analysis.costmodel`) certifies the paper's *performance*
discipline the same way: a loop-structure-aware abstract interpreter
derives per-entry-point effect certificates (ECalls, OCalls, copies,
hashes, fsyncs, seals — per operation vs per item), commits them to
``analysis/costs.toml``, and gates boundary/IO amplification
anti-patterns plus the authenticated-compaction obligations any
pluggable policy must satisfy.

These passes share one copy of their machinery
(:mod:`repro.analysis.flow`): call sites resolved once per function by
the call graph, the statement walker, the callee memo, graph reachability,
and :func:`~repro.analysis.rules.findings_from`, the one funnel from a
pass's ``(rule, path, line, message)`` tuples to sorted findings.

Run it as ``python -m repro lint`` (``--changed-only`` for the
git-diff dependency cone, ``--explain EL###`` for any rule's doc and
examples, ``--update-costs`` to re-certify); see
``docs/static-analysis.md``.
"""

from repro.analysis.callgraph import CallGraph
from repro.analysis.catalogue import inject_rule_table, render_rule_table
from repro.analysis.costmodel import (
    CostAnalysisResult,
    analyze_costs,
    load_committed_costs,
    render_costs_toml,
    run_costmodel,
)
from repro.analysis.engine import (
    AnalysisError,
    ProjectIndex,
    dependency_cone,
    git_changed_modules,
    run_analysis,
)
from repro.analysis.examples import RULE_EXAMPLES, RuleExample
from repro.analysis.model import Finding, Severity
from repro.analysis.rules import ALL_RULES, RULE_DOCS, rule_severity
from repro.analysis.taint import TaintAnalysis, run_taint
from repro.analysis.zones import (
    CostConfig,
    TaintConfig,
    Zone,
    ZoneConfig,
    load_zone_config,
)

__all__ = [
    "ALL_RULES",
    "AnalysisError",
    "CallGraph",
    "CostAnalysisResult",
    "CostConfig",
    "Finding",
    "ProjectIndex",
    "RULE_DOCS",
    "RULE_EXAMPLES",
    "RuleExample",
    "Severity",
    "TaintAnalysis",
    "TaintConfig",
    "Zone",
    "ZoneConfig",
    "analyze_costs",
    "dependency_cone",
    "git_changed_modules",
    "inject_rule_table",
    "load_committed_costs",
    "load_zone_config",
    "render_costs_toml",
    "render_rule_table",
    "rule_severity",
    "run_analysis",
    "run_costmodel",
    "run_taint",
]
