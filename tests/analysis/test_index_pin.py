"""Pin the facts the project index and the call graph extract.

Every syntactic rule and every dataflow pass reads the same
:class:`~repro.analysis.engine.ProjectIndex` and
:class:`~repro.analysis.callgraph.CallGraph`.  This test hashes what
they extract from the real repository: imports, crash-point references,
telemetry registrations, functions, classes, bindings, local types, the
resolved call sites of every function in ``ast.walk`` order, thread
targets and callers.  A change to how the index traverses the tree must
leave the digest alone.

The ``repro.analysis`` package itself is left out of the digest: its
functions and call sites move with every edit to the checker, and the
checker is what a traversal refactor edits.  Any other change under
``src/repro`` (or to a crash-point call under ``tests/``) legitimately
moves the digest; re-pin it in a commit that says so.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis import load_zone_config
from repro.analysis.callgraph import get_callgraph
from repro.analysis.engine import ProjectIndex

REPO_ROOT = Path(__file__).resolve().parents[2]

INDEX_DIGEST = "0fe691848d7f61408f045b1e19903fb174a7e70443b2b51bdadb83da6b1a3045"


def _pinned(name: str) -> bool:
    return not name.startswith("repro.analysis")


def _canonical(value):
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def index_facts(index: ProjectIndex) -> dict:
    graph = get_callgraph(index)
    registrations = {
        kind: [(r.name, r.module, r.line) for r in regs if _pinned(r.module)]
        for kind, regs in (
            ("metric", index.metric_registrations),
            ("span", index.span_registrations),
            ("event", index.event_emissions),
        )
    }
    functions = {q: f for q, f in graph.functions.items() if _pinned(q)}
    return {
        "imports": {
            name: m.imports for name, m in index.modules.items() if _pinned(name)
        },
        "crash_sites": [index.crash_sites, index.crash_sites_line],
        "crash_refs": index.crash_refs,
        "registrations": registrations,
        "functions": {
            q: [f.module, f.cls, f.params, f.is_method] for q, f in functions.items()
        },
        "classes": {
            q: [c.bases, c.methods, c.attr_types]
            for q, c in graph.classes.items()
            if _pinned(q)
        },
        "bindings": {m: b for m, b in graph._bindings.items() if _pinned(m)},
        "local_types": {q: graph.local_types[q] for q in functions},
        "sites": {
            q: [
                (call.lineno, call.col_offset, s.display, s.target, s.bound)
                for call, s in graph.sites[q]
            ]
            for q in functions
        },
        "thread_targets": {q for q in graph.thread_targets if _pinned(q)},
        "callers": {
            target: {c for c in callers if _pinned(c)}
            for target, callers in graph.callers.items()
            if any(_pinned(c) for c in callers)
        },
    }


def index_digest(index: ProjectIndex) -> str:
    blob = json.dumps(_canonical(index_facts(index)), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_index_and_callgraph_facts_are_pinned():
    config = load_zone_config(REPO_ROOT / "analysis" / "zones.toml")
    index = ProjectIndex.build(REPO_ROOT, config)
    assert index_digest(index) == INDEX_DIGEST
