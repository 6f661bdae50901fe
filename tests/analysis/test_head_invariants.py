"""The repo's own code must satisfy its concurrency/commit/cost policies.

These run the EL6xx/EL7xx/EL8xx checkers against the *real* codebase
with the committed ``analysis/zones.toml`` — the acceptance bar is zero
findings (no grandfathered races, no uncommitted certificate drift).  The cost locks pin the paper's amortisation story:
group commit certifies 1 ECall + 1 fsync + 1 seal per group, multi_get
1 ECall + 1 proof copy per batch, and ``analysis/costs.toml`` is the
bit-reproducible derivation of HEAD.  A regression lock on the PR 8
observability surface rides along: the pipelined-write-path metrics
must stay registered and documented (EL402's contract).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.analysis.conftest import source_text

REPO_ROOT = Path(__file__).resolve().parents[2]

#: The pipelined-write-path metrics added with group commit and the
#: background flusher; EL402 keeps them documented, this keeps them
#: registered under these exact names.
PR8_METRICS = {
    "lsm.group_commit.groups",
    "lsm.group_commit.records",
    "lsm.memtable.rotations",
    "lsm.flush.background_us",
    "lsm.background.errors",
}


@pytest.fixture(scope="module")
def head_index():
    from repro.analysis import load_zone_config
    from repro.analysis.engine import ProjectIndex

    config = load_zone_config(REPO_ROOT / "analysis" / "zones.toml")
    return ProjectIndex.build(REPO_ROOT, config)


def test_concurrency_policy_clean_at_head(head_index):
    from repro.analysis.concurrency import run_concurrency

    findings = run_concurrency(head_index)
    assert findings == [], [f.format_text() for f in findings]


def test_commit_protocol_clean_at_head(head_index):
    from repro.analysis.protocol import run_protocol

    findings = run_protocol(head_index)
    assert findings == [], [f.format_text() for f in findings]


def test_costmodel_clean_at_head(head_index):
    from repro.analysis.costmodel import run_costmodel

    findings = run_costmodel(head_index)
    assert findings == [], [f.format_text() for f in findings]


def test_cost_certificates_match_committed(head_index):
    from repro.analysis.costmodel import analyze_costs, load_committed_costs

    result = analyze_costs(head_index)
    assert result.missing == {}, "every entry point must resolve"
    committed = load_committed_costs(REPO_ROOT / "analysis" / "costs.toml")
    assert committed == result.certificates, (
        "analysis/costs.toml drifted; re-certify with "
        "`python -m repro lint --update-costs` and justify the diff"
    )


def test_amortised_paths_certify_the_paper_numbers(head_index):
    from repro.analysis.costmodel import analyze_costs

    certs = analyze_costs(head_index).certificates
    # Group commit (PR 8): ONE ECall, ONE fsync, ONE seal per group.
    assert certs["group_commit"]["ecall"] == "1"
    assert certs["group_commit"]["fsync"] == "1"
    assert certs["group_commit"]["seal"] == "1"
    # Batched verified GET (PR 3): ONE ECall, ONE proof copy per batch.
    assert certs["multi_get"]["ecall"] == "1"
    assert certs["multi_get"]["copy_in"] == "1"


def test_cost_certificates_bit_reproducible(head_index):
    from repro.analysis import load_zone_config
    from repro.analysis.costmodel import analyze_costs, render_costs_toml
    from repro.analysis.engine import ProjectIndex

    config = load_zone_config(REPO_ROOT / "analysis" / "zones.toml")
    fresh = ProjectIndex.build(REPO_ROOT, config)
    first = render_costs_toml(analyze_costs(head_index).certificates)
    second = render_costs_toml(analyze_costs(fresh).certificates)
    assert first == second
    assert first == (REPO_ROOT / "analysis" / "costs.toml").read_text()


def test_every_effect_pattern_matches_a_call_site(head_index):
    """A ``[costmodel] effects.*`` pattern that matches nothing checks nothing.

    Renaming or deleting the function a pattern names leaves the lint
    silently clean: the certificates lose that effect and EL801/EL802/
    EL804 stop looking for it.  Every pattern must match at least one
    call site in the indexed tree.
    """
    from repro.analysis.callgraph import get_callgraph
    from repro.analysis.flow import Matcher

    graph = get_callgraph(head_index)
    sites = {
        (site.target, site.display)
        for calls in graph.sites.values()
        for _call, site in calls
    }
    dead = sorted(
        (effect, pattern)
        for effect, patterns in head_index.config.costmodel.effects.items()
        for pattern in patterns
        if not any(Matcher([pattern]).match(*site) for site in sites)
    )
    assert not dead, f"effect patterns matching no call site: {dead}"


def test_every_concurrency_policy_line_names_live_code(head_index):
    """A ``[concurrency]`` line naming code that is gone checks nothing.

    Every ``shared`` / ``published`` key must name an attribute that its
    class (or a base) assigns on ``self`` in the indexed tree (the attr
    part may glob), and every ``background_entries`` /
    ``foreground_entries`` pattern must match a function.
    """
    import ast
    import fnmatch

    from repro.analysis.callgraph import get_callgraph

    graph = get_callgraph(head_index)
    policy = head_index.config.concurrency
    assigned: dict[str, set[str]] = {}
    for fn in graph.functions.values():
        for node in fn.nodes.of(ast.Attribute):
            if (
                fn.cls is not None
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                assigned.setdefault(fn.cls, set()).add(node.attr)
    dead = []
    for key in [*policy.ownership, *policy.published]:
        cls, attr = key.rsplit(".", 1)
        attrs = set().union(*(assigned.get(q, ()) for q in graph.lineage(cls)))
        if not fnmatch.filter(attrs, attr):
            dead.append(key)
    for pattern in [*policy.background_entries, *policy.foreground_entries]:
        if not fnmatch.filter(graph.functions, pattern):
            dead.append(pattern)
    assert not dead, f"[concurrency] lines naming no live code: {dead}"


def test_pr8_metrics_registered_and_documented(head_index):
    registered = {r.name for r in head_index.metric_registrations}
    missing = PR8_METRICS - registered
    assert not missing, f"metrics no longer registered: {sorted(missing)}"
    undocumented = {
        name
        for name in PR8_METRICS
        if name not in head_index.telemetry_doc_text
    }
    assert not undocumented, (
        f"metrics missing from docs/observability.md: {sorted(undocumented)}"
    )


def test_background_telemetry_events_documented(head_index):
    events = {r.name for r in head_index.event_emissions}
    spans = {r.name for r in head_index.span_registrations}
    assert "lsm.background.error" in events
    assert "lsm.flush.background" in spans
    for name in ("lsm.background.error", "lsm.flush.background"):
        assert name in head_index.telemetry_doc_text


def _edit(root: Path, relpath: str, old: str, new: str) -> None:
    path = root / "src" / "repro" / relpath
    text = path.read_text()
    assert text.count(old) == 1, f"mutation site not found in {relpath}"
    path.write_text(text.replace(old, new))


def _located(index, findings, rules) -> list[tuple[str, str, str]]:
    """``(rule, path, source text)`` of each finding of ``rules``, sorted."""
    return sorted(
        (f.rule, f.path, source_text(index, f)) for f in findings if f.rule in rules
    )


def test_must_walk_rules_fire_on_mutated_tree(mutated_repo):
    """EL501, EL602, EL810 and EL811 each catch one seeded defect in the
    real code.

    Four edits in one copy: mutate the memtable right after freezing it;
    drop shadowed records before they reach the Filter() hook; publish
    the manifest before the authenticated merge runs; recover from a
    sealed blob without unsealing (MAC-checking) it.  (The early publish
    also drifts the cost certificate; this lock ignores EL803.)
    """
    from repro.analysis.concurrency import run_concurrency
    from repro.analysis.costmodel import run_costmodel
    from repro.analysis.taint import run_taint

    def mutate(root: Path) -> None:
        _edit(
            root,
            "lsm/db.py",
            "        self.memtable.freeze()\n",
            "        self.memtable.freeze()\n        self.memtable.clear()\n",
        )
        hook = (
            "            for listener in self.listeners:\n"
            "                listener.on_compaction_input_record("
            "ctx, level_id, record)\n"
        )
        shadowed = (
            "            if deleted_at is not None and record.ts < deleted_at:\n"
            "                continue  # shadowed by a newer tombstone in this merge\n"
        )
        _edit(root, "lsm/compaction.py", hook, "")
        _edit(root, "lsm/compaction.py", shadowed, shadowed + hook)
        _edit(
            root,
            "lsm/db.py",
            "        with span as open_span:\n",
            "        self._install_run(output, [])\n"
            "        with span as open_span:\n",
        )
        _edit(
            root,
            "core/store_p2.py",
            "payload = unseal(self.enclave, load_blob(self.env, self._seal_name(seq)))",
            "payload = load_blob(self.env, self._seal_name(seq))",
        )

    index = mutated_repo(mutate)
    fired = _located(
        index,
        run_concurrency(index) + run_costmodel(index) + run_taint(index),
        ("EL501", "EL602", "EL810", "EL811"),
    )
    assert fired == [
        (
            "EL501",
            "src/repro/core/store_p2.py",
            'self.registry.load_payload(payload["registry"])',
        ),
        ("EL602", "src/repro/lsm/db.py", "self.memtable.clear()"),
        (
            "EL810",
            "src/repro/lsm/compaction.py",
            "continue  # shadowed by a newer tombstone in this merge",
        ),
        ("EL811", "src/repro/lsm/db.py", "self._install_run(output, [])"),
    ]


def test_el804_fires_on_a_table_scan_in_the_get_path(mutated_repo):
    """EL804 catches the real cache-bypassing reader on a proof path.

    One edit in one copy: ``ELSMP2Store.get_verified`` scans a table with
    ``read_table_sequential``, the reader flush and compaction use.  The
    lock keeps the ``effects.block_bypass`` pattern naming the function
    that exists.  (The extra OCall also drifts the ``get`` certificate;
    this lock ignores EL803.)
    """
    from repro.analysis.costmodel import run_costmodel

    def mutate(root: Path) -> None:
        anchor = "                stored_key = self.codec.encode_key(key)\n"
        _edit(
            root,
            "core/store_p2.py",
            anchor,
            anchor
            + "                from repro.lsm.sstable import read_table_sequential\n"
            + "                for meta in self.db.level_run(1).tables:\n"
            + "                    list(read_table_sequential(self.env, meta))\n",
        )

    index = mutated_repo(mutate)
    fired = _located(index, run_costmodel(index), ("EL804",))
    assert fired == [
        (
            "EL804",
            "src/repro/core/store_p2.py",
            "list(read_table_sequential(self.env, meta))",
        )
    ]
