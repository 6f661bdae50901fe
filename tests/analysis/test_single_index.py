"""One parse and one walk per lint run: every analysis pass shares a
single ``ProjectIndex`` and a single ``CallGraph``, and the index walks
each file once.

The linter is a pre-commit hook, so its runtime is a product property
(CI gates the full run at 10 s and ``--changed-only`` at 2 s with
``--max-seconds``); re-indexing or re-walking per pass would multiply
the dominant cost.  This locks both invariants end-to-end through the
real CLI against the real repo.
"""

from __future__ import annotations

import ast
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def _count_child_visits(monkeypatch) -> tuple[int, dict[str, int]]:
    """N, the node count of ``src/repro`` plus ``tests``, and a counter
    of ``ast.iter_child_nodes`` calls from here on.  ``ast.walk`` calls
    it once per node, so a run that walks every file once makes N."""
    nodes = sum(
        sum(1 for _ in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        for tree in ("src/repro", "tests")
        for path in (REPO_ROOT / tree).rglob("*.py")
    )
    visits = {"calls": 0}
    iter_child_nodes = ast.iter_child_nodes

    def counting(node):
        visits["calls"] += 1
        return iter_child_nodes(node)

    monkeypatch.setattr(ast, "iter_child_nodes", counting)
    return nodes, visits


def test_full_lint_builds_one_index_and_one_callgraph(monkeypatch, capsys):
    from repro.analysis.callgraph import CallGraph
    from repro.analysis.engine import ProjectIndex
    from repro.cli import main

    builds = {"index": 0, "graph": 0}
    index_build = ProjectIndex.build
    graph_build = CallGraph.build

    def counting_index_build(*args, **kwargs):
        builds["index"] += 1
        return index_build(*args, **kwargs)

    def counting_graph_build(*args, **kwargs):
        builds["graph"] += 1
        return graph_build(*args, **kwargs)

    monkeypatch.setattr(ProjectIndex, "build", counting_index_build)
    monkeypatch.setattr(CallGraph, "build", counting_graph_build)
    nodes, visits = _count_child_visits(monkeypatch)

    started = time.perf_counter()
    rc = main(["lint", "--root", str(REPO_ROOT)])
    elapsed = time.perf_counter() - started
    capsys.readouterr()

    assert rc == 0, "lint must stay clean at HEAD"
    assert builds["index"] == 1, (
        f"lint built the ProjectIndex {builds['index']} times; every "
        f"pass must share one build"
    )
    assert builds["graph"] == 1, (
        f"lint built the CallGraph {builds['graph']} times; taint, "
        f"concurrency, protocol and costmodel must share one build"
    )
    # The CI budget is 10 s wall (--max-seconds 10); leave headroom for
    # slow shared runners rather than asserting the exact gate here.
    assert elapsed < 10, f"full lint took {elapsed:.1f}s (CI budget: 10s)"
    # Beyond the index's one walk, the passes only walk single
    # statements, expressions, with bodies and handlers.
    assert visits["calls"] <= 1.25 * nodes, (
        f"lint made {visits['calls']} ast.iter_child_nodes calls over "
        f"{nodes} nodes; whole modules and bodies come from the index"
    )


def test_costmodel_derivation_is_cached_on_the_index():
    from repro.analysis import analyze_costs, load_zone_config
    from repro.analysis.engine import ProjectIndex

    config = load_zone_config(REPO_ROOT / "analysis" / "zones.toml")
    index = ProjectIndex.build(REPO_ROOT, config)
    first = analyze_costs(index)
    assert analyze_costs(index) is first, (
        "the EL8xx checks, drift gate and --update-costs must all read "
        "one derivation"
    )


def test_changed_only_lint_walks_each_file_once(monkeypatch, capsys):
    """On a clean tree ``--changed-only`` only builds the index, which
    walks every file once."""
    from repro.analysis import engine
    from repro.cli import main

    monkeypatch.setattr(engine, "git_changed_modules", lambda index: set())
    nodes, visits = _count_child_visits(monkeypatch)
    rc = main(["lint", "--root", str(REPO_ROOT), "--changed-only"])
    capsys.readouterr()
    assert rc == 0, "lint must stay clean at HEAD"
    assert visits["calls"] <= nodes, (
        f"lint --changed-only made {visits['calls']} ast.iter_child_nodes "
        f"calls over {nodes} nodes; the index walks each file once"
    )
