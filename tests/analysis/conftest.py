"""Fixture scaffolding: build scratch projects for the invariant checker.

Each test writes a tiny fake ``repro`` package under a tmp directory,
with its own ``analysis/zones.toml``, and runs the real engine over it —
so every rule family is exercised against seeded violations without
touching the actual codebase.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis import load_zone_config, run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]

FIXTURE_ZONES = """\
[zones]
enclave = ["repro.enc.*", "repro.enclave_mod"]
untrusted = ["repro.host.*"]
boundary = ["repro.bound"]
neutral = ["repro", "repro.*"]

[roles]
fail_closed = ["repro.fc"]
wire = ["repro.wireish"]
crash_plan = "repro.plan"
crash_catchers = ["repro.catcher"]

[telemetry]
doc = "docs/obs.md"

[taint]
untrusted_calls = ["host_read"]
untrusted_attrs = ["node_pool"]
untrusted_params = ["repro.wireish.deserialize_*"]
secret_calls = ["derive_key"]
secret_attrs = ["sealing_key"]
sanitizers = ["verify_get", "deserialize_proof"]
declassifiers = ["seal_up"]
trusted_sinks = ["Registry.set", "registry.set"]
untrusted_sinks = ["meter.inc", "Meter.inc", "file_write"]
verifiers = ["verify_get", "constant_time_eq"]
"""


class Project:
    """A scratch repo the engine can index."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.package_dir = root / "src" / "repro"
        self.package_dir.mkdir(parents=True)
        (root / "analysis").mkdir()
        self.write_zones(FIXTURE_ZONES)
        (root / "docs").mkdir()
        (root / "docs" / "obs.md").write_text("`ok.metric` is documented\n")

    def write_zones(self, content: str) -> None:
        (self.root / "analysis" / "zones.toml").write_text(content)

    def add_module(self, dotted: str, source: str) -> Path:
        """Write ``repro.<dotted>`` (e.g. ``enc.verifier``) into the tree."""
        parts = dotted.split(".")
        path = self.package_dir.joinpath(*parts).with_suffix(".py")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return path

    def add_test_file(self, name: str, source: str) -> Path:
        tests_dir = self.root / "tests"
        tests_dir.mkdir(exist_ok=True)
        path = tests_dir / name
        path.write_text(textwrap.dedent(source))
        return path

    def lint(self, rules: list[str] | None = None):
        config = load_zone_config(self.root / "analysis" / "zones.toml")
        return run_analysis(
            self.root,
            config,
            rule_filter=rules,
            package_dir=self.package_dir,
        )


@pytest.fixture
def project(tmp_path) -> Project:
    return Project(tmp_path)


def rules_of(findings) -> list[str]:
    return [f.rule for f in findings]


def source_text(index, finding) -> str:
    """The stripped source line a finding names, read from the indexed
    tree: mutation locks match on it, so an edit that only moves lines
    leaves them alone."""
    lines = (index.root / finding.path).read_text().splitlines()
    return lines[finding.line - 1].strip()


@pytest.fixture
def mutated_repo(tmp_path):
    """Index a copy of the *real* repo after ``mutate(root)`` edits it.

    Copies ``src/repro`` plus the committed ``zones.toml`` and
    ``costs.toml`` and returns one
    :class:`~repro.analysis.engine.ProjectIndex` over the copy (one call
    per test).
    """
    from repro.analysis.engine import ProjectIndex

    def build(mutate):
        root = tmp_path / "repo"
        shutil.copytree(REPO_ROOT / "src" / "repro", root / "src" / "repro")
        (root / "analysis").mkdir()
        for name in ("zones.toml", "costs.toml"):
            shutil.copy(REPO_ROOT / "analysis" / name, root / "analysis" / name)
        mutate(root)
        config = load_zone_config(root / "analysis" / "zones.toml")
        return ProjectIndex.build(root, config)

    return build
