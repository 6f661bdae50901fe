"""``--changed-only`` vs deletions and renames.

``git diff --name-only`` lists a deleted file by its old path — which
maps to no indexed module, so a naive implementation silently drops the
change and misses new findings in surviving importers.  The engine uses
``--name-status -M`` and derives dotted names from paths, so deletions
and renames seed the dependency cone correctly.
"""

from __future__ import annotations

import shutil
import subprocess

import pytest

from repro.analysis import load_zone_config
from repro.analysis.engine import (
    ProjectIndex,
    _module_name_for_relpath,
    dependency_cone,
    git_changed_modules,
    run_analysis,
)

needs_git = pytest.mark.skipif(
    shutil.which("git") is None, reason="git unavailable"
)


def test_module_name_for_relpath_mapping():
    assert _module_name_for_relpath("src/repro/lsm/db.py") == "repro.lsm.db"
    assert _module_name_for_relpath("src/repro/lsm/__init__.py") == "repro.lsm"
    assert _module_name_for_relpath("src/repro/__init__.py") == "repro"
    assert _module_name_for_relpath("src/repro/cli.py") == "repro.cli"
    assert _module_name_for_relpath("docs/static-analysis.md") is None
    assert _module_name_for_relpath("tests/test_x.py") is None
    assert _module_name_for_relpath("src/other/pkg.py") is None


def _git(project, *args):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
        cwd=project.root,
        check=True,
        capture_output=True,
    )


def _build(project):
    config = load_zone_config(project.root / "analysis" / "zones.toml")
    return ProjectIndex.build(
        project.root, config, package_dir=project.package_dir
    )


@needs_git
def test_deleted_module_seeds_the_cone(project):
    base = project.add_module("enc.base", "X = 1\n")
    project.add_module("enc.mid", "from repro.enc.base import X\n")
    project.add_module("enc.other", "Y = 2\n")
    _git(project, "init", "-q")
    _git(project, "add", "-A")
    _git(project, "commit", "-q", "-m", "seed")
    base.unlink()

    index = _build(project)
    changed = git_changed_modules(index)
    assert changed == {"repro.enc.base"}
    # The deleted module cannot be scanned, but its surviving importer
    # is exactly where the breakage (and any new finding) lives.
    cone = dependency_cone(index, changed)
    assert cone == {"repro.enc.mid"}


@needs_git
def test_renamed_module_contributes_both_names(project):
    project.add_module("enc.base", "X = 1\n")
    project.add_module("enc.mid", "from repro.enc.base import X\n")
    _git(project, "init", "-q")
    _git(project, "add", "-A")
    _git(project, "commit", "-q", "-m", "seed")
    _git(
        project,
        "mv",
        "src/repro/enc/base.py",
        "src/repro/enc/base2.py",
    )

    index = _build(project)
    changed = git_changed_modules(index)
    assert changed == {"repro.enc.base", "repro.enc.base2"}
    cone = dependency_cone(index, changed)
    assert "repro.enc.mid" in cone  # importer of the old name
    assert "repro.enc.base2" in cone  # the new module itself


@needs_git
def test_unchanged_tree_yields_empty_scope_and_fast_exit(project):
    bare_except = "def f():\n    try:\n        pass\n    except:\n        pass\n"
    project.add_module("enc.touched", bare_except)
    _git(project, "init", "-q")
    _git(project, "add", "-A")
    _git(project, "commit", "-q", "-m", "seed")

    index = _build(project)
    changed = git_changed_modules(index)
    assert changed == set()
    # An explicitly empty scope short-circuits every rule pass: the
    # seeded violation is out of scope, not newly introduced.
    index.scope = dependency_cone(index, changed)
    config = load_zone_config(project.root / "analysis" / "zones.toml")
    assert run_analysis(project.root, config, index=index) == []


@needs_git
def test_changed_checker_input_widens_to_the_whole_project(project, capsys):
    """Dropping an ownership line from zones.toml changes no module, but
    every access to that attribute becomes a finding: the scope must
    widen to the whole project, not shrink to an empty cone."""
    from repro.cli import main
    from tests.analysis.test_concurrency import CONC_ZONES, STORE_HEADER

    project.write_zones(CONC_ZONES)
    project.add_module(
        "store",
        STORE_HEADER
        + """
    def put(self, key, value):
        with self._lock:
            self.items[key] = value


class Worker:
    def __init__(self, store: Store):
        self.store = store

    def _run(self):
        with self.store._lock:
            self.store.items.clear()
""",
    )
    _git(project, "init", "-q")
    _git(project, "add", "-A")
    _git(project, "commit", "-q", "-m", "seed")
    project.write_zones(
        CONC_ZONES.replace('shared."repro.store.Store.items" = "lock:_lock"\n', "")
    )

    assert git_changed_modules(_build(project)) is None
    code = main(["lint", "--root", str(project.root), "--changed-only"])
    out = capsys.readouterr().out
    assert code == 1
    assert "EL601" in out and "store.py" in out
