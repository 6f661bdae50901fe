"""EL7xx fixtures: commit-protocol effect ordering.

Positives seed out-of-order effect sequences in a scratch project;
negatives exercise guards, crash-point coverage, and sentinel summaries
(helpers that absorb or establish effects for their caller).  The
mutation tests at the bottom run the checker against a *mutated copy of
the real repo* — deleting the fsync from ``append_group`` or the
``flushed_ts`` advance from the flush paths must make EL701/EL702 fire,
proving the rules actually guard the invariants they claim to.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.protocol import run_protocol
from tests.analysis.conftest import FIXTURE_ZONES, rules_of

PROTO_ZONES = FIXTURE_ZONES + """\

[protocol]
functions = ["repro.proto.*"]
effects.write = ["wal_append"]
effects.fsync = ["wal_fsync"]
effects.install = ["do_install"]
effects.seal = ["do_seal"]
effects.crash_point = ["crash_point"]
effect_attrs.advance = ["_flushed_ts"]
durable = ["write", "fsync", "install", "seal"]
guards.fsync = ["wal"]
order = [
    "EL701: seal requires fsync|install reset-by write",
    "EL701: write then fsync before-return in *.append_group",
    "EL702: seal requires advance when install",
]
"""

PROTO_HEADER = """\
def crash_point(name):
    pass


def wal_append(record):
    pass


def wal_fsync():
    pass


def do_install():
    pass


def do_seal():
    pass
"""


# ----------------------------------------------------------------------
# EL701 — seal requires fsync; write-then-fsync before return
# ----------------------------------------------------------------------
def test_el701_seal_without_fsync(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

def commit_bad(record):
    wal_append(record)
    crash_point("after-write")
    do_seal()
""",
    )
    findings = project.lint(["EL701"])
    assert rules_of(findings) == ["EL701"]
    assert "seal" in findings[0].message and "fsync|install" in findings[0].message


def test_el701_stale_fsync_reset_by_new_write(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

def commit_stale(record):
    wal_append(record)
    crash_point("a")
    wal_fsync()
    crash_point("b")
    wal_append(record)
    crash_point("c")
    do_seal()
""",
    )
    findings = project.lint(["EL701"])
    assert rules_of(findings) == ["EL701"]


def test_el701_ordered_commit_is_clean(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

def commit_ok(record):
    wal_append(record)
    crash_point("after-write")
    wal_fsync()
    crash_point("after-fsync")
    do_seal()
""",
    )
    assert project.lint(["EL701"]) == []


def test_el701_guarded_fsync_establishes_at_join(project):
    """``if self.wal: fsync()`` counts as established after the join —
    the else branch has no WAL and is vacuously ordered."""
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

class Store:
    def commit_guarded(self):
        if self.wal is not None:
            wal_fsync()
        crash_point("maybe-fsynced")
        do_seal()
""",
    )
    assert project.lint(["EL701"]) == []


def test_el701_before_return_rule_fires(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

class Log:
    def append_group(self, records):
        for record in records:
            wal_append(record)
        return len(records)
""",
    )
    findings = project.lint(["EL701"])
    assert rules_of(findings) == ["EL701"]
    assert "not followed by fsync" in findings[0].message


def test_el701_before_return_satisfied_by_trailing_fsync(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

class Log:
    def append_group(self, records):
        for record in records:
            wal_append(record)
        crash_point("group-written")
        wal_fsync()
        return len(records)
""",
    )
    assert project.lint(["EL701"]) == []


# ----------------------------------------------------------------------
# EL702 — seal after install must carry the flushed_ts advance
# ----------------------------------------------------------------------
def test_el702_seal_without_advance(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

class Store:
    def flush_bad(self):
        do_install()
        crash_point("installed")
        do_seal()
""",
    )
    findings = project.lint(["EL702"])
    assert rules_of(findings) == ["EL702"]
    assert "advance" in findings[0].message


def test_el702_advance_after_seal_still_fires(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

class Store:
    def flush_late(self):
        do_install()
        crash_point("installed")
        do_seal()
        self._flushed_ts = 7
""",
    )
    findings = project.lint(["EL702"])
    assert rules_of(findings) == ["EL702"]


def test_el702_advance_before_seal_is_clean(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

class Store:
    def flush_ok(self):
        do_install()
        crash_point("installed")
        self._flushed_ts = 7
        do_seal()
""",
    )
    assert project.lint(["EL702"]) == []


def test_el702_when_gate_skips_seal_outside_flush_paths(project):
    """A seal in a function with no install is not a flush seal; the
    ``when install`` gate keeps EL702 out of the commit path."""
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

def commit_only(record):
    wal_append(record)
    crash_point("w")
    wal_fsync()
    crash_point("f")
    do_seal()
""",
    )
    assert project.lint(["EL702"]) == []


# ----------------------------------------------------------------------
# EL703 — crash-point coverage between distinct durable effects
# ----------------------------------------------------------------------
def test_el703_adjacent_durables_without_crash_point(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

def pair_bad(record):
    wal_append(record)
    wal_fsync()
""",
    )
    findings = project.lint(["EL703"])
    assert rules_of(findings) == ["EL703"]
    assert "no crash_point between" in findings[0].message


def test_el703_pairing_through_a_helper_call(project):
    """The sentinel summary: a helper whose first durable effect can
    meet the caller's un-covered pending state fires at the call site."""
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

def sealer():
    wal_fsync()
    do_seal()


def flush_pair(record):
    wal_append(record)
    sealer()
""",
    )
    findings = project.lint(["EL703"])
    assert findings and all(f.rule == "EL703" for f in findings)
    assert any("inside sealer" in f.message for f in findings)


def test_el703_crash_point_between_is_clean(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

def pair_ok(record):
    wal_append(record)
    crash_point("written")
    wal_fsync()
    crash_point("fsynced")


def same_effect_twice(record):
    wal_append(record)
    wal_append(record)
""",
    )
    assert project.lint(["EL703"]) == []


def test_el703_helper_that_absorbs_pending_is_clean(project):
    """A crash-pointed-on-entry helper consumes the caller's pending
    durable effect — the _commit pattern."""
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

def commit():
    crash_point("before-hook")
    do_seal()
    crash_point("after-hook")


def flush(record):
    wal_append(record)
    crash_point("written")
    wal_fsync()
    commit()
""",
    )
    assert project.lint(["EL703"]) == []


def test_el703_pragma_suppresses(project):
    project.write_zones(PROTO_ZONES)
    project.add_module(
        "proto",
        PROTO_HEADER
        + """

def pair_bad(record):
    wal_append(record)
    wal_fsync()  # elsm-lint: disable=EL703
""",
    )
    assert project.lint(["EL703"]) == []


# ----------------------------------------------------------------------
# Mutation checks against the real repo: the rules guard real invariants
# ----------------------------------------------------------------------
def test_mutation_deleting_group_fsync_fires_el701(mutated_repo):
    def drop_group_sync(root: Path) -> None:
        wal = root / "src" / "repro" / "lsm" / "wal.py"
        lines = wal.read_text().splitlines(keepends=True)
        kept = [ln for ln in lines if ln != "        self.sync()\n"]
        assert len(kept) == len(lines) - 1, "append_group sync not found"
        wal.write_text("".join(kept))

    findings = run_protocol(mutated_repo(drop_group_sync))
    el701 = [f for f in findings if f.rule == "EL701"]
    assert el701, "deleting append_group's fsync must violate the order"
    assert any("append_group" in f.message for f in el701)


def test_mutation_deleting_flushed_ts_advance_fires_el702(mutated_repo):
    def drop_advance(root: Path) -> None:
        db = root / "src" / "repro" / "lsm" / "db.py"
        text = db.read_text()
        mutated = text.replace("self._flushed_ts = max", "_stale = max")
        assert mutated != text, "flushed_ts advance not found"
        db.write_text(mutated)

    findings = run_protocol(mutated_repo(drop_advance))
    el702 = [f for f in findings if f.rule == "EL702"]
    assert el702, "deleting the flushed_ts advance must violate the order"
