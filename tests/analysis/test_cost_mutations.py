"""Mutation locks for the EL8xx cost gate, run against a mutated copy
of the *real* repo.

Re-inlining fsync-per-record into ``WriteAheadLog.append_group`` must
fire EL802, and unrolling ``multi_get`` into per-key ``op_call`` ECalls
must fire EL801 plus EL803 certificate drift — if either mutation ever
passes silently, the gate has stopped guarding the paper's cost claims
(one fsync/seal/ECall per group, one ECall per batch).
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.costmodel import run_costmodel


def test_mutation_fsync_per_record_fires_el802(mutated_repo):
    def reinline_fsync(root: Path) -> None:
        wal = root / "src" / "repro" / "lsm" / "wal.py"
        text = wal.read_text()
        old = (
            '        self.env.crash_point("wal.group.before_write")\n'
            "        self.env.file_append(self.path, entry)\n"
        )
        new = (
            '        self.env.crash_point("wal.group.before_write")\n'
            "        for chunk in chunks:\n"
            "            self.env.file_append(self.path, chunk)\n"
            "            self.env.file_fsync(self.path)\n"
        )
        assert old in text, "append_group group write not found"
        wal.write_text(text.replace(old, new))

    findings = run_costmodel(mutated_repo(reinline_fsync))
    el802 = [f for f in findings if f.rule == "EL802"]
    assert el802, "fsync-per-record in append_group must fire EL802"
    assert any(
        "group_commit" in f.message and "fsync" in f.message for f in el802
    )
    assert any(f.path.endswith("wal.py") for f in el802)
    drift = [
        f
        for f in findings
        if f.rule == "EL803" and "group_commit.fsync" in f.message
    ]
    assert drift, "the committed fsync certificate must report drift"


def test_mutation_per_key_ecall_fires_el801_and_drift(mutated_repo):
    def unroll_multi_get(root: Path) -> None:
        store = root / "src" / "repro" / "core" / "store_p2.py"
        text = store.read_text()
        old = "                    hit = self.db.mem_lookup(stored_key, tsq)\n"
        new = (
            '                    with self.env.op_call("get", in_bytes=1):\n'
            "                        hit = self.db.mem_lookup(stored_key, tsq)\n"
        )
        assert old in text, "multi_get memtable probe not found"
        store.write_text(text.replace(old, new))

    findings = run_costmodel(mutated_repo(unroll_multi_get))
    el801 = [f for f in findings if f.rule == "EL801"]
    assert el801, "per-key op_call in multi_get must fire EL801"
    assert any(
        "multi_get" in f.message and "ecall" in f.message for f in el801
    )
    drift = [
        f
        for f in findings
        if f.rule == "EL803" and "multi_get.ecall" in f.message
    ]
    assert drift, "the committed ECall certificate must report drift"


def test_unmutated_copy_is_clean(mutated_repo):
    findings = run_costmodel(mutated_repo(lambda root: None))
    assert findings == [], [f.format_text() for f in findings]
