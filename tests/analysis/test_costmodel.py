"""EL8xx fixtures: cost certificates, amplification gates, compaction
obligations.

Positives seed boundary/durable effects inside per-item loops of batch
entry points, cache-bypassing fetches on proof paths, and compaction
merges/drivers that violate the Filter()/root-before-publish contract;
negatives exercise amortisation (one effect per batch), guard-branch
lower bounds, unit loops, amortized maintenance helpers, and the
``costs.toml`` commit/drift lifecycle.
"""

from __future__ import annotations

from tests.analysis.conftest import FIXTURE_ZONES, rules_of

COST_ZONES = FIXTURE_ZONES + """

[costmodel]
entry_points.batch_ok = "repro.kv.Store.batch_ok"
entry_points.batch_bad = "repro.kv.Store.batch_bad"
entry_points.group_ok = "repro.kv.Store.group_ok"
entry_points.group_bad = "repro.kv.Store.group_bad"
entry_points.get_ok = "repro.kv.Store.get_ok"
entry_points.get_bad = "repro.kv.Store.get_bad"
entry_points.notify = "repro.kv.Store.notify"
batch_entries = ["batch_ok", "batch_bad", "group_ok", "group_bad"]
proof_entries = ["get_ok", "get_bad"]
effects.ecall = ["op_call"]
effects.fsync = ["file_fsync"]
effects.seal = ["do_seal"]
effects.hash = ["trusted_hash"]
effects.block_bypass = ["read_block_sequential"]
boundary_effects = ["ecall"]
durable_effects = ["fsync", "seal"]
bypass_effects = ["block_bypass"]
guards = ["wal"]
amortized = ["Store._maybe_flush"]
unit_loops = ["self.listeners"]
compaction_merge = ["*.merged_output", "*.merged_output_bad"]
compaction_filter_hooks = ["on_input_record"]
compaction_drivers = [
  "*.compact_ok", "*.compact_bad", "*.compact_guarded", "*.compact_each",
]
compaction_prepare = ["run_merge"]
compaction_publish = ["install_run"]
"""

KV_MODULE = """\
def trusted_hash(data):
    pass


def do_seal():
    pass


def read_block_sequential(name):
    pass


class Store:
    def __init__(self):
        self.listeners = []
        self.wal = None
        self.env = None

    def lookup(self, key):
        trusted_hash(key)
        return None

    def batch_ok(self, keys):
        out = []
        with self.env.op_call("multi_get"):
            for key in keys:
                out.append(self.lookup(key))
        self._maybe_flush()
        return out

    def batch_bad(self, keys):
        out = []
        for key in keys:
            with self.env.op_call("get"):
                out.append(self.lookup(key))
        return out

    def group_ok(self, records):
        if not records:
            return
        for record in records:
            trusted_hash(record)
        self.env.file_fsync("wal")
        if self.wal:
            do_seal()

    def group_bad(self, records):
        for record in records:
            self.env.file_fsync("wal")

    def get_ok(self, key):
        return self.lookup(key)

    def get_bad(self, key):
        block = read_block_sequential(key)
        trusted_hash(block)
        return block

    def notify(self, event):
        for callback in self.listeners:
            trusted_hash(event)

    def _maybe_flush(self):
        for record in self.listeners:
            self.env.file_fsync("cadence")
"""


def _setup(project):
    project.write_zones(COST_ZONES)
    project.add_module("kv", KV_MODULE)


def _derive(project):
    from repro.analysis import analyze_costs, load_zone_config
    from repro.analysis.engine import ProjectIndex

    config = load_zone_config(project.root / "analysis" / "zones.toml")
    index = ProjectIndex.build(
        project.root, config, package_dir=project.package_dir
    )
    return analyze_costs(index)


def _commit_costs(project):
    from repro.analysis import render_costs_toml

    result = _derive(project)
    path = project.root / "analysis" / "costs.toml"
    path.write_text(render_costs_toml(result.certificates))
    return result


# ----------------------------------------------------------------------
# Certificate derivation
# ----------------------------------------------------------------------
def test_amortised_batch_certificate(project):
    _setup(project)
    certs = _derive(project).certificates
    assert certs["batch_ok"]["ecall"] == "1"
    assert certs["batch_ok"]["hash"] == "n"
    assert certs["batch_ok"]["fsync"] == "0"  # _maybe_flush is amortized


def test_per_item_batch_certificate(project):
    _setup(project)
    certs = _derive(project).certificates
    assert certs["batch_bad"]["ecall"] == "n"


def test_guard_branch_counts_toward_lower_bound(project):
    _setup(project)
    certs = _derive(project).certificates
    # `if self.wal: do_seal()` names a configured guard terminal, so the
    # seal is the happy path and lands in the certificate's lower bound;
    # the early `if not records: return` must not zero the fsync either.
    assert certs["group_ok"]["fsync"] == "1"
    assert certs["group_ok"]["seal"] == "1"
    assert certs["group_ok"]["hash"] == "n"


def test_unit_loop_stays_per_operation(project):
    _setup(project)
    certs = _derive(project).certificates
    assert certs["notify"]["hash"] == "1"


def test_certificates_are_bit_reproducible(project):
    from repro.analysis import render_costs_toml

    _setup(project)
    first = render_costs_toml(_derive(project).certificates)
    second = render_costs_toml(_derive(project).certificates)
    assert first == second


def test_costs_toml_round_trips(project):
    from repro.analysis import load_committed_costs

    _setup(project)
    result = _commit_costs(project)
    loaded = load_committed_costs(project.root / "analysis" / "costs.toml")
    assert loaded == result.certificates


# ----------------------------------------------------------------------
# EL801 / EL802 — per-item boundary & durable effects
# ----------------------------------------------------------------------
def test_el801_ecall_per_item_in_batch_entry(project):
    _setup(project)
    findings = project.lint(["EL801"])
    assert rules_of(findings) == ["EL801"]
    assert "batch_bad" in findings[0].message
    assert "op_call" in findings[0].message


def test_el802_fsync_per_record(project):
    _setup(project)
    findings = project.lint(["EL802"])
    assert rules_of(findings) == ["EL802"]
    assert "group_bad" in findings[0].message
    assert "fsync" in findings[0].message


def test_el801_el802_sites_anchor_the_primitive(project):
    _setup(project)
    for rule in ("EL801", "EL802"):
        for finding in project.lint([rule]):
            assert finding.path.endswith("kv.py")
            assert finding.line > 1


# ----------------------------------------------------------------------
# EL803 — certificate drift lifecycle
# ----------------------------------------------------------------------
def test_el803_uncommitted_certificates(project):
    _setup(project)
    findings = project.lint(["EL803"])
    assert len(findings) == 7  # one per entry point
    assert all("no committed cost certificate" in f.message for f in findings)


def test_el803_clean_after_update_costs(project):
    _setup(project)
    _commit_costs(project)
    assert project.lint(["EL803"]) == []


def test_el803_reports_drift_per_effect(project):
    _setup(project)
    _commit_costs(project)
    path = project.root / "analysis" / "costs.toml"
    path.write_text(path.read_text().replace(
        '[operation.batch_ok]\nblock_bypass = "0"\necall = "1"',
        '[operation.batch_ok]\nblock_bypass = "0"\necall = "0"',
    ))
    findings = project.lint(["EL803"])
    assert rules_of(findings) == ["EL803"]
    assert "batch_ok.ecall" in findings[0].message
    assert '"0"' in findings[0].message and '"1"' in findings[0].message


def test_el803_unknown_committed_entry(project):
    _setup(project)
    _commit_costs(project)
    path = project.root / "analysis" / "costs.toml"
    path.write_text(path.read_text() + '\n[operation.ghost]\necall = "1"\n')
    findings = project.lint(["EL803"])
    assert rules_of(findings) == ["EL803"]
    assert "ghost" in findings[0].message


def test_el803_unresolvable_entry_point(project):
    project.write_zones(COST_ZONES.replace(
        "repro.kv.Store.notify", "repro.kv.Store.vanished"
    ))
    project.add_module("kv", KV_MODULE)
    findings = project.lint(["EL803"])
    assert any(
        "resolves to no project function" in f.message for f in findings
    )


# ----------------------------------------------------------------------
# EL804 — cache-bypassing fetch on a proof path
# ----------------------------------------------------------------------
def test_el804_bypass_on_proof_path(project):
    _setup(project)
    findings = project.lint(["EL804"])
    assert rules_of(findings) == ["EL804"]
    assert "get_bad" in findings[0].message
    assert "read_block_sequential" in findings[0].message


# ----------------------------------------------------------------------
# EL810 / EL811 — authenticated-compaction obligations
# ----------------------------------------------------------------------
COMP_MODULE = """\
def on_input_record(record):
    pass


def merged_output(records):
    out = []
    for record in records:
        on_input_record(record)
        if record is None:
            continue
        out.append(record)
    return out


def merged_output_bad(records):
    out = []
    for record in records:
        if record is None:
            continue
        on_input_record(record)
        out.append(record)
    return out


class Driver:
    def __init__(self):
        self.compactor = None

    def build(self, level):
        return level

    def install_run(self, run):
        pass

    def compact_ok(self, level):
        run = self.build(level)
        self.compactor.run_merge(level)
        self.install_run(run)

    def compact_bad(self, level):
        run = self.build(level)
        self.install_run(run)
        self.compactor.run_merge(level)

    def compact_guarded(self, level):
        run = self.build(level)
        if level:
            self.compactor.run_merge(level)
        self.install_run(run)

    def compact_each(self, levels):
        run = self.build(levels)
        for level in levels:
            self.compactor.run_merge(level)
        self.install_run(run)
"""


def test_el810_drop_before_filter_hook(project):
    _setup(project)
    project.add_module("comp", COMP_MODULE)
    findings = project.lint(["EL810"])
    assert rules_of(findings) == ["EL810"]
    assert "merged_output_bad" in findings[0].message
    assert findings[0].path.endswith("comp.py")


def test_el811_publish_before_prepare(project):
    _setup(project)
    project.add_module("comp", COMP_MODULE)
    findings = project.lint(["EL811"])
    # compact_bad publishes before the merge ran; compact_guarded only
    # establishes the merge on one branch, and compact_each only inside
    # a loop that may run zero times, so neither publish is covered.
    assert rules_of(findings) == ["EL811", "EL811", "EL811"]
    assert all("publishes the manifest" in f.message for f in findings)


def test_costmodel_disabled_without_config(project):
    # FIXTURE_ZONES has no [costmodel] section: the pass is inert.
    project.add_module("kv", KV_MODULE)
    for rule in ("EL801", "EL802", "EL803", "EL804", "EL810", "EL811"):
        assert project.lint([rule]) == []
