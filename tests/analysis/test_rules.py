"""Seeded-violation fixtures for every EL1xx-EL4xx rule family.

Each test follows the same shape: positive hit (the rule fires on a
seeded violation), suppressed hit (the same code with an ``elsm-lint``
pragma stays quiet), and a clean variant (compliant code produces no
finding).
"""

from __future__ import annotations

from tests.analysis.conftest import rules_of


# ----------------------------------------------------------------------
# EL101 - cross-zone imports
# ----------------------------------------------------------------------
def test_el101_enclave_importing_untrusted(project):
    project.add_module(
        "enc.verifier",
        """
        from repro.host.prover import Prover
        """,
    )
    findings = project.lint(["EL101"])
    assert rules_of(findings) == ["EL101"]
    assert "repro.host.prover" in findings[0].message


def test_el101_suppressed(project):
    project.add_module(
        "enc.verifier",
        """
        from repro.host.prover import Prover  # elsm-lint: disable=EL101
        """,
    )
    assert project.lint(["EL101"]) == []


def test_el101_boundary_import_is_clean(project):
    project.add_module(
        "enc.verifier",
        """
        from repro.bound import shim
        from repro.enc.sibling import helper
        """,
    )
    assert project.lint(["EL101"]) == []


# ----------------------------------------------------------------------
# EL102 - untrusted reads outside the boundary
# ----------------------------------------------------------------------
def test_el102_builtin_open_and_os_calls(project):
    project.add_module(
        "enc.sealer",
        """
        import os

        def read_raw(name):
            with open(name) as fh:
                return fh.read()

        def stat(name):
            return os.path.getsize(name)
        """,
    )
    findings = project.lint(["EL102"])
    # import os, open(), os.path.getsize()
    assert rules_of(findings) == ["EL102"] * 3


def test_el102_untrusted_handle_and_constructor(project):
    project.add_module(
        "enc.reader",
        """
        def load(self, env, name):
            return env.disk.read(name, 0, 10)

        def make(self):
            return BlockFetcher()
        """,
    )
    findings = project.lint(["EL102"])
    assert rules_of(findings) == ["EL102", "EL102"]
    assert "disk" in findings[0].message
    assert "BlockFetcher" in findings[1].message


def test_el102_boundary_shims_are_clean(project):
    project.add_module(
        "enc.reader",
        """
        def load(self, env, name):
            env.copy_in(10)
            return env.file_read(name, 0, 10)
        """,
    )
    assert project.lint(["EL102"]) == []


def test_el102_untrusted_module_may_do_io(project):
    project.add_module(
        "host.fetcher",
        """
        def read_raw(name):
            with open(name) as fh:
                return fh.read()
        """,
    )
    assert project.lint(["EL102"]) == []


def test_el102_suppressed(project):
    project.add_module(
        "enc.sealer",
        """
        def read_raw(name):
            # elsm-lint: disable=EL102
            return open(name).read()
        """,
    )
    assert project.lint(["EL102"]) == []


# ----------------------------------------------------------------------
# EL103 - proof-pool bounds
# ----------------------------------------------------------------------
def test_el103_unchecked_pool_index(project):
    project.add_module(
        "enc.batch",
        """
        def resolve(self, proof, ref):
            return proof.node_pool[ref]
        """,
    )
    findings = project.lint(["EL103"])
    assert rules_of(findings) == ["EL103"]
    assert "node_pool" in findings[0].message


def test_el103_guarded_index_is_clean(project):
    project.add_module(
        "enc.batch",
        """
        def resolve(self, proof, ref):
            if ref >= len(proof.node_pool):
                raise ValueError("reference out of range")
            return proof.node_pool[ref]

        def first(self, proof):
            return proof.node_pool[0]
        """,
    )
    assert project.lint(["EL103"]) == []


def test_el103_suppressed(project):
    project.add_module(
        "enc.batch",
        """
        def resolve(self, proof, ref):
            return proof.node_pool[ref]  # elsm-lint: disable=EL103
        """,
    )
    assert project.lint(["EL103"]) == []


# ----------------------------------------------------------------------
# EL201 / EL202 - exception hygiene
# ----------------------------------------------------------------------
def test_el201_bare_except_fires_everywhere(project):
    project.add_module(
        "util",
        """
        def swallow():
            try:
                risky()
            except:
                pass
        """,
    )
    findings = project.lint(["EL201"])
    assert rules_of(findings) == ["EL201"]


def test_el202_broad_except_in_fail_closed_path(project):
    project.add_module(
        "fc",
        """
        def verify(proof):
            try:
                check(proof)
            except Exception:
                return None
        """,
    )
    findings = project.lint(["EL202"])
    assert rules_of(findings) == ["EL202"]


def test_el202_reraise_and_neutral_module_are_clean(project):
    project.add_module(
        "fc",
        """
        def verify(proof):
            try:
                check(proof)
            except Exception as exc:
                raise VerificationError(str(exc)) from exc
        """,
    )
    project.add_module(
        "util",
        """
        def best_effort():
            try:
                risky()
            except Exception:
                pass
        """,
    )
    assert project.lint(["EL202"]) == []


def test_el202_raise_in_nested_def_does_not_reraise(project):
    project.add_module(
        "fc",
        """
        def verify(proof):
            try:
                check(proof)
            except Exception:
                def fail():
                    raise
                return fail
        """,
    )
    assert rules_of(project.lint(["EL202"])) == ["EL202"]


def test_el202_enclave_zone_is_fail_closed(project):
    project.add_module(
        "enc.verifier",
        """
        def verify(proof):
            try:
                check(proof)
            except Exception:
                return None
        """,
    )
    assert rules_of(project.lint(["EL202"])) == ["EL202"]


# ----------------------------------------------------------------------
# EL203 - digest equality
# ----------------------------------------------------------------------
def test_el203_digest_compared_with_equals(project):
    project.add_module(
        "fc",
        """
        def check(tree, trusted):
            if tree.root != trusted.root:
                raise VerificationError("root mismatch")
        """,
    )
    findings = project.lint(["EL203"])
    assert rules_of(findings) == ["EL203"]
    assert "constant_time_eq" in findings[0].message


def test_el203_constant_time_eq_is_clean(project):
    project.add_module(
        "fc",
        """
        from repro.cryptoprim.hashing import constant_time_eq

        def check(tree, trusted):
            if not constant_time_eq(tree.root, trusted.root):
                raise VerificationError("root mismatch")
            if tree.leaf_count == trusted.leaf_count:
                return True
        """,
    )
    assert project.lint(["EL203"]) == []


def test_el203_shape_checks_against_constants_are_clean(project):
    project.add_module(
        "fc",
        """
        def check(digest):
            if digest == None:  # noqa: E711 - deliberate shape check
                return False
            if len(digest) == 0:
                return False
            return True
        """,
    )
    assert project.lint(["EL203"]) == []


def test_el203_suppressed(project):
    project.add_module(
        "fc",
        """
        def check(tree, trusted):
            # elsm-lint: disable=EL203
            return tree.root == trusted.root
        """,
    )
    assert project.lint(["EL203"]) == []


# ----------------------------------------------------------------------
# EL204 - deserializer shape
# ----------------------------------------------------------------------
def test_el204_missing_magic_and_done(project):
    project.add_module(
        "wireish",
        """
        def deserialize_node(reader):
            return reader.bytes()
        """,
    )
    findings = project.lint(["EL204"])
    assert rules_of(findings) == ["EL204", "EL204"]
    messages = " ".join(f.message for f in findings)
    assert "MAGIC" in messages and "done" in messages


def test_el204_compliant_deserializer_is_clean(project):
    project.add_module(
        "wireish",
        """
        NODE_MAGIC = 0x4E

        def deserialize_node(reader):
            tag = reader.u8()
            if tag != NODE_MAGIC:
                raise ProofFormatError("bad magic")
            payload = reader.bytes()
            reader.done()
            return payload
        """,
    )
    assert project.lint(["EL204"]) == []


def test_el204_done_in_nested_def_does_not_count(project):
    project.add_module(
        "wireish",
        """
        NODE_MAGIC = 0x4E

        def deserialize_node(reader):
            tag = reader.u8()
            if tag != NODE_MAGIC:
                raise ProofFormatError("bad magic")
            payload = reader.bytes()

            def finish():
                reader.done()

            return payload
        """,
    )
    findings = project.lint(["EL204"])
    assert rules_of(findings) == ["EL204"]
    assert "done" in findings[0].message


def test_el204_only_wire_modules_are_checked(project):
    project.add_module(
        "util",
        """
        def deserialize_config(reader):
            return reader.bytes()
        """,
    )
    assert project.lint(["EL204"]) == []


# ----------------------------------------------------------------------
# EL301 - SimulatedCrash swallowing
# ----------------------------------------------------------------------
def test_el301_base_exception_without_reraise(project):
    project.add_module(
        "util",
        """
        def swallow():
            try:
                risky()
            except BaseException:
                pass
        """,
    )
    assert rules_of(project.lint(["EL301"])) == ["EL301"]


def test_el301_raise_in_nested_def_does_not_reraise(project):
    project.add_module(
        "util",
        """
        def swallow():
            try:
                risky()
            except BaseException:
                def later():
                    raise
                return later
        """,
    )
    assert rules_of(project.lint(["EL301"])) == ["EL301"]


def test_el301_simulated_crash_outside_harness(project):
    project.add_module(
        "util",
        """
        def swallow():
            try:
                risky()
            except SimulatedCrash:
                pass
        """,
    )
    findings = project.lint(["EL301"])
    assert rules_of(findings) == ["EL301"]
    assert "harness" in findings[0].message


def test_el301_harness_and_reraise_are_clean(project):
    project.add_module(
        "catcher",
        """
        def run(store):
            try:
                store.put(b"k", b"v")
            except SimulatedCrash:
                return "crashed"
        """,
    )
    project.add_module(
        "util",
        """
        def propagate():
            try:
                risky()
            except BaseException:
                cleanup()
                raise
        """,
    )
    assert project.lint(["EL301"]) == []


# ----------------------------------------------------------------------
# EL302 / EL303 - crash-site bijection
# ----------------------------------------------------------------------
CRASH_PLAN = """
CRASH_SITES = (
    "wal.before_append",
    "wal.after_append",
)
"""


def test_el302_unregistered_crash_point(project):
    project.add_module("plan", CRASH_PLAN)
    project.add_module(
        "store",
        """
        def put(env):
            env.crash_point("wal.before_append")
            env.crash_point("rogue.site")
            env.crash_point("wal.after_append")
        """,
    )
    findings = project.lint(["EL302"])
    assert rules_of(findings) == ["EL302"]
    assert "rogue.site" in findings[0].message


def test_el303_registered_site_without_call_site(project):
    project.add_module("plan", CRASH_PLAN)
    project.add_module(
        "store",
        """
        def put(env):
            env.crash_point("wal.before_append")
        """,
    )
    findings = project.lint(["EL303"])
    assert rules_of(findings) == ["EL303"]
    assert "wal.after_append" in findings[0].message


def test_el303_test_reference_alone_does_not_rescue(project):
    project.add_module("plan", CRASH_PLAN)
    project.add_module(
        "store",
        """
        def put(env):
            env.crash_point("wal.before_append")
        """,
    )
    # A test naming the site is not a production call site.
    project.add_test_file(
        "test_crash.py",
        """
        def test_after(plan):
            plan.crash_at("wal.after_append")
        """,
    )
    assert rules_of(project.lint(["EL303"])) == ["EL303"]


def test_el30x_bijection_is_clean(project):
    project.add_module("plan", CRASH_PLAN)
    project.add_module(
        "store",
        """
        def put(env):
            env.crash_point("wal.before_append")
            env.crash_point("wal.after_append")
        """,
    )
    assert project.lint(["EL302", "EL303"]) == []


# ----------------------------------------------------------------------
# EL401 / EL402 - telemetry hygiene
# ----------------------------------------------------------------------
def test_el401_bad_metric_name(project):
    project.add_module(
        "util",
        """
        def setup(telemetry):
            telemetry.counter("BadName", "how not to name a metric")
        """,
    )
    findings = project.lint(["EL401"])
    assert rules_of(findings) == ["EL401"]
    assert "BadName" in findings[0].message


def test_el402_undocumented_metric(project):
    project.add_module(
        "util",
        """
        def setup(telemetry):
            telemetry.counter("ok.metric", "documented in docs/obs.md")
            telemetry.counter("missing.metric", "nobody wrote this down")
        """,
    )
    findings = project.lint(["EL402"])
    assert rules_of(findings) == ["EL402"]
    assert "missing.metric" in findings[0].message


def test_el4xx_lookups_without_description_are_ignored(project):
    project.add_module(
        "util",
        """
        def read_back(telemetry):
            return telemetry.counter("Whatever Lookup").total()
        """,
    )
    assert project.lint(["EL401", "EL402"]) == []


def test_el4xx_disable_file_pragma(project):
    project.add_module(
        "util",
        """
        # elsm-lint: disable-file=EL401, EL402

        def setup(telemetry):
            telemetry.counter("BadName", "suppressed for the whole module")
        """,
    )
    assert project.lint(["EL401", "EL402"]) == []
