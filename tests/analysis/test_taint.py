"""The EL5xx taint engine: seeded flows, call-graph resolution, EL104,
determinism, and the ``--changed-only`` dependency-cone mode.

Every test follows the positive/sanitized/suppressed pattern of
``test_rules.py``: seed a leaky flow in a scratch project, assert the
rule fires, then assert the sanctioned fix (or a pragma) silences it.
"""

from __future__ import annotations

import json
import shutil
import subprocess

import pytest

from repro.analysis import Severity, load_zone_config
from repro.analysis.callgraph import CallGraph
from repro.analysis.engine import ProjectIndex, dependency_cone
from repro.cli import main

from .conftest import FIXTURE_ZONES, REPO_ROOT, rules_of

REGISTRY_AND_SOURCES = """
    class Registry:
        def set(self, level, digest):
            self.latest = digest


    def host_read(name):
        return b"host bytes"


    def verify_get(proof, root):
        return b"verified"
"""


# ----------------------------------------------------------------------
# EL501 - untrusted data into a trusted-state sink
# ----------------------------------------------------------------------
def test_el501_interprocedural_flow(project):
    project.add_module(
        "enc.flows",
        REGISTRY_AND_SOURCES
        + """

    def shuffle(data):
        return data[1:]


    def relay(data):
        return shuffle(data) + b"!"


    def install(registry: Registry):
        blob = host_read("manifest")
        registry.set(0, relay(blob))
    """,
    )
    findings = project.lint(["EL501"])
    assert rules_of(findings) == ["EL501"]
    assert "host_read" in findings[0].message
    assert "Registry.set" in findings[0].message


def test_el501_sanitized_flow_is_clean(project):
    project.add_module(
        "enc.flows",
        REGISTRY_AND_SOURCES
        + """

    def install(registry: Registry, root):
        blob = host_read("manifest")
        record = verify_get(blob, root)
        registry.set(0, record)
    """,
    )
    assert project.lint(["EL501"]) == []


def test_el501_suppressed(project):
    project.add_module(
        "enc.flows",
        REGISTRY_AND_SOURCES
        + """

    def install(registry: Registry):
        blob = host_read("manifest")
        registry.set(0, blob)  # elsm-lint: disable=EL501
    """,
    )
    assert project.lint(["EL501"]) == []


def test_el501_pool_attr_source(project):
    project.add_module(
        "enc.pools",
        """
    class Registry:
        def set(self, level, digest):
            self.latest = digest


    def adopt(registry: Registry, proof):
        registry.set(0, proof.node_pool[3])
    """,
    )
    assert rules_of(project.lint(["EL501"])) == ["EL501"]


def test_el501_untrusted_params_taint_wire_functions(project):
    # deserialize_* params are untrusted inside the function; the
    # function itself is a sanitizer at its call sites.
    project.add_module(
        "wireish",
        """
    class Registry:
        def set(self, level, digest):
            self.latest = digest


    def deserialize_proof(blob, registry: Registry):
        registry.set(0, blob)
    """,
    )
    findings = project.lint(["EL501"])
    assert rules_of(findings) == ["EL501"]
    assert "parameter 'blob'" in findings[0].message


def test_el501_sanitizer_call_sites_are_clean(project):
    project.add_module(
        "enc.reader",
        """
    from repro.wireish import deserialize_proof


    class Registry:
        def set(self, level, digest):
            self.latest = digest


    def host_read(name):
        return b""


    def load(registry: Registry):
        proof = deserialize_proof(host_read("blob"))
        registry.set(0, proof)
    """,
    )
    project.add_module("wireish", "def deserialize_proof(blob):\n    return blob\n")
    assert project.lint(["EL501"]) == []


# ----------------------------------------------------------------------
# EL502 - secrets escaping to the host
# ----------------------------------------------------------------------
SECRET_PRELUDE = """
    class Enclave:
        def __init__(self):
            self.sealing_key = b"k" * 32
"""


def test_el502_secret_in_exception_message(project):
    project.add_module(
        "enc.sealing",
        SECRET_PRELUDE
        + """

    def complain(enclave: Enclave):
        raise ValueError(f"bad key {enclave.sealing_key!r}")
    """,
    )
    findings = project.lint(["EL502"])
    assert rules_of(findings) == ["EL502"]
    assert "exception message" in findings[0].message


def test_el502_secret_to_untrusted_zone_function(project):
    project.add_module("host.collect", "def publish(data):\n    return data\n")
    project.add_module(
        "enc.sealing",
        SECRET_PRELUDE
        + """

    from repro.host.collect import publish


    def leak(enclave: Enclave):
        publish(enclave.sealing_key)
    """,
    )
    findings = project.lint(["EL502"])
    assert rules_of(findings) == ["EL502"]
    assert "untrusted-zone function" in findings[0].message


def test_el502_secret_into_telemetry_label(project):
    project.add_module(
        "enc.sealing",
        SECRET_PRELUDE
        + """

    def count(enclave: Enclave, meter):
        meter.inc(1.0, key=str(enclave.sealing_key))
    """,
    )
    assert rules_of(project.lint(["EL502"])) == ["EL502"]


def test_el502_secret_into_bound_label(project):
    """A label bound once with ``Counter.bind`` leaks like one passed to
    ``inc``: the committed zones must list ``bind`` as an untrusted sink."""
    committed = load_zone_config(REPO_ROOT / "analysis" / "zones.toml")
    sinks = committed.taint.untrusted_sinks
    fixture_sinks = 'untrusted_sinks = ["meter.inc", "Meter.inc", "file_write"]'
    assert fixture_sinks in FIXTURE_ZONES
    project.write_zones(
        FIXTURE_ZONES.replace(fixture_sinks, f"untrusted_sinks = {json.dumps(sinks)}")
    )
    project.add_module(
        "enc.sealing",
        SECRET_PRELUDE
        + """

    def count(enclave: Enclave, meter):
        meter.bind(key=str(enclave.sealing_key)).inc()
    """,
    )
    assert rules_of(project.lint(["EL502"])) == ["EL502"]


def test_el502_declassified_secret_is_clean(project):
    project.add_module(
        "enc.sealing",
        SECRET_PRELUDE
        + """

    def seal_up(data):
        return b"sealed"


    def export(enclave: Enclave, env):
        env.file_write("seal", seal_up(enclave.sealing_key))
    """,
    )
    assert project.lint(["EL502"]) == []


def test_el502_suppressed(project):
    project.add_module(
        "enc.sealing",
        SECRET_PRELUDE
        + """

    def export(enclave: Enclave, env):
        env.file_write("k", enclave.sealing_key)  # elsm-lint: disable=EL502
    """,
    )
    assert project.lint(["EL502"]) == []


# ----------------------------------------------------------------------
# EL503 - discarded verification verdicts
# ----------------------------------------------------------------------
def test_el503_discarded_verdict(project):
    project.add_module(
        "enc.checks",
        """
    def verify_get(proof, root):
        return True


    def fail_open(proof, root):
        verify_get(proof, root)
        return proof
    """,
    )
    findings = project.lint(["EL503"])
    assert rules_of(findings) == ["EL503"]
    assert "discarded" in findings[0].message


def test_el503_gating_verdict_is_clean(project):
    project.add_module(
        "enc.checks",
        """
    def verify_get(proof, root):
        return True


    def fail_closed(proof, root):
        if not verify_get(proof, root):
            raise ValueError("bad proof")
        return proof
    """,
    )
    assert project.lint(["EL503"]) == []


def test_el503_suppressed(project):
    project.add_module(
        "enc.checks",
        """
    def verify_get(proof, root):
        return True


    def warm_cache(proof, root):
        verify_get(proof, root)  # elsm-lint: disable=EL503
    """,
    )
    assert project.lint(["EL503"]) == []


# ----------------------------------------------------------------------
# Call-graph resolution edge cases
# ----------------------------------------------------------------------
def test_taint_through_aliased_from_import(project):
    # `host_read` only matches by resolved qualname here: the alias
    # hides the syntactic name, so a finding proves real resolution.
    project.add_module("enc.io", "def host_read(name):\n    return b''\n")
    project.add_module(
        "enc.flows",
        """
    from repro.enc.io import host_read as fetch


    class Registry:
        def set(self, level, digest):
            self.latest = digest


    def install(registry: Registry):
        registry.set(0, fetch("manifest"))
    """,
    )
    assert rules_of(project.lint(["EL501"])) == ["EL501"]


def test_taint_through_module_alias(project):
    project.add_module("enc.io", "def host_read(name):\n    return b''\n")
    project.add_module(
        "enc.flows",
        """
    import repro.enc.io as io_mod


    class Registry:
        def set(self, level, digest):
            self.latest = digest


    def install(registry: Registry):
        registry.set(0, io_mod.host_read("manifest"))
    """,
    )
    assert rules_of(project.lint(["EL501"])) == ["EL501"]


def test_taint_through_method_summary(project):
    # `pull` matches no source pattern; the flow is only visible through
    # the method's computed summary, dispatched via the annotation.
    project.add_module(
        "enc.flows",
        """
    def host_read(name):
        return b""


    class Env:
        def pull(self):
            return host_read("manifest")


    class Registry:
        def set(self, level, digest):
            self.latest = digest


    def install(env: Env, registry: Registry):
        registry.set(0, env.pull())
    """,
    )
    assert rules_of(project.lint(["EL501"])) == ["EL501"]


def test_taint_recursion_terminates_and_propagates(project):
    project.add_module(
        "enc.flows",
        """
    def host_read(name):
        return b""


    class Registry:
        def set(self, level, digest):
            self.latest = digest


    def ping(data, n):
        if n > 0:
            return pong(data, n - 1)
        return data


    def pong(data, n):
        return ping(data, n)


    def install(registry: Registry):
        registry.set(0, ping(host_read("m"), 3))
    """,
    )
    assert rules_of(project.lint(["EL501"])) == ["EL501"]


def test_callgraph_resolves_methods_and_aliases(project):
    project.add_module("enc.io", "def host_read(name):\n    return b''\n")
    project.add_module(
        "enc.flows",
        """
    from repro.enc.io import host_read as fetch


    class Env:
        def pull(self):
            return fetch("x")


    def use(env: Env):
        return env.pull()
    """,
    )
    config = load_zone_config(project.root / "analysis" / "zones.toml")
    index = ProjectIndex.build(
        project.root, config, package_dir=project.package_dir
    )
    graph = CallGraph.build(index)
    targets = {site.target for site in graph.calls.values()}
    assert "repro.enc.io.host_read" in targets  # through the alias
    assert "repro.enc.flows.Env.pull" in targets  # through the annotation
    assert "repro.enc.flows.Env.pull" in graph.functions
    assert graph.callers["repro.enc.io.host_read"] == {
        "repro.enc.flows.Env.pull"
    }


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_findings_are_deterministic_across_runs(project):
    project.add_module(
        "enc.flows",
        REGISTRY_AND_SOURCES
        + """

    def install(registry: Registry):
        registry.set(0, host_read("a"))
        registry.set(1, host_read("b"))


    def fail_open(proof, root):
        verify_get(proof, root)
    """,
    )
    first = project.lint(["EL501", "EL503"])
    second = project.lint(["EL501", "EL503"])
    assert first == second
    assert [f.fingerprint for f in first] == [f.fingerprint for f in second]
    assert len(first) == 3
    # Sorted by (path, line, rule): stable display order for CI diffs.
    assert [f.line for f in first] == sorted(f.line for f in first)


# ----------------------------------------------------------------------
# EL104 - zone-coverage self-check
# ----------------------------------------------------------------------
UNCOVERED_ZONES = """\
[zones]
enclave = ["repro.enc.*"]

[telemetry]
doc = "docs/obs.md"
"""


def test_el104_fires_for_unzoned_module(project):
    project.write_zones(UNCOVERED_ZONES)
    project.add_module("stray", "X = 1\n")
    findings = project.lint(["EL104"])
    assert rules_of(findings) == ["EL104"]
    assert findings[0].severity is Severity.INFO
    assert "repro.stray" in findings[0].message


def test_el104_quiet_when_neutral_is_deliberate(project):
    project.add_module("stray", "X = 1\n")  # matches the repro.* neutral glob
    assert project.lint(["EL104"]) == []


def test_el104_info_does_not_gate_cli_exit(project, capsys):
    project.write_zones(UNCOVERED_ZONES)
    project.add_module("stray", "X = 1\n")
    assert main(["lint", "--root", str(project.root)]) == 0
    out = capsys.readouterr().out
    assert "EL104" in out


def test_el104_renders_as_github_notice(project, capsys):
    project.write_zones(UNCOVERED_ZONES)
    project.add_module("stray", "X = 1\n")
    assert main(["lint", "--root", str(project.root), "--format", "github"]) == 0
    assert "::notice file=src/repro/stray.py" in capsys.readouterr().out


# ----------------------------------------------------------------------
# --changed-only: git-diff-aware dependency cones
# ----------------------------------------------------------------------
def test_dependency_cone_follows_reverse_imports(project):
    project.add_module("enc.base", "X = 1\n")
    project.add_module("enc.mid", "from repro.enc.base import X\n")
    project.add_module("enc.top", "from repro.enc.mid import X\n")
    project.add_module("enc.other", "Y = 2\n")
    config = load_zone_config(project.root / "analysis" / "zones.toml")
    index = ProjectIndex.build(
        project.root, config, package_dir=project.package_dir
    )
    cone = dependency_cone(index, {"repro.enc.base"})
    assert cone == {"repro.enc.base", "repro.enc.mid", "repro.enc.top"}
    assert dependency_cone(index, {"repro.enc.other"}) == {"repro.enc.other"}


@pytest.mark.skipif(shutil.which("git") is None, reason="git unavailable")
def test_cli_changed_only_scopes_to_the_cone(project, capsys):
    bare_except = "def f():\n    try:\n        pass\n    except:\n        pass\n"
    project.add_module("enc.touched", bare_except)
    project.add_module("enc.untouched", bare_except)

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=project.root,
            check=True,
            capture_output=True,
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    # Touch one module: only its cone is analysed, so only its EL201
    # fires even though the sibling has the identical violation.
    project.add_module("enc.touched", bare_except + "Y = 1\n")
    code = main(["lint", "--root", str(project.root), "--changed-only"])
    out = capsys.readouterr().out
    assert code == 1
    assert "dependency cone" in out
    assert "enc/touched.py" in out
    assert "enc/untouched.py" not in out
