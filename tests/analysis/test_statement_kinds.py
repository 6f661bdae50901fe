"""Statement kinds the real tree barely uses, walked by taint and cost.

``match``, ``while ... else``, ``try ... else ... finally``, ``async
for`` and ``async with`` appear rarely or never under ``src/``, so the
mutation locks and the clean-at-HEAD checks never reach the walker's
handling of them.  Each kind gets one taint case (host bytes reaching
a trusted-state sink through that statement) and one certificate case
(an effect counted inside it).
"""

from __future__ import annotations

import pytest

from tests.analysis.conftest import FIXTURE_ZONES

from .test_taint import REGISTRY_AND_SOURCES

TAINT_CASES = {
    # A case body taints; the cases join with the unmatched fall-through.
    "match": """
    def install(registry: Registry, kind):
        blob = b""
        match kind:
            case "host":
                blob = host_read("manifest")
            case _:
                pass
        registry.set(0, blob)  # sink
    """,
    # The body taints; its ``else`` runs after the loop with that taint.
    "while_else": """
    def install(registry: Registry, count):
        blob = b""
        while count:
            blob = host_read("manifest")
            count -= 1
        else:
            registry.set(0, blob)  # sink
    """,
    # Body, handler, ``else``, ``finally``: the ``else`` taints, the
    # ``finally`` sinks.
    "try_else_finally": """
    def install(registry: Registry):
        blob = b""
        try:
            name = "manifest"
        except OSError:
            name = "fallback"
        else:
            blob = host_read(name)
        finally:
            registry.set(0, blob)  # sink
    """,
    # The loop target carries the iterable's taint.
    "async_for": """
    async def install(registry: Registry):
        async for chunk in host_read("manifest"):
            registry.set(0, chunk)  # sink
    """,
    # The ``as`` target carries the context expression's taint.
    "async_with": """
    async def install(registry: Registry):
        async with host_read("manifest") as blob:
            registry.set(0, blob)  # sink
    """,
}


@pytest.mark.parametrize("kind", sorted(TAINT_CASES))
def test_taint_flows_through_statement_kind(project, kind):
    source = REGISTRY_AND_SOURCES + TAINT_CASES[kind]
    path = project.add_module("enc.flows", source)
    sink_line = next(
        i
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if line.endswith("# sink")
    )
    findings = project.lint(["EL501"])
    assert [(f.rule, f.line) for f in findings] == [("EL501", sink_line)]
    assert "host_read" in findings[0].message


#: ``except`` handlers: what reaches a handler, and where its state goes.
HANDLER_CASES = {
    # A verifier that raises leaves the host bytes in ``blob``; a
    # handler that falls through hands them to the sink after the try.
    "starts_before_the_try": """
    def install(registry: Registry, root):
        blob = host_read("manifest")
        try:
            blob = verify_get(blob, root)
        except ValueError:
            pass
        registry.set(0, blob)  # sink
    """,
    # The exception may come after the body tainted ``blob``.
    "reads_what_the_body_tainted": """
    def install(registry: Registry):
        try:
            blob = host_read("manifest")
            int(blob)
        except ValueError:
            registry.set(0, blob)  # sink
    """,
    # ``break`` leaves the loop, not the function: the handler's state
    # reaches the code after the loop.
    "breaks": """
    def install(registry: Registry, names):
        blob = b""
        for name in names:
            try:
                int(name)
            except ValueError:
                blob = host_read(name)
                break
        registry.set(0, blob)  # sink
    """,
    # ``continue`` carries the handler's state round the back edge.
    "continues": """
    def install(registry: Registry, names):
        blob = b""
        for name in names:
            try:
                int(name)
            except ValueError:
                blob = host_read(name)
                continue
        registry.set(0, blob)  # sink
    """,
    # A handler that raises still runs its try's ``finally``.
    "raises_into_its_finally": """
    def install(registry: Registry, root):
        blob = b""
        try:
            int(root)
        except ValueError:
            blob = host_read("manifest")
            raise
        finally:
            registry.set(0, blob)  # sink
    """,
    # ... and the ``finally`` of a try around its own.
    "raises_into_an_enclosing_finally": """
    def install(registry: Registry, root):
        blob = b""
        try:
            try:
                int(root)
            except ValueError:
                blob = host_read("manifest")
                return
        finally:
            registry.set(0, blob)  # sink
    """,
    # A try around its own may catch what the handler raises.
    "raises_into_an_enclosing_handler": """
    def install(registry: Registry, root):
        blob = b""
        try:
            try:
                int(root)
            except ValueError:
                blob = host_read("manifest")
                raise
        except ValueError:
            registry.set(0, blob)  # sink
    """,
}


@pytest.mark.parametrize("case", sorted(HANDLER_CASES))
def test_taint_flows_through_handler(project, case):
    source = REGISTRY_AND_SOURCES + HANDLER_CASES[case]
    path = project.add_module("enc.flows", source)
    sink_line = next(
        i
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if line.endswith("# sink")
    )
    findings = project.lint(["EL501"])
    assert [(f.rule, f.line) for f in findings] == [("EL501", sink_line)]


def test_taint_handler_that_raises_does_not_reach_past_the_try(project):
    """Fail closed: a handler that raises never reaches the sink, so the
    verified value is all that does."""
    source = REGISTRY_AND_SOURCES + """
    def install(registry: Registry, root):
        blob = host_read("manifest")
        try:
            blob = verify_get(blob, root)
        except ValueError:
            raise RuntimeError("unverified manifest")
        registry.set(0, blob)
    """
    project.add_module("enc.flows", source)
    assert project.lint(["EL501"]) == []


WALK_ZONES = FIXTURE_ZONES + """

[costmodel]
entry_points.match = "repro.walk.Store.on_match"
entry_points.while_else = "repro.walk.Store.on_while_else"
entry_points.try_else_finally = "repro.walk.Store.on_try"
entry_points.async_for = "repro.walk.Store.on_async_for"
entry_points.async_with = "repro.walk.Store.on_async_with"
effects.ecall = ["op_call"]
effects.fsync = ["file_fsync"]
effects.seal = ["do_seal"]
effects.hash = ["trusted_hash"]
"""

WALK_MODULE = """\
def trusted_hash(data):
    pass


def do_seal():
    pass


class Store:
    def __init__(self):
        self.env = None

    def on_match(self, kind, items):
        match kind:
            case "one":
                trusted_hash(kind)
            case "each":
                for item in items:
                    trusted_hash(item)
        self.env.file_fsync("wal")

    def on_while_else(self, items):
        while items:
            trusted_hash(items.pop())
        else:
            do_seal()

    def on_try(self, key):
        try:
            trusted_hash(key)
        except KeyError:
            trusted_hash(key)
            do_seal()
            do_seal()
        else:
            self.env.file_fsync("wal")
        finally:
            self.env.op_call("done")

    async def on_async_for(self, stream):
        async for item in stream:
            trusted_hash(item)
        do_seal()

    async def on_async_with(self, key):
        async with self.env.op_call("get"):
            trusted_hash(key)
"""

#: Entry -> the certificate's non-zero effects.
CERTIFICATES = {
    # Either case may run, or none: every effect inside is 0..hi.
    "match": {"hash": "0..1 + 0..1*n", "fsync": "1"},
    # The body once per item; the ``else`` once.
    "while_else": {"hash": "n", "seal": "1"},
    # A handler widens the upper bound only; ``else`` and ``finally``
    # count on the normal path.
    "try_else_finally": {
        "hash": "1",
        "seal": "0..2",
        "fsync": "1",
        "ecall": "1",
    },
    "async_for": {"hash": "n", "seal": "1"},
    "async_with": {"ecall": "1", "hash": "1"},
}


@pytest.mark.parametrize("entry", sorted(CERTIFICATES))
def test_certificate_counts_inside_statement_kind(project, entry):
    from repro.analysis import analyze_costs, load_zone_config
    from repro.analysis.engine import ProjectIndex

    project.write_zones(WALK_ZONES)
    project.add_module("walk", WALK_MODULE)
    config = load_zone_config(project.root / "analysis" / "zones.toml")
    index = ProjectIndex.build(project.root, config, package_dir=project.package_dir)
    certificate = analyze_costs(index).certificates[entry]
    derived = {effect: mult for effect, mult in certificate.items() if mult != "0"}
    assert derived == CERTIFICATES[entry]
