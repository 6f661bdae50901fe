"""The EL rule families: mechanical forms of the paper's trust argument.

Every rule has an ID, a severity, and a one-line summary in
:data:`ALL_RULES`; the longer rationale (tied to PAPER.md's threat
model) lives in :data:`RULE_DOCS` and is rendered into
``docs/static-analysis.md``.  Suppress a finding with
``# elsm-lint: disable=EL###`` (see :mod:`repro.analysis.model`).

* **EL1xx — trust-boundary taint.**  Enclave-zone modules may not
  import untrusted-zone modules, reach the disk/readers directly, or
  index host-supplied proof pools without a bounds check.  The only
  sanctioned route for untrusted bytes is the boundary shim
  (``ExecutionEnv.copy_in`` / ``repro.sgx.boundary``).
* **EL2xx — fail-closed verification.**  No bare excepts; broad
  handlers in verification/recovery paths must re-raise; digests are
  compared through ``constant_time_eq``; deserialisers validate magic
  and consume the buffer exactly.
* **EL3xx — crash/fault hygiene.**  ``SimulatedCrash`` is a
  ``BaseException`` and must never be swallowed; crash-point names and
  the registered ``CRASH_SITES`` must stay in bijection.
* **EL4xx — telemetry/API hygiene.**  Registered metric names follow
  the ``component.noun[.verb]`` convention and are documented.
* **EL5xx — interprocedural taint & secret flow.**  A call-graph
  fixpoint (:mod:`repro.analysis.taint`) tracks untrusted host data and
  enclave secrets through helper chains: untrusted bytes must pass a
  sanitizer before any trusted-state sink, secrets must be sealed or
  hashed before any host-visible sink, and verification verdicts must
  gate control flow.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.analysis.engine import _SCOPES, ModuleInfo, ProjectIndex, walk_local
from repro.analysis.flow import _chain_of, _FuncDef
from repro.analysis.model import Finding, Severity
from repro.analysis.zones import Zone

#: rule id -> (severity, one-line summary used in reports).
ALL_RULES: dict[str, tuple[Severity, str]] = {
    "EL101": (Severity.ERROR, "enclave module imports an untrusted-zone module"),
    "EL102": (Severity.ERROR, "enclave module reads untrusted data outside the boundary"),
    "EL103": (Severity.ERROR, "proof-pool index used without a bounds check"),
    "EL104": (Severity.INFO, "src module matched no zone pattern (coverage gap)"),
    "EL201": (Severity.ERROR, "bare `except:` clause"),
    "EL202": (Severity.ERROR, "broad exception handler in a fail-closed path"),
    "EL203": (Severity.ERROR, "digest compared with `==`/`!=` instead of constant_time_eq"),
    "EL204": (Severity.ERROR, "deserializer does not validate magic/consume the buffer"),
    "EL301": (Severity.ERROR, "handler can swallow SimulatedCrash (BaseException)"),
    "EL302": (Severity.ERROR, "crash point name is not registered in CRASH_SITES"),
    "EL303": (Severity.ERROR, "registered crash site has no crash_point call site"),
    "EL401": (Severity.WARNING, "metric name violates the component.noun.verb convention"),
    "EL402": (Severity.WARNING, "registered metric name is missing from the telemetry docs"),
    "EL501": (Severity.ERROR, "unsanitized untrusted data reaches a trusted-state sink"),
    "EL502": (Severity.ERROR, "enclave secret flows to an untrusted/telemetry/log sink"),
    "EL503": (Severity.ERROR, "verification result computed but discarded"),
    "EL601": (Severity.ERROR, "shared attribute accessed without its declared synchronization"),
    "EL602": (Severity.ERROR, "frozen or published structure mutated after publication"),
    "EL603": (Severity.WARNING, "parallel_track misuse (nesting, escape, non-monotone fork, join inside)"),
    "EL604": (Severity.ERROR, "background thread exceptions can escape the bounded error ring"),
    "EL701": (Severity.ERROR, "seal/commit without the required durability effect (fsync-before-seal)"),
    "EL702": (Severity.ERROR, "seal after a flush install without advancing flushed_ts"),
    "EL703": (Severity.ERROR, "path between two durable effects crosses no named crash point"),
    "EL801": (Severity.ERROR, "boundary call (ECall/OCall) runs per item inside a batch entry point"),
    "EL802": (Severity.ERROR, "fsync/seal runs per record instead of once per group"),
    "EL803": (Severity.ERROR, "derived cost certificate drifted from committed analysis/costs.toml"),
    "EL804": (Severity.ERROR, "cache-bypassing block fetch reachable from a proof path"),
    "EL810": (Severity.ERROR, "compaction merge drops a record that never flowed through Filter()"),
    "EL811": (Severity.ERROR, "manifest published before the authenticated merge/root update ran"),
    "EL901": (Severity.INFO, "suppression pragma matches no finding (stale; never gates)"),
}

#: Longer rationale per rule, tied to the paper's threat model.
RULE_DOCS: dict[str, str] = {
    "EL101": (
        "Enclave code believing host bytes without a hash path to a trusted "
        "root is the attack the paper defends against (Sections 4-5); an "
        "import edge from the enclave zone into the untrusted zone is the "
        "refactor that silently makes it possible."
    ),
    "EL102": (
        "Even without an import edge, enclave code can reach untrusted "
        "state through a handle (`*.disk.*`, a Prover/BlockFetcher/"
        "ReadBuffer, or builtin file IO). All untrusted bytes must enter "
        "through ExecutionEnv's boundary methods, which charge the copy "
        "and mark the taint."
    ),
    "EL103": (
        "Batch proofs carry host-chosen u32 references into shared pools; "
        "indexing a pool without a bounds check turns a malformed proof "
        "into an IndexError (or worse) instead of a ProofFormatError."
    ),
    "EL201": (
        "A bare `except:` swallows SimulatedCrash (a BaseException power "
        "cut), KeyboardInterrupt, and device failures alike - nothing in "
        "this codebase legitimately wants that."
    ),
    "EL202": (
        "Verification and recovery must fail closed: `except Exception` "
        "in those paths converts an integrity violation into a fall-"
        "through. Narrow the type or re-raise."
    ),
    "EL203": (
        "Digest equality decides whether the enclave trusts host bytes; "
        "short-circuiting `==` leaks a timing oracle and, worse, invites "
        "`!=`/`==` asymmetry bugs. All root/digest/MAC comparisons go "
        "through repro.cryptoprim.constant_time_eq (hmac.compare_digest)."
    ),
    "EL204": (
        "A proof deserializer that parses before validating its magic, or "
        "returns with bytes left over, can half-parse an attacker blob "
        "into something verifiable (wire.py's strictness contract)."
    ),
    "EL301": (
        "SimulatedCrash subclasses BaseException precisely so `except "
        "Exception` retry/cleanup logic cannot swallow a simulated power "
        "cut; an `except BaseException` (or catching SimulatedCrash "
        "outside the harness) without re-raising defeats that design."
    ),
    "EL302": (
        "crash_point() with an unregistered name is dead fault-injection "
        "surface: FaultPlan.crash_at refuses the name, so the harness can "
        "never exercise the path."
    ),
    "EL303": (
        "A CRASH_SITES entry with no call site means the crash matrix "
        "reports PASS for a scenario that never ran - silent loss of "
        "crash coverage."
    ),
    "EL401": (
        "Metric names are API: dashboards and the report() assembly key "
        "on them. The convention is lowercase dotted segments, "
        "component-first (e.g. `wal.recovery.dropped_bytes`)."
    ),
    "EL402": (
        "Every registered metric must be documented in "
        "docs/observability.md so operators can find it; an undocumented "
        "counter is invisible telemetry."
    ),
    "EL104": (
        "A module no zone pattern matches gets NEUTRAL by default, which "
        "silently exempts it from every zone-scoped rule. List new "
        "packages in analysis/zones.toml - under zones.neutral if that "
        "is the intent - so the exemption is a reviewed decision."
    ),
    "EL501": (
        "The interprocedural taint fixpoint (repro.analysis.taint) "
        "tracked a value from an untrusted source (copy_in, file_read, "
        "proof pools, wire blobs) into a trusted-state sink "
        "(DigestRegistry updates, seal inputs) without passing a "
        "sanitizer (Verifier.verify_*, a magic-validating deserializer, "
        "constant_time_eq). This is the exact attack of PAPER.md "
        "Sections 4-5: the enclave acting on host bytes with no hash "
        "path to a trusted root."
    ),
    "EL502": (
        "Enclave secret material (sealing keys) reached a host-visible "
        "sink - telemetry labels, log/exception text, store_blob, or any "
        "untrusted-zone function - without being sealed or hashed first. "
        "Secrets may only leave the enclave through the sanctioned "
        "declassifiers (seal, tagged_hash)."
    ),
    "EL503": (
        "A verification call's result was discarded (a bare expression "
        "statement). Computing a verdict without letting it gate control "
        "flow fails open - the caller proceeds identically whether "
        "verification passed or failed."
    ),
    "EL601": (
        "Background workers mutate LSMStore state while foreground ops "
        "read it; every attribute reachable from both sides must declare "
        "its synchronization in [concurrency].shared (lock:<name>, "
        "single-writer:<side>, event-handoff, frozen-after-publish) and "
        "every access site must honour the declaration. An unguarded "
        "read-write pair is a data race the paper's security argument "
        "silently assumes away."
    ),
    "EL602": (
        "A frozen SkipListMemTable or a queued immutable is published to "
        "concurrent readers on the promise it never changes again; any "
        "later mutation (a write to a frozen-after-publish attribute, an "
        "element mutator on a published container, freeze-then-mutate in "
        "one body) invalidates digests already computed over it."
    ),
    "EL603": (
        "SimClock.parallel_track models one background core: tracks do "
        "not nest (runtime RuntimeError), the track handle must not "
        "escape its with-scope, the fork point must be visibly monotone "
        "(max of schedule instant and prior track end, or now_us) so a "
        "join can never precede the fork, and wait_until inside a track "
        "body would join the foreground clock from the background "
        "timeline."
    ),
    "EL604": (
        "Worker errors must not die silently: a thread entry without an "
        "except-Exception handler that records into the bounded error "
        "ring (and bumps lsm.background.errors) turns any bug into a "
        "silently dead flusher/compactor - writes stall with no health "
        "signal."
    ),
    "EL701": (
        "A seal advertises WAL durability to every verifier; sealing "
        "bytes that were appended but never fsynced (or epoch-rolled) "
        "lets a crash roll back state the seal already promised - the "
        "verifier then accepts a forked history. Appends reset fsync "
        "state; append_group must sync before returning."
    ),
    "EL702": (
        "The sealed snapshot carries flushed_ts and recovery trims WAL "
        "replay by it; a seal taken after a flush install but before "
        "the flushed_ts advance replays flushed records as phantom "
        "writes (or, inverted, drops acknowledged ones) after a crash."
    ),
    "EL703": (
        "Every path between two distinct durable effects must cross a "
        "named crash_point, keeping the EL302/303 bijection honest: a "
        "state transition the fault plan cannot crash into is a recovery "
        "path the crash matrix never witnesses."
    ),
    "EL801": (
        "The paper's enclave cost model charges every boundary crossing "
        "(ECall/OCall); PR 3 won its latency back precisely by batching "
        "them (one ECall per MULTI-GET, one proof pool per batch). A "
        "boundary call whose certified lower bound is per-item inside a "
        "batch entry point re-introduces the n-crossings anti-pattern "
        "the batch API exists to prevent."
    ),
    "EL802": (
        "Group commit's contract (PR 8) is one WAL append + one fsync + "
        "one seal hook per group. An fsync or seal whose certified lower "
        "bound scales with the record count turns the group path back "
        "into per-record durability - the exact cost the paper's "
        "group-commit design amortises away."
    ),
    "EL803": (
        "analysis/costs.toml is the reviewed contract for per-operation "
        "effect counts. When the derived certificate drifts, either the "
        "change reintroduced amplification (fix it) or the new cost is "
        "intended - then lint --update-costs re-certifies it and the "
        "diff makes the regression reviewable instead of silent."
    ),
    "EL804": (
        "Verified reads must go through the caching fetcher: the "
        "sequential reader bypasses the block cache (it exists for "
        "compaction scans) and every bypassed fetch on a proof path is "
        "an uncached OCall plus a re-hash the RUM argument already paid "
        "for once."
    ),
    "EL810": (
        "Authenticated compaction (paper Section 5) requires every "
        "consumed input record to flow through the Filter() digest "
        "before it may be dropped - a merge loop that `continue`s past "
        "a record without digesting it lets a malicious host drop "
        "records undetected. This is the static contract any pluggable "
        "compaction policy must satisfy."
    ),
    "EL811": (
        "The per-level Merkle root update and OnTableFileCreated() "
        "proof embedding must complete before the manifest publishes "
        "the new level: a manifest that becomes visible first "
        "advertises files whose authenticity metadata does not exist "
        "yet, and a crash in the gap recovers into an unverifiable "
        "state."
    ),
    "EL901": (
        "A `# elsm-lint: disable=EL###` pragma that suppresses nothing "
        "is debt: the finding it once hid was fixed (or the rule "
        "changed), and leaving it in place silently masks the next "
        "genuine regression at that line. INFO only - it never gates."
    ),
}


def rule_severity(rule: str) -> Severity:
    return ALL_RULES[rule][0]


def findings_from(raw: Iterable[tuple[str, str, int, str]]) -> list[Finding]:
    """``(rule, path, line, message)`` tuples as sorted, de-duplicated
    findings; the severity is the rule's own, from :data:`ALL_RULES`."""
    return [
        Finding(rule, rule_severity(rule), path, line, message)
        for rule, path, line, message in sorted(
            set(raw), key=lambda r: (r[1], r[2], r[0], r[3])
        )
    ]


def _finding(rule: str, module: ModuleInfo, line: int, message: str) -> Finding:
    return Finding(
        rule=rule,
        severity=rule_severity(rule),
        path=module.relpath,
        line=line,
        message=message,
    )


def run_rules(index: ProjectIndex) -> Iterator[Finding]:
    """Run every rule family over the indexed project.

    EL5xx-EL8xx are the dataflow passes over the shared call graph
    (:mod:`repro.analysis.taint`, ``.concurrency``, ``.protocol``,
    ``.costmodel``); they import lazily because each imports this module.
    """
    from repro.analysis.concurrency import run_concurrency
    from repro.analysis.costmodel import run_costmodel
    from repro.analysis.protocol import run_protocol
    from repro.analysis.taint import run_taint

    yield from _el101_cross_zone_imports(index)
    yield from _el102_untrusted_reads(index)
    yield from _el103_pool_bounds(index)
    yield from _el104_zone_coverage(index)
    yield from _el2xx_exception_hygiene(index)
    yield from _el203_digest_equality(index)
    yield from _el204_deserializer_shape(index)
    yield from _el30x_crash_sites(index)
    yield from _el4xx_telemetry(index)
    yield from run_taint(index)
    yield from run_concurrency(index)
    yield from run_protocol(index)
    yield from run_costmodel(index)


# ----------------------------------------------------------------------
# EL1xx - trust-boundary taint
# ----------------------------------------------------------------------
def _el101_cross_zone_imports(index: ProjectIndex) -> Iterator[Finding]:
    for module in index.modules.values():
        if index.config.zone_of(module.name) is not Zone.ENCLAVE:
            continue
        for target, line in module.imports:
            if not target.startswith("repro"):
                continue  # stdlib use is EL102's concern
            if index.config.zone_of(target) is Zone.UNTRUSTED:
                yield _finding(
                    "EL101",
                    module,
                    line,
                    f"enclave module {module.name} imports untrusted module "
                    f"{target}; route the access through the boundary "
                    f"(repro.sgx.env) or reclassify in analysis/zones.toml",
                )


#: Constructors/handles that mean "I am reading the untrusted world".
_UNTRUSTED_CONSTRUCTORS = frozenset(
    {"Prover", "OnDemandProver", "BlockFetcher", "ReadBuffer", "SimDisk"}
)
_IO_BUILTINS = frozenset({"open", "exec", "eval"})
_IO_MODULES = frozenset({"os", "io", "pathlib", "shutil", "socket", "subprocess"})
_UNTRUSTED_HANDLES = frozenset({"disk", "fetcher", "prover"})


def _el102_untrusted_reads(index: ProjectIndex) -> Iterator[Finding]:
    for module in index.modules.values():
        if index.config.zone_of(module.name) is not Zone.ENCLAVE:
            continue
        for node in module.nodes.of(ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in _IO_BUILTINS:
                    yield _finding(
                        "EL102", module, node.lineno,
                        f"enclave module calls builtin {func.id}(); file IO "
                        f"must go through ExecutionEnv (an OCall)",
                    )
                elif func.id in _UNTRUSTED_CONSTRUCTORS:
                    yield _finding(
                        "EL102", module, node.lineno,
                        f"enclave module constructs untrusted reader "
                        f"{func.id}; only host-side code may own one",
                    )
            elif isinstance(func, ast.Attribute):
                chain = _chain_of(func)
                if not chain:
                    continue
                if chain[0] in _IO_MODULES:
                    yield _finding(
                        "EL102", module, node.lineno,
                        f"enclave module calls {'.'.join(chain)}(); direct "
                        f"OS access bypasses the enclave boundary",
                    )
                elif any(part in _UNTRUSTED_HANDLES for part in chain[:-1]):
                    yield _finding(
                        "EL102", module, node.lineno,
                        f"enclave module dereferences untrusted handle in "
                        f"{'.'.join(chain)}(); use the ExecutionEnv file_* / "
                        f"copy_in shims instead",
                    )
        for target, line in module.imports:
            if target.split(".")[0] in _IO_MODULES:
                yield _finding(
                    "EL102", module, line,
                    f"enclave module imports IO module {target}; file IO "
                    f"must go through ExecutionEnv (an OCall)",
                )


def _el104_zone_coverage(index: ProjectIndex) -> Iterator[Finding]:
    """INFO-level self-check: no src module may dodge zoning silently."""
    for module in index.modules.values():
        if index.config.explicit_zone_of(module.name) is None:
            yield _finding(
                "EL104", module, 1,
                f"module {module.name} matches no pattern in "
                f"analysis/zones.toml; add it (zones.neutral if that is "
                f"deliberate) so zone-scoped rules cover it",
            )


_POOL_ATTRS = frozenset({"node_pool", "reveal_pool"})


def _el103_pool_bounds(index: ProjectIndex) -> Iterator[Finding]:
    for module in index.modules.values():
        if index.config.zone_of(module.name) is not Zone.ENCLAVE:
            continue
        for fn in module.nodes.of(*_FuncDef):
            nodes = module.scopes[fn]
            guarded = {
                call.args[0].attr
                for compare in nodes.of(ast.Compare)
                for call in ast.walk(compare)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "len"
                and call.args
                and isinstance(call.args[0], ast.Attribute)
                and call.args[0].attr in _POOL_ATTRS
            }
            for node in nodes.of(ast.Subscript):
                if (
                    isinstance(node.value, ast.Attribute)
                    and node.value.attr in _POOL_ATTRS
                    and node.value.attr not in guarded
                    and not isinstance(node.slice, ast.Constant)
                ):
                    yield _finding(
                        "EL103", module, node.lineno,
                        f"{node.value.attr}[...] indexed with a host-controlled "
                        f"reference but no len() bounds check in "
                        f"{fn.name}(); malformed proofs must raise "
                        f"ProofFormatError, not IndexError",
                    )


# ----------------------------------------------------------------------
# EL2xx / EL3xx - exception hygiene (one walk, two families)
# ----------------------------------------------------------------------
def _handler_names(handler: ast.ExceptHandler) -> list[str]:
    """Terminal identifiers of the caught type(s); [] for a bare except."""
    node = handler.type
    if node is None:
        return []
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for elt in elts:
        if isinstance(elt, ast.Name):
            names.append(elt.id)
        elif isinstance(elt, ast.Attribute):
            names.append(elt.attr)
    return names


def _body_reraises(handler: ast.ExceptHandler) -> bool:
    return any(isinstance(node, ast.Raise) for node in walk_local(handler))


def _el2xx_exception_hygiene(index: ProjectIndex) -> Iterator[Finding]:
    for module in index.modules.values():
        fail_closed = index.config.is_fail_closed(module.name)
        is_catcher = index.config.matches_any(
            module.name, index.config.crash_catchers
        )
        for node in module.nodes.of(ast.ExceptHandler):
            names = _handler_names(node)
            if node.type is None:
                yield _finding(
                    "EL201", module, node.lineno,
                    "bare `except:` swallows SimulatedCrash and "
                    "KeyboardInterrupt; name the exception type",
                )
                continue
            reraises = _body_reraises(node)
            if "BaseException" in names and not reraises:
                yield _finding(
                    "EL301", module, node.lineno,
                    "`except BaseException` without re-raise swallows "
                    "SimulatedCrash (a simulated power cut)",
                )
            if "SimulatedCrash" in names and not is_catcher and not reraises:
                yield _finding(
                    "EL301", module, node.lineno,
                    "SimulatedCrash may only be caught by the crash-"
                    "consistency harness (roles.crash_catchers); re-raise "
                    "it here",
                )
            if fail_closed and "Exception" in names and not reraises:
                yield _finding(
                    "EL202", module, node.lineno,
                    "broad `except Exception` in a fail-closed path; "
                    "narrow the type or re-raise so verification errors "
                    "cannot fall through",
                )


#: Terminal identifiers that mean "this value is a digest/root/MAC".
_DIGEST_NAMES = frozenset(
    {
        "root", "digest", "older_digest", "mac", "measurement",
        "root_hash", "wal_digest", "leaf_hash", "expect", "dataset",
    }
)


def _terminal_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _el203_digest_equality(index: ProjectIndex) -> Iterator[Finding]:
    for module in index.modules.values():
        if not index.config.is_fail_closed(module.name):
            continue
        for node in module.nodes.of(ast.Compare):
            if not all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            named = [
                name for name in (_terminal_name(o) for o in operands)
                if name is not None
            ]
            hits = [n for n in named if n.lower() in _DIGEST_NAMES]
            if not hits:
                continue
            # `x == None`-style shape checks and length fields are fine;
            # only flag when the other side could be digest bytes too.
            if any(
                isinstance(o, ast.Constant) and not isinstance(o.value, bytes)
                for o in operands
            ):
                continue
            yield _finding(
                "EL203", module, node.lineno,
                f"digest comparison on `{hits[0]}` uses ==/!=; use "
                f"repro.cryptoprim.constant_time_eq (fail-closed, "
                f"constant-time)",
            )


def _el204_deserializer_shape(index: ProjectIndex) -> Iterator[Finding]:
    for module in index.modules.values():
        if not index.config.matches_any(module.name, index.config.wire):
            continue
        for fn in module.tree.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if not fn.name.startswith("deserialize"):
                continue
            if not _has_early_magic_check(fn):
                yield _finding(
                    "EL204", module, fn.lineno,
                    f"{fn.name}() must validate a *_MAGIC tag (and raise) "
                    f"before parsing any payload bytes",
                )
            if not _calls_done(module, fn):
                yield _finding(
                    "EL204", module, fn.lineno,
                    f"{fn.name}() never calls .done(); trailing bytes "
                    f"after a proof must be rejected",
                )


def _has_early_magic_check(fn: ast.FunctionDef) -> bool:
    for stmt in fn.body[:3]:
        if not isinstance(stmt, ast.If):
            continue
        mentions_magic = any(
            isinstance(n, (ast.Name, ast.Attribute))
            and (_terminal_name(n) or "").upper().endswith("MAGIC")
            for n in ast.walk(stmt.test)
        )
        raises = any(isinstance(n, ast.Raise) for n in stmt.body)
        if mentions_magic and raises:
            return True
    return False


def _calls_done(module: ModuleInfo, fn: ast.FunctionDef) -> bool:
    """A ``.done()`` call in ``fn``'s own body, not in a scope nested in it."""
    nodes = module.scopes[fn]
    nested = {
        id(node)
        for scope in nodes.of(*_SCOPES)
        if scope is not fn
        for node in ast.walk(scope)
    }
    return any(
        isinstance(call.func, ast.Attribute)
        and call.func.attr == "done"
        and id(call) not in nested
        for call in nodes.of(ast.Call)
    )


# ----------------------------------------------------------------------
# EL30x - crash-site bijection
# ----------------------------------------------------------------------
def _el30x_crash_sites(index: ProjectIndex) -> Iterator[Finding]:
    plan = index.modules.get(index.config.crash_plan)
    if plan is None or not index.crash_sites:
        return
    registered = set(index.crash_sites)
    for site, refs in index.crash_refs.items():
        for where, line in refs:
            module = index.modules.get(where)
            if module is None:
                continue  # reference files (tests) are not linted
            if site not in registered:
                yield _finding(
                    "EL302", module, line,
                    f"crash point {site!r} is not registered in "
                    f"{index.config.crash_plan}.CRASH_SITES; the harness "
                    f"can never exercise it",
                )
    # Call sites in src/ (module-name refs) keep a registered site alive;
    # test references alone do not - the production path must reach it.
    src_referenced = {
        site
        for site, refs in index.crash_refs.items()
        if any(where in index.modules for where, _ in refs)
    }
    for site in index.crash_sites:
        if site not in src_referenced:
            yield _finding(
                "EL303", plan, index.crash_sites_line,
                f"registered crash site {site!r} has no crash_point() "
                f"call site under src/; the crash matrix silently skips it",
            )


# ----------------------------------------------------------------------
# EL4xx - telemetry hygiene
# ----------------------------------------------------------------------
def _el4xx_telemetry(index: ProjectIndex) -> Iterator[Finding]:
    doc = index.telemetry_doc_text
    groups = (
        ("metric", index.metric_registrations,
         index.config.metric_name_pattern),
        ("span", index.span_registrations,
         index.config.span_name_pattern),
        ("event", index.event_emissions,
         index.config.event_name_pattern),
    )
    seen: set[tuple[str, str, str, int]] = set()
    for kind, registrations, raw_pattern in groups:
        pattern = re.compile(raw_pattern)
        for reg in registrations:
            key = (kind, reg.name, reg.module, reg.line)
            if key in seen:
                continue
            seen.add(key)
            module = index.modules[reg.module]
            if not pattern.match(reg.name):
                yield _finding(
                    "EL401", module, reg.line,
                    f"{kind} name {reg.name!r} does not match the "
                    f"component.noun[.verb] convention ({raw_pattern})",
                )
            if doc and reg.name not in doc:
                yield _finding(
                    "EL402", module, reg.line,
                    f"{kind} {reg.name!r} is registered here but not "
                    f"documented in {index.config.telemetry_doc}",
                )
