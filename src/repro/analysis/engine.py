"""The analysis engine: project indexing and rule dispatch.

One pass parses every module under ``src/repro`` into an AST and walks
it once (:func:`index_nodes`), keeping its nodes by type for the module
and for every ``def``.  From those lists it resolves the module's
imports to dotted module names and pre-extracts the cross-file facts the
rules need (registered crash sites and their call sites, metric
registrations, suppression pragmas).  Rules then run over this
:class:`ProjectIndex` — each is a pure function from index to findings,
so a rule can reason about the whole project (the EL1xx import graph,
EL3xx crash-site cross-references) and not just one file at a time.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.flow import _FuncDef, closure
from repro.analysis.model import Finding, Suppressions, parse_suppressions
from repro.analysis.zones import ZoneConfig


class AnalysisError(RuntimeError):
    """The checker itself could not run (bad config, unparseable file)."""


class NodeIndex:
    """The nodes under one module or ``def``, by exact type, in
    ``ast.walk`` order."""

    def __init__(self, order: dict[ast.AST, int]) -> None:
        self._order = order  # node -> position in the module's walk
        self._by_type: dict[type, list] = {}

    def of(self, *types: type) -> list:
        """The nodes of ``types``; several types merge in walk order."""
        if len(types) == 1:
            return self._by_type.get(types[0], [])
        return sorted(
            (node for t in types for node in self._by_type.get(t, ())),
            key=self._order.__getitem__,
        )


def index_nodes(tree: ast.Module) -> dict[ast.AST, NodeIndex]:
    """Walk ``tree`` once: a :class:`NodeIndex` for the module and for
    every ``def`` in it, keyed by the module or def node.  A def's index
    includes the nodes of the defs nested in it, exactly as
    ``ast.walk(def)`` yields them."""
    order: dict[ast.AST, int] = {}
    scopes = {tree: NodeIndex(order)}
    todo = deque([(tree, (scopes[tree],))])
    while todo:
        node, owners = todo.popleft()
        if isinstance(node, _FuncDef):
            scopes[node] = NodeIndex(order)
            owners = (*owners, scopes[node])
        order[node] = len(order)
        for owner in owners:
            owner._by_type.setdefault(type(node), []).append(node)
        todo.extend((child, owners) for child in ast.iter_child_nodes(node))
    return scopes


#: A def, lambda or class nested in a body is a scope of its own, not
#: part of that body.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def walk_local(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk(node)`` without entering the scopes nested in it."""
    todo = deque([node])
    while todo:
        node = todo.popleft()
        yield node
        todo.extend(
            child
            for child in ast.iter_child_nodes(node)
            if not isinstance(child, _SCOPES)
        )


@dataclass
class MetricRegistration:
    """One named telemetry site: a ``counter/gauge/histogram("name",
    "description")`` registration, a ``span("name")`` opening, or an
    ``emit("kind")`` event emission."""

    name: str
    module: str
    line: int


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one source module."""

    name: str  # "repro.core.verifier"
    path: Path
    relpath: str  # repo-relative, posix
    tree: ast.Module
    source: str
    suppressions: Suppressions
    #: The module's and each def's nodes, keyed by the module or def node.
    scopes: dict[ast.AST, NodeIndex]
    #: (imported dotted module, line) pairs, absolute names only.
    imports: list[tuple[str, int]] = field(default_factory=list)
    #: (local name, dotted target, from-import) per imported name.
    imported_names: list[tuple[str, str, bool]] = field(default_factory=list)

    @property
    def nodes(self) -> NodeIndex:
        return self.scopes[self.tree]


@dataclass
class ProjectIndex:
    """The parsed project plus pre-extracted cross-file facts."""

    root: Path
    config: ZoneConfig
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    #: Sites registered in the crash plan's CRASH_SITES tuple.
    crash_sites: tuple[str, ...] = ()
    crash_sites_line: int = 0
    #: site -> [(module-or-relpath, line)] for crash_point()/crash_at() literals.
    crash_refs: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    metric_registrations: list[MetricRegistration] = field(default_factory=list)
    #: ``.span("name")`` openings with a constant name.
    span_registrations: list[MetricRegistration] = field(default_factory=list)
    #: ``.emit("kind")`` event emissions with a constant kind.
    event_emissions: list[MetricRegistration] = field(default_factory=list)
    #: Raw text of the telemetry documentation page ("" when missing).
    telemetry_doc_text: str = ""
    #: When set (``--changed-only``), only findings in these modules are
    #: reported; cross-file facts still come from the whole project.
    scope: set[str] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        root: Path,
        config: ZoneConfig,
        package_dir: Path | None = None,
        reference_dirs: Iterable[Path] = (),
    ) -> "ProjectIndex":
        """Index ``package_dir`` (default ``<root>/src/repro``) for findings.

        ``reference_dirs`` (default ``<root>/tests``) are scanned only
        for crash-site references — tests referencing a crash point keep
        it alive for EL303 but are never themselves linted.
        """
        root = root.resolve()
        if package_dir is None:
            package_dir = root / "src" / "repro"
        index = cls(root=root, config=config)
        for path in sorted(package_dir.rglob("*.py")):
            index._add_module(path, package_dir)
        index._extract_crash_sites()
        ref_dirs = list(reference_dirs) or [root / "tests"]
        for ref_dir in ref_dirs:
            if not ref_dir.is_dir():
                continue
            for path in sorted(ref_dir.rglob("*.py")):
                index._collect_reference_file(path)
        doc_path = root / config.telemetry_doc
        if doc_path.is_file():
            index.telemetry_doc_text = doc_path.read_text(encoding="utf-8")
        return index

    def _add_module(self, path: Path, package_dir: Path) -> None:
        rel = path.relative_to(package_dir)
        parts = ("repro",) + rel.with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            raise AnalysisError(f"cannot parse {path}: {exc}") from exc
        info = ModuleInfo(
            name=name,
            path=path,
            relpath=path.relative_to(self.root).as_posix(),
            tree=tree,
            source=source,
            suppressions=parse_suppressions(source),
            scopes=index_nodes(tree),
        )
        for node in info.nodes.of(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    info.imports.append((alias.name, node.lineno))
                    bound = alias.name if alias.asname else alias.name.split(".")[0]
                    info.imported_names.append((alias.asname or bound, bound, False))
                continue
            target = self._resolve_from_import(node, name)
            if target:
                info.imports.append((target, node.lineno))
                info.imported_names.extend(
                    (alias.asname or alias.name, f"{target}.{alias.name}", True)
                    for alias in node.names
                )
        self.modules[name] = info
        calls = info.nodes.of(ast.Call)
        self._collect_crash_refs(calls, name)
        self._collect_metric_registrations(calls, name)

    @staticmethod
    def _resolve_from_import(node: ast.ImportFrom, module: str) -> str | None:
        if node.level == 0:
            return node.module
        # Relative import: resolve against the importing module's package.
        package = module.split(".")
        package = package[: len(package) - (node.level - 1) - 1]
        if node.module:
            package = package + node.module.split(".")
        return ".".join(package) if package else None

    # ------------------------------------------------------------------
    # Cross-file fact extraction
    # ------------------------------------------------------------------
    def _extract_crash_sites(self) -> None:
        plan = self.modules.get(self.config.crash_plan)
        if plan is None:
            return
        for node in plan.tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            names = {t.id for t in targets if isinstance(t, ast.Name)}
            if "CRASH_SITES" not in names:
                continue
            try:
                sites = ast.literal_eval(node.value)
            except ValueError:
                continue
            if isinstance(sites, (tuple, list)):
                self.crash_sites = tuple(str(s) for s in sites)
                self.crash_sites_line = node.lineno
                return

    def _collect_crash_refs(self, nodes: Iterable[ast.AST], where: str) -> None:
        for attr, site, node in _named_calls(nodes):
            if attr in ("crash_point", "crash_at"):
                self.crash_refs.setdefault(site, []).append((where, node.lineno))

    def _collect_reference_file(self, path: Path) -> None:
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        except (SyntaxError, UnicodeDecodeError):
            return  # reference-only scan: never fail the run on test files
        self._collect_crash_refs(
            ast.walk(tree), path.relative_to(self.root).as_posix()
        )

    def _collect_metric_registrations(self, calls: list[ast.Call], module: str) -> None:
        for attr, name, node in _named_calls(calls):
            if attr not in ("counter", "gauge", "histogram", "span", "emit"):
                continue
            site = MetricRegistration(name=name, module=module, line=node.lineno)
            if attr == "span":
                self.span_registrations.append(site)
                continue
            if attr == "emit":
                self.event_emissions.append(site)
                continue
            # A *registration* carries a description; bare lookups
            # (``metrics.counter("wal.appends").total()``) do not.
            has_description = (
                len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ) or any(kw.arg == "description" for kw in node.keywords)
            if not has_description:
                continue
            self.metric_registrations.append(site)


def _named_calls(nodes: Iterable[ast.AST]) -> Iterator[tuple[str, str, ast.Call]]:
    """``(attr, name, call)`` for every ``<expr>.attr("name", ...)`` call."""
    for node in nodes:
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            yield node.func.attr, node.args[0].value, node


def run_analysis(
    root: Path,
    config: ZoneConfig,
    rule_filter: Iterable[str] | None = None,
    package_dir: Path | None = None,
    reference_dirs: Iterable[Path] = (),
    index: ProjectIndex | None = None,
) -> list[Finding]:
    """Index the project, run every (selected) rule, apply suppressions.

    Pass a prebuilt ``index`` (e.g. one carrying a ``--changed-only``
    scope) to skip re-indexing; ``root``/``config`` must then match it.
    """
    from repro.analysis.rules import ALL_RULES, run_rules

    wanted = set(rule_filter) if rule_filter else None
    if wanted:
        unknown = wanted - set(ALL_RULES)
        if unknown:
            raise AnalysisError(
                f"unknown rule id(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(ALL_RULES))})"
            )
    if index is None:
        index = ProjectIndex.build(
            root, config, package_dir=package_dir, reference_dirs=reference_dirs
        )
    scoped_paths = (
        None
        if index.scope is None
        else {
            index.modules[name].relpath
            for name in index.scope
            if name in index.modules
        }
    )
    # An explicitly empty scope (e.g. --changed-only with no touched
    # modules) means "nothing to report" — skip the rule passes rather
    # than running them and filtering everything out.
    if scoped_paths is not None and not scoped_paths:
        return []
    findings = []
    used_pragmas: set[tuple[str, str, int]] = set()
    modules_by_path = {module.relpath: module for module in index.modules.values()}
    for finding in run_rules(index):
        if wanted is not None and finding.rule not in wanted:
            continue
        if scoped_paths is not None and finding.path not in scoped_paths:
            continue
        module = modules_by_path.get(finding.path)
        if module is not None:
            matched = module.suppressions.matching_lines(
                finding.rule, finding.line
            )
            if matched:
                for pragma in module.suppressions.pragmas:
                    if "all" not in pragma.rules and finding.rule not in pragma.rules:
                        continue
                    if (pragma.kind == "disable-file" and 0 in matched) or (
                        pragma.kind == "disable" and pragma.line in matched
                    ):
                        used_pragmas.add(
                            (module.relpath, pragma.kind, pragma.line)
                        )
                continue
        findings.append(finding)
    if wanted is None:
        # EL901: pragmas that suppressed nothing this run.  Only
        # meaningful when every rule ran — with a --rule filter most
        # pragmas would look stale for the wrong reason.
        findings.extend(
            _unused_suppressions(index, scoped_paths, used_pragmas)
        )
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _unused_suppressions(
    index: ProjectIndex,
    scoped_paths: set[str] | None,
    used_pragmas: set[tuple[str, str, int]],
) -> list[Finding]:
    from repro.analysis.rules import rule_severity

    out: list[Finding] = []
    for name in sorted(index.modules):
        module = index.modules[name]
        if scoped_paths is not None and module.relpath not in scoped_paths:
            continue
        for pragma in module.suppressions.pragmas:
            if (module.relpath, pragma.kind, pragma.line) in used_pragmas:
                continue
            if module.suppressions.is_suppressed("EL901", pragma.line):
                continue
            rules = ",".join(sorted(pragma.rules))
            out.append(
                Finding(
                    rule="EL901",
                    severity=rule_severity("EL901"),
                    path=module.relpath,
                    line=pragma.line,
                    message=(
                        f"suppression pragma ({pragma.kind}={rules}) matches "
                        f"no finding — remove the stale pragma so it cannot "
                        f"mask a future regression"
                    ),
                )
            )
    return out


# ----------------------------------------------------------------------
# --changed-only support: git-diff-aware dependency cones
# ----------------------------------------------------------------------
def _module_name_for_relpath(relpath: str) -> str | None:
    """Dotted name a ``src/repro`` path maps to, derived from the path
    alone.

    Needed for *deleted* (and renamed-away) files: they are no longer
    indexed or on disk, but their old dotted name must still seed the
    dependency cone — every surviving importer of a deleted module is
    exactly where new findings appear.
    """
    prefix = "src/repro/"
    if relpath == "src/repro/__init__.py":
        return "repro"
    if not relpath.startswith(prefix) or not relpath.endswith(".py"):
        return None
    parts = relpath[len(prefix) : -len(".py")].split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or not all(parts):
        return None
    return ".".join(["repro", *parts])


def git_changed_modules(index: ProjectIndex) -> set[str] | None:
    """Dotted names of modules touched since HEAD (diff + untracked).

    Uses ``git diff --name-status -M`` so deletions and renames are
    seen as such: a rename contributes *both* the old and the new
    dotted name, and a deletion contributes the old name (resolved from
    the path even though the module is gone from the index).

    Returns ``None`` when git is unavailable, the root is not a work
    tree, or a checker input changed — ``analysis/zones.toml``,
    ``analysis/costs.toml`` or the telemetry doc, which scope findings
    anywhere in the project.  Callers then run the full analysis.
    """
    import subprocess

    by_relpath = {m.relpath: m.name for m in index.modules.values()}

    def resolve(relpath: str) -> str | None:
        return by_relpath.get(relpath) or _module_name_for_relpath(relpath)

    try:
        diff = subprocess.run(
            ["git", "diff", "--name-status", "-M", "HEAD"],
            cwd=index.root,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"],
            cwd=index.root,
            capture_output=True,
            text=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    relpaths = [line.strip() for line in untracked.stdout.splitlines()]
    for line in diff.stdout.splitlines():
        # STATUS\told-path[\tnew-path]; rename/copy statuses carry a
        # similarity score suffix (R100, C75) and two paths.
        relpaths += [relpath.strip() for relpath in line.split("\t")[1:]]
    inputs = {"analysis/zones.toml", "analysis/costs.toml", index.config.telemetry_doc}
    if inputs.intersection(relpaths):
        return None
    names = (resolve(relpath) for relpath in relpaths)
    return {name for name in names if name is not None}


def dependency_cone(index: ProjectIndex, changed: set[str]) -> set[str]:
    """``changed`` plus every module that (transitively) imports one.

    A change to ``repro.core.wire`` can introduce findings in any module
    that imports it (new taint flows, changed summaries), so the cone
    follows reverse import edges to a fixpoint.
    """
    # Keep edges to *unindexed* targets too: an import of a module that
    # was just deleted or renamed away is precisely the edge the cone
    # must follow to reach the importer left behind.
    importers: dict[str, set[str]] = {}
    for module in index.modules.values():
        for target, _line in module.imports:
            importers.setdefault(target, set()).add(module.name)
    # Traversal seeds include names absent from the index (deleted or
    # renamed-away modules): their surviving importers still belong in
    # the cone even though the changed module itself cannot be scanned.
    cone = closure(changed, lambda name: importers.get(name, ()))
    return cone & set(index.modules)
