"""EL6xx — concurrency analysis for the pipelined write path.

The pipelined write path made the store multi-threaded: the daemon
``BackgroundFlusher`` thread mutates ``LSMStore`` state while foreground
ops read it.  This family checks every attribute reachable from both a
background thread entry and a foreground op against the declarative
ownership policy in the ``[concurrency]`` section of
``analysis/zones.toml``:

* **EL601** — an access to a shared attribute that violates its declared
  ownership (``lock:<name>`` access outside the lock, a write to a
  ``single-writer`` attribute from the wrong side), or a shared
  read-write pair on an attribute with *no* declared ownership at all.
* **EL602** — mutation of frozen/published structures: writes to
  ``frozen-after-publish`` attributes outside construction, element
  mutators called on values drawn from a published container (a queued
  immutable memtable must never be written again), and freeze-then-
  mutate within one function body.
* **EL603** — ``parallel_track`` misuse: nesting (lexically or through
  a call that opens another track), letting the track object escape the
  function, an unguarded (non-monotone) fork point, and ``wait_until``
  on the foreground clock from inside a track body.
* **EL604** — a background thread entry whose exceptions can escape the
  bounded error ring instead of being recorded.

Thread entries are the call graph's ``threading.Thread(target=...)``
references plus the policy's ``background_entries`` patterns; functions
opening a ``parallel_track`` count as background for reachability (the
work they charge models another core).  Reachability is
:func:`~repro.analysis.flow.closure` over the call graph's per-function
call sites, widened for virtual dispatch (a call resolving to a
base-class method also reaches every same-named override).  EL602's
freeze-then-mutate check is a :class:`~repro.analysis.flow.Walk`.

Lock identity is *name-based*: ``lock:_lock`` accepts any ``with
x._lock:`` block and any function all of whose reachable call chains
pass through one ("always-held", a greatest fixpoint over the call
graph).  Two distinct locks sharing an attribute name would alias; the
codebase has one store lock, ``LSMStore._lock``, and the store wrappers
(``PlacedStore``, ``ELSMP2Store``) take it by that name, as
``self.db._lock``, so a second name for it would hide their operations
from this check.  The policy file is the reviewed place to keep that
true.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass

from repro.analysis.callgraph import CallGraph, get_callgraph
from repro.analysis.engine import NodeIndex, ProjectIndex
from repro.analysis.flow import Walk, _chain_of, closure
from repro.analysis.model import Finding
from repro.analysis.rules import _handler_names, findings_from
from repro.analysis.zones import ConcurrencyConfig

#: Method names that mutate their receiver in place.  Telemetry verbs
#: (``inc``/``observe``/``emit``/``set``) are deliberately absent: metric
#: objects are internally synchronised (GIL-atomic counter bumps) and
#: flagging every counter increment would drown the real races.
_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "pop",
        "popleft",
        "clear",
        "extend",
        "insert",
        "remove",
        "add",
        "update",
        "setdefault",
        "discard",
        "freeze",
    }
)


@dataclass
class _Access:
    """One attribute access on a shared-class receiver."""

    key: str  # canonical "<class qualname>.<attr>"
    attr: str
    func: str  # enclosing function qualname
    line: int
    is_write: bool
    node_id: int  # id() of the ast.Attribute, for lock-scope lookup


class ConcurrencyAnalysis:
    def __init__(self, index: ProjectIndex, graph: CallGraph) -> None:
        self.index = index
        self.graph = graph
        self.cfg: ConcurrencyConfig = index.config.concurrency
        self.raw: list[tuple[str, str, int, str]] = []
        self._overrides = self._build_overrides()
        self._locked_nodes: dict[str, dict[str, set[int]]] = {}
        self._callers: dict[str, set[str]] | None = None
        self._lock_names = {
            token.split(":", 1)[1]
            for token in self.cfg.ownership.values()
            if token.startswith("lock:")
        }

    # ------------------------------------------------------------------
    # Entry discovery & reachability
    # ------------------------------------------------------------------
    def _build_overrides(self) -> dict[str, set[str]]:
        """Base-class method qualname -> same-named subclass overrides."""
        overrides: dict[str, set[str]] = {}
        for cnode in self.graph.classes.values():
            ancestors = self.graph.lineage(cnode.qualname)[1:]
            for name, fqual in cnode.methods.items():
                for anc in ancestors:
                    target = self.graph.classes[anc].methods.get(name)
                    if target is not None and target != fqual:
                        overrides.setdefault(target, set()).add(fqual)
        return overrides

    def _matches(self, qual: str, patterns: list[str]) -> bool:
        return any(fnmatch.fnmatchcase(qual, p) for p in patterns)

    def _locked(self, fqual: str) -> dict[str, set[int]]:
        """Lock name -> ids of the nodes inside ``with ...<lock>:``."""
        locked = self._locked_nodes.get(fqual)
        if locked is None:
            nodes = self.graph.functions[fqual].nodes
            locked = self._locked_nodes[fqual] = {
                lock: _nodes_under_lock(nodes, lock) for lock in self._lock_names
            }
        return locked

    def _callees(self, fqual: str):
        """(call, target) pairs of one body, widened to every override."""
        for call, site in self.graph.sites[fqual]:
            if site.target is not None:
                for target in (site.target, *self._overrides.get(site.target, ())):
                    yield call, target

    def _reach(self, entries: set[str]) -> set[str]:
        functions = self.graph.functions
        return closure(
            (q for q in entries if q in functions),
            lambda q: (t for _, t in self._callees(q) if t in functions),
        )

    def _reaching(self, targets: set[str]) -> set[str]:
        """``targets`` plus every function that (transitively) calls one."""
        if self._callers is None:
            self._callers = {}
            for caller in self.graph.functions:
                for _, target in self._callees(caller):
                    self._callers.setdefault(target, set()).add(caller)
        return closure(targets, lambda q: self._callers.get(q, ()))

    # ------------------------------------------------------------------
    # Main driver
    # ------------------------------------------------------------------
    def run(self) -> list[Finding]:
        if not self.cfg.enabled:
            return []
        thread_targets = self.graph.thread_targets
        policy_bg = {
            q
            for q in self.graph.functions
            if self._matches(q, self.cfg.background_entries)
        }
        # Last name segment of every call, per function: cheap, exact
        # prefilters for the syntactic EL602/EL603 checks.
        called = {
            q: {site.display.rsplit(".", 1)[-1] for _, site in sites}
            for q, sites in self.graph.sites.items()
        }
        self._track_openers = {
            q
            for q, fn in self.graph.functions.items()
            if "parallel_track" in called[q] and _track_withs(fn.nodes)
        }
        self._waiters = {q for q, names in called.items() if "wait_until" in names}
        bg_entries = thread_targets | policy_bg | self._track_openers
        fg_entries = {
            q
            for q in self.graph.functions
            if self._matches(q, self.cfg.foreground_entries)
        }
        bg_reach = self._reach(bg_entries)
        fg_reach = self._reach(fg_entries)
        reachable = bg_reach | fg_reach

        # Track openers count as background *reachability* roots (the
        # track body is charged to simulated background time) but they
        # run on the calling thread, so any lock the caller holds is
        # still held inside the track — they are not lock-free entries.
        lock_entries = thread_targets | policy_bg | fg_entries
        always_held = self._always_held_fixpoint(reachable, lock_entries)
        accesses = self._collect_accesses(reachable)
        self._check_ownership(accesses, bg_reach, fg_reach, always_held)
        self._check_published(reachable)
        freeze_methods = set(self.cfg.freeze_methods)
        for fqual in sorted(self.graph.functions):
            if called[fqual] & freeze_methods:
                body = self.graph.functions[fqual].node.body
                _FreezeWalk(self, fqual).block(body, set())
            if "parallel_track" in called[fqual]:
                self._check_tracks(fqual)
        self._check_error_ring(thread_targets | policy_bg)
        return findings_from(self.raw)

    # ------------------------------------------------------------------
    # Lock inference
    # ------------------------------------------------------------------
    def _always_held_fixpoint(
        self, reachable: set[str], entries: set[str]
    ) -> dict[str, dict[str, bool]]:
        """``fqual -> lock name -> True`` iff every reachable call chain
        into the function lexically passes through ``with ...<lock>:``.

        Greatest fixpoint: start from "held everywhere except entries"
        and strip functions with an unprotected incoming edge until
        stable.  Entries are where threads start, so nothing is held.
        """
        held = {
            lock: {q: q not in entries for q in reachable}
            for lock in self._lock_names
        }
        edges: dict[str, list[tuple[str, int]]] = {}
        for caller in reachable:
            for call, target in self._callees(caller):
                if target in reachable:
                    edges.setdefault(target, []).append((caller, id(call)))
        for lock in self._lock_names:
            changed = True
            while changed:
                changed = False
                for callee in reachable:
                    if callee in entries or not held[lock][callee]:
                        continue
                    incoming = edges.get(callee, [])
                    ok = bool(incoming) and all(
                        call_id in self._locked(caller)[lock]
                        or held[lock][caller]
                        for caller, call_id in incoming
                    )
                    if not ok:
                        held[lock][callee] = False
                        changed = True
        return {
            q: {lock: held[lock][q] for lock in self._lock_names}
            for q in reachable
        }

    # ------------------------------------------------------------------
    # Attribute access collection
    # ------------------------------------------------------------------
    def _shared_class_of(self, classqual: str | None) -> list[str]:
        """Candidate owner classes for a receiver type, self-first."""
        shared = self.cfg.shared_classes()
        return [q for q in self.graph.lineage(classqual or "") if q in shared]

    def _canonical_key(self, candidates: list[str], attr: str) -> str | None:
        """Declared key if any candidate declares the attr, else the
        topmost shared ancestor (groups undeclared reports per family)."""
        for qual in candidates:
            key = f"{qual}.{attr}"
            if (
                self.cfg.ownership_of(key) is not None
                or self.cfg.published_mutators(key) is not None
            ):
                return key
        return f"{candidates[-1]}.{attr}" if candidates else None

    def _collect_accesses(self, reachable: set[str]) -> list[_Access]:
        accesses: list[_Access] = []
        for fqual in sorted(reachable):
            fn = self.graph.functions[fqual]
            local_types = self.graph.local_types[fqual]
            written_through = _written_through(fn.nodes)
            # A mutator-named call that resolves to a project method
            # (``self.wal.append(...)`` -> WriteAheadLog.append) is a
            # method call on a collaborator, not an in-place container
            # mutation of the attribute binding; the collaborator's own
            # attribute policy covers what that method touches.
            for call, site in self.graph.sites[fqual]:
                if isinstance(call.func, ast.Attribute) and site.target:
                    written_through.discard(id(call.func.value))
            for node in fn.nodes.of(ast.Attribute):
                chain = _chain_of(node)
                if len(chain) < 2:
                    continue
                recv_type = self.graph.receiver_type(local_types, chain)
                candidates = self._shared_class_of(recv_type)
                if not candidates:
                    continue
                # Construction is single-threaded: skip accesses inside
                # the receiver class family's own __init__.
                if fn.name == "__init__" and fn.cls and (
                    recv_type in self.graph.lineage(fn.cls)
                ):
                    continue
                key = self._canonical_key(candidates, chain[-1])
                if key is None:
                    continue
                is_write = (
                    isinstance(node.ctx, (ast.Store, ast.Del))
                    or id(node) in written_through
                )
                accesses.append(
                    _Access(
                        key=key,
                        attr=chain[-1],
                        func=fqual,
                        line=node.lineno,
                        is_write=is_write,
                        node_id=id(node),
                    )
                )
        return accesses

    # ------------------------------------------------------------------
    # EL601 / EL602 ownership checks
    # ------------------------------------------------------------------
    def _emit(self, rule: str, fqual: str, line: int, message: str) -> None:
        module = self.index.modules[self.graph.functions[fqual].module]
        self.raw.append((rule, module.relpath, line, message))

    def _check_ownership(
        self,
        accesses: list[_Access],
        bg_reach: set[str],
        fg_reach: set[str],
        always_held: dict[str, dict[str, bool]],
    ) -> None:
        by_key: dict[str, list[_Access]] = {}
        for access in accesses:
            by_key.setdefault(access.key, []).append(access)
        for key, sites in sorted(by_key.items()):
            ownership = self.cfg.ownership_of(key)
            if ownership is None:
                if self.cfg.published_mutators(key) is not None:
                    continue  # element policy handled by _check_published
                self._check_undeclared(key, sites, bg_reach, fg_reach)
                continue
            if ownership == "event-handoff":
                continue
            if ownership.startswith("lock:"):
                lock = ownership.split(":", 1)[1]
                for access in sites:
                    locked = (
                        access.node_id
                        in self._locked(access.func).get(lock, ())
                        or always_held.get(access.func, {}).get(lock, False)
                    )
                    if not locked:
                        self._emit(
                            "EL601",
                            access.func,
                            access.line,
                            f"shared attribute {key} is declared "
                            f"lock:{lock} but {access.func} "
                            f"{'writes' if access.is_write else 'reads'} it "
                            f"without holding the lock",
                        )
            elif ownership.startswith("single-writer:"):
                owner = ownership.split(":", 1)[1]
                owner_reach = bg_reach if owner == "background" else fg_reach
                other_reach = fg_reach if owner == "background" else bg_reach
                for access in sites:
                    if not access.is_write:
                        continue
                    if access.func in other_reach:
                        self._emit(
                            "EL601",
                            access.func,
                            access.line,
                            f"shared attribute {key} is declared "
                            f"single-writer:{owner} but {access.func} "
                            f"(reachable from the "
                            f"{'foreground' if owner == 'background' else 'background'}"
                            f" side) writes it",
                        )
                    elif access.func not in owner_reach:
                        self._emit(
                            "EL601",
                            access.func,
                            access.line,
                            f"shared attribute {key} is declared "
                            f"single-writer:{owner} but {access.func} is not "
                            f"reachable from that side",
                        )
            elif ownership == "frozen-after-publish":
                for access in sites:
                    if access.is_write:
                        self._emit(
                            "EL602",
                            access.func,
                            access.line,
                            f"{key} is declared frozen-after-publish but "
                            f"{access.func} writes it after construction",
                        )

    def _check_undeclared(
        self,
        key: str,
        sites: list[_Access],
        bg_reach: set[str],
        fg_reach: set[str],
    ) -> None:
        bg_sites = [a for a in sites if a.func in bg_reach]
        fg_sites = [a for a in sites if a.func in fg_reach]
        if not bg_sites or not fg_sites:
            return
        if not any(a.is_write for a in sites):
            return
        writer = next(a for a in sites if a.is_write)
        self._emit(
            "EL601",
            writer.func,
            writer.line,
            f"attribute {key} is written and shared between background "
            f"({bg_sites[0].func}) and foreground ({fg_sites[0].func}) "
            f"but declares no ownership in [concurrency].shared",
        )

    # ------------------------------------------------------------------
    # EL602: published containers & freeze-then-mutate
    # ------------------------------------------------------------------
    def _published_key_of(self, node: ast.expr, local_types) -> str | None:
        """Resolve an expression to a published-container key, if any."""
        if not isinstance(node, ast.Attribute):
            return None
        chain = _chain_of(node)
        if len(chain) < 2:
            return None
        candidates = self._shared_class_of(
            self.graph.receiver_type(local_types, chain)
        )
        for qual in candidates:
            key = f"{qual}.{chain[-1]}"
            if self.cfg.published_mutators(key) is not None:
                return key
        return None

    def _check_published(self, reachable: set[str]) -> None:
        if not self.cfg.published:
            return
        for fqual in sorted(reachable):
            fn = self.graph.functions[fqual]
            local_types = self.graph.local_types[fqual]
            aliases: dict[str, str] = {}
            for node in fn.nodes.of(ast.Assign, ast.For):
                # x = self.immutables[0]  /  x = self.immutables.popleft()
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                    if not isinstance(target, ast.Name):
                        continue
                    source = value
                    if isinstance(source, ast.Subscript):
                        source = source.value
                    elif isinstance(source, ast.Call) and isinstance(
                        source.func, ast.Attribute
                    ):
                        source = source.func.value
                    key = self._published_key_of(source, local_types)
                    if key:
                        aliases[target.id] = key
                elif isinstance(node, ast.For) and isinstance(
                    node.target, ast.Name
                ):
                    iter_expr = node.iter
                    if isinstance(iter_expr, ast.Call) and iter_expr.args:
                        iter_expr = iter_expr.args[0]  # list(self.immutables)
                    key = self._published_key_of(iter_expr, local_types)
                    if key:
                        aliases[node.target.id] = key
            for node in fn.nodes.of(ast.Call):
                if not isinstance(node.func, ast.Attribute):
                    continue
                mutator = node.func.attr
                recv = node.func.value
                key: str | None = None
                if isinstance(recv, ast.Subscript):
                    key = self._published_key_of(recv.value, local_types)
                elif isinstance(recv, ast.Name):
                    key = aliases.get(recv.id)
                if key is None:
                    continue
                forbidden = self.cfg.published_mutators(key) or []
                if mutator in forbidden:
                    self._emit(
                        "EL602",
                        fqual,
                        node.lineno,
                        f"element of published container {key} mutated via "
                        f".{mutator}() in {fqual}; queued structures are "
                        f"immutable once published",
                    )

    # ------------------------------------------------------------------
    # EL603: parallel_track discipline
    # ------------------------------------------------------------------
    def _check_tracks(self, fqual: str) -> None:
        fn = self.graph.functions[fqual]
        track_withs = _track_withs(fn.nodes)
        with_items = {
            id(item.context_expr) for node in fn.nodes.of(ast.With) for item in node.items
        }
        for call, _ in self.graph.sites[fqual]:
            if _is_track_call(call) and id(call) not in with_items:
                self._emit(
                    "EL603",
                    fqual,
                    call.lineno,
                    f"parallel_track in {fqual} is not used as a "
                    f"with-statement context manager; the track would "
                    f"never be closed",
                )
        if not track_withs:
            return
        opens_closure = self._reaching(self._track_openers - {fqual})
        waits_closure = self._reaching(self._waiters - {fqual})
        for with_node in track_withs:
            track_name: str | None = None
            for item in with_node.items:
                if _is_track_call(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    track_name = item.optional_vars.id
            for node in (n for stmt in with_node.body for n in ast.walk(stmt)):
                if isinstance(node, ast.With):
                    for item in node.items:
                        if _is_track_call(item.context_expr):
                            self._emit(
                                "EL603",
                                fqual,
                                node.lineno,
                                f"nested parallel_track in {fqual}; "
                                f"tracks do not nest (SimClock raises at "
                                f"runtime)",
                            )
                if isinstance(node, ast.Call):
                    chain = _chain_of(node.func)
                    if chain and chain[-1] == "wait_until":
                        self._emit(
                            "EL603",
                            fqual,
                            node.lineno,
                            f"wait_until inside a parallel_track body in "
                            f"{fqual}; joining the foreground clock from a "
                            f"track is incoherent",
                        )
                        continue
                    target = self.graph.site(node).target
                    if target is None:
                        continue
                    widened = (target, *self._overrides.get(target, ()))
                    if any(w in opens_closure for w in widened):
                        effect = "opens another track; tracks do not nest"
                    elif any(w in waits_closure for w in widened):
                        effect = "joins the foreground clock via wait_until"
                    else:
                        continue
                    self._emit(
                        "EL603",
                        fqual,
                        node.lineno,
                        f"{fqual} calls {target.rsplit('.', 1)[-1]} "
                        f"inside a parallel_track body and that call {effect}",
                    )
            for item in with_node.items:
                if _is_track_call(item.context_expr):
                    self._check_fork_point(fqual, item.context_expr, fn)
            if track_name:
                self._check_track_escape(fqual, fn, track_name)

    def _check_fork_point(self, fqual: str, call: ast.Call, fn) -> None:
        start: ast.expr | None = None
        for kw in call.keywords:
            if kw.arg == "start_us":
                start = kw.value
        if start is None and call.args:
            start = call.args[0]
        if start is None:
            return  # fork at now: always monotone
        if _is_monotone_fork(start, fn.nodes):
            return
        self._emit(
            "EL603",
            fqual,
            call.lineno,
            f"parallel_track fork point in {fqual} is not visibly "
            f"monotone; backdate via max(schedule instant, previous track "
            f"end) or clock.now_us so a join can never precede the fork",
        )

    def _check_track_escape(self, fqual: str, fn, track_name: str) -> None:
        escapes = fn.nodes.of(ast.Return, ast.Yield, ast.YieldFrom, ast.Assign)
        for node in escapes:
            if not _is_name(node.value, track_name):
                continue
            if isinstance(node, ast.Return):
                how = "via return"
            elif not isinstance(node, ast.Assign):
                how = "via yield"
            elif any(
                isinstance(target, (ast.Attribute, ast.Subscript))
                for target in node.targets
            ):
                how = "into shared state"
            else:
                continue
            self._emit(
                "EL603",
                fqual,
                node.lineno,
                f"track object escapes {fqual} {how}; a closed track must "
                f"not outlive its with-scope as a live handle",
            )

    # ------------------------------------------------------------------
    # EL604: bounded error ring
    # ------------------------------------------------------------------
    def _check_error_ring(self, entries: set[str]) -> None:
        recorders = set(self.cfg.error_recorders)
        if not recorders:
            return
        for fqual in sorted(entries):
            fn = self.graph.functions[fqual]
            recording_handlers = 0
            for node in fn.nodes.of(ast.ExceptHandler):
                caught = _handler_names(node)
                if node.type and not {"Exception", "BaseException"} & set(caught):
                    continue
                calls_recorder = any(
                    isinstance(sub, ast.Call)
                    and (chain := _chain_of(sub.func))
                    and chain[-1] in recorders
                    for stmt in node.body
                    for sub in ast.walk(stmt)
                )
                if calls_recorder:
                    recording_handlers += 1
                else:
                    self._emit(
                        "EL604",
                        fqual,
                        node.lineno,
                        f"except handler in thread entry {fqual} catches "
                        f"Exception without recording it in the bounded "
                        f"error ring ({', '.join(sorted(recorders))})",
                    )
            if recording_handlers == 0:
                self._emit(
                    "EL604",
                    fqual,
                    fn.node.lineno,
                    f"thread entry {fqual} has no except-Exception handler "
                    f"routing errors into the bounded error ring "
                    f"({', '.join(sorted(recorders))}); an escaped "
                    f"exception kills the worker silently",
                )


# ----------------------------------------------------------------------
# Syntactic helpers
# ----------------------------------------------------------------------
def _nodes_under_lock(nodes: NodeIndex, lockname: str) -> set[int]:
    """ids of every node lexically inside ``with ...<lockname>:``."""
    out: set[int] = set()
    for node in nodes.of(ast.With):
        for item in node.items:
            chain = _chain_of(item.context_expr)
            if not chain and isinstance(item.context_expr, ast.Call):
                chain = _chain_of(item.context_expr.func)
            if chain and chain[-1] == lockname:
                for stmt in node.body:
                    out.update(id(n) for n in ast.walk(stmt))
    return out


def _written_through(nodes: NodeIndex) -> set[int]:
    """ids of Attribute nodes mutated *through*: interior stores
    (``self.stats.x = 1`` writes ``stats``), subscript stores
    (``self._levels[i] = run``), and in-place mutator calls
    (``self.immutables.append(m)``)."""
    out = {
        id(node.value)
        for node in nodes.of(ast.Attribute, ast.Subscript)
        if isinstance(node.ctx, (ast.Store, ast.Del))
        and isinstance(node.value, ast.Attribute)
    }
    out.update(
        id(node.func.value)
        for node in nodes.of(ast.Call)
        if isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATORS
        and isinstance(node.func.value, ast.Attribute)
    )
    return out


def _is_track_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = _chain_of(node.func)
    return bool(chain) and chain[-1] == "parallel_track"


def _track_withs(nodes: NodeIndex) -> list[ast.With]:
    """The ``with`` statements opening a ``parallel_track``, once per item."""
    return [
        node
        for node in nodes.of(ast.With)
        for item in node.items
        if _is_track_call(item.context_expr)
    ]


def _is_name(node: ast.AST | None, name: str) -> bool:
    return isinstance(node, ast.Name) and node.id == name


def _is_monotone_fork(start: ast.expr, nodes: NodeIndex) -> bool:
    """A fork point is visibly monotone when it is ``max(...)``, a
    ``now_us`` read, or a name every binding of which in the function is
    ``name = max(...)`` (an augmented or any other rebinding is not)."""
    if isinstance(start, ast.Call) and _is_name(start.func, "max"):
        return True
    chain = _chain_of(start)
    if chain and chain[-1] == "now_us":
        return True
    if not isinstance(start, ast.Name):
        return False
    bindings = [
        node
        for node in nodes.of(ast.Name)
        if node.id == start.id and isinstance(node.ctx, ast.Store)
    ]
    max_bound = {
        id(target)
        for node in nodes.of(ast.Assign, ast.AnnAssign)
        if isinstance(node.value, ast.Call) and _is_name(node.value.func, "max")
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
    }
    return bool(bindings) and all(id(node) in max_bound for node in bindings)


class _FreezeWalk(Walk):
    """EL602 freeze-then-mutate: the state is the set of name chains
    (``self.memtable``) frozen on every path so far."""

    def __init__(self, analysis: ConcurrencyAnalysis, fqual: str) -> None:
        self.analysis = analysis
        self.fqual = fqual
        self.freeze_methods = set(analysis.cfg.freeze_methods)
        self.mutators = set(analysis.cfg.frozen_mutators)

    def expr(self, node: ast.AST, frozen: set[str]) -> set[str]:
        """Check mutators against ``frozen``, then record freezes and
        un-freeze reassigned chains."""
        nodes = list(ast.walk(node))
        for sub in nodes:
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                key = _key_of(sub.func.value)
                if key in frozen and sub.func.attr in self.mutators:
                    self.analysis._emit(
                        "EL602",
                        self.fqual,
                        sub.lineno,
                        f"{key} is frozen earlier in {self.fqual} and then "
                        f"mutated via .{sub.func.attr}()",
                    )
        for sub in nodes:
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in self.freeze_methods
            ):
                key = _key_of(sub.func.value)
                if key:
                    frozen.add(key)
            elif isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                for target in targets:
                    frozen.discard(_key_of(target))
        return frozen


def _key_of(expr: ast.expr) -> str | None:
    chain = _chain_of(expr)
    return ".".join(chain) if chain else None


def run_concurrency(index: ProjectIndex) -> list[Finding]:
    """Entry point: EL601–EL604 over the indexed project."""
    if not index.config.concurrency.enabled:
        return []
    return ConcurrencyAnalysis(index, get_callgraph(index)).run()
