"""EL7xx — commit-protocol effect ordering for the pipelined write path.

Recovery correctness rests on a strict effect order: WAL bytes hit the
host (``wal.write``), are made durable (``wal.fsync`` or an epoch roll),
and only then may a seal advertise them (``seal`` — the monotonic-
counter commit every verifier trusts).  Likewise a seal taken after a
flush install must carry the advanced ``flushed_ts``, or recovery
replays records the flush already persisted.  The ``[protocol]`` table
in ``analysis/zones.toml`` declares the effect alphabet (call patterns
and effect-attributes) and the happens-before rules; this checker walks
every function matching ``protocol.functions`` and validates each rule
intraprocedurally:

* **EL701** — a ``requires`` rule violated: the effect occurs with none
  of its prerequisite alternatives established (``reset-by`` effects
  un-establish them, so an un-fsynced append poisons a stale fsync);
  or a ``before-return`` rule violated: the function can return with
  the follow-up effect outstanding.
* **EL702** — same machinery, reserved for the ``flushed_ts`` advance:
  a seal in a flush path (``when flush.install``) without the advance.
* **EL703** — crash-point coverage: every path between two *distinct*
  durable effects must cross a named ``crash_point`` (the EL302/303
  bijection stays honest — if a state transition cannot be crashed
  into, the recovery tests cannot witness it).

The walk is :class:`~repro.analysis.flow.Walk`'s (branches, loops,
handlers): established effects intersect at joins while pending crash
coverage and before-return obligations union.  An ``if`` whose test
names a declared guard terminal (``if self.wal is not None: ... sync()``)
establishes the guarded effect at the join — the else-branch is
vacuously ordered.

Calls into other in-scope functions are handled with a *sentinel
summary* (memoised by :class:`~repro.analysis.flow.CalleeMemo`): the
callee's own walk runs once with a sentinel marker as the incoming
pending set, recording which of the callee's durable effects can meet
un-crash-covered caller state, what the callee leaves pending at
return, and what it establishes.  The summary is branch-aware — a
helper like ``_commit``, crash-pointed on both sides of its hook, is
correctly seen to absorb pending durable effects — while each
function's *internal* violations are still reported exactly once, by
its own analysis.
"""

from __future__ import annotations

import ast
import fnmatch
from dataclasses import dataclass, field

from repro.analysis.callgraph import CallGraph, get_callgraph
from repro.analysis.engine import ProjectIndex
from repro.analysis.flow import CalleeMemo, Effects, Walk, _terminals
from repro.analysis.model import Finding
from repro.analysis.rules import findings_from

#: Marker for "whatever the caller had pending" in sentinel summaries.
_SENT = "\x00incoming"


@dataclass
class _Summary:
    """Branch-aware carrier behaviour of one in-scope function."""

    #: Durable effects that can meet uncovered incoming pending state.
    paired: set[str] = field(default_factory=set)
    #: Pending set at return (may contain the sentinel: the callee is
    #: transparent to incoming pending on at least one path).
    end_pending: set[str] = field(default_factory=lambda: {_SENT})
    #: Effects established on every path.
    end_established: set[str] = field(default_factory=set)

    @property
    def consumes(self) -> bool:
        """Every path crash-covers incoming pending before any durable."""
        return not self.paired and _SENT not in self.end_pending


@dataclass
class _State:
    """Abstract state while walking one function body."""

    established: set[str] = field(default_factory=set)
    #: Durable effects awaiting a crash point (EL703); a set because
    #: branch joins union.
    pending: set[str] = field(default_factory=set)
    #: Outstanding before-return obligations, by rule index.
    owed: set[int] = field(default_factory=set)

    def copy(self) -> "_State":
        return _State(set(self.established), set(self.pending), set(self.owed))


class ProtocolAnalysis:
    def __init__(self, index: ProjectIndex, graph: CallGraph) -> None:
        self.index = index
        self.graph = graph
        self.cfg = index.config.protocol
        self.raw: list[tuple[str, str, int, str]] = []
        self.effects = Effects(self.cfg.effects)
        self.attr_effects = {
            attr: effect
            for effect, attrs in self.cfg.effect_attrs.items()
            for attr in attrs
        }
        self.durable = set(self.cfg.durable)
        self.requires_rules = [r for r in self.cfg.order if r.kind == "requires"]
        self.br_rules = [r for r in self.cfg.order if r.kind == "before-return"]
        self.summary = CalleeMemo(self._summarize, _Summary)

    def in_scope(self, qual: str) -> bool:
        return any(fnmatch.fnmatchcase(qual, p) for p in self.cfg.functions)

    def attr_effects_in(self, node: ast.AST) -> list[tuple[str, int]]:
        """Effect-attribute assignments made by one statement."""
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        return [
            (self.attr_effects[t.attr], t.lineno)
            for t in targets
            if isinstance(t, ast.Attribute) and t.attr in self.attr_effects
        ]

    def run(self) -> list[Finding]:
        for qual in sorted(self.graph.functions):
            if self.in_scope(qual):
                node = self.graph.functions[qual].node
                walk = _Walk(self, qual, sentinel=False)
                state = walk.block(node.body, _State())
                walk.check_owed(state, node.lineno, at_return=False)
        return findings_from(self.raw)

    def _summarize(self, qual: str) -> _Summary:
        walk = _Walk(self, qual, sentinel=True)
        body = self.graph.functions[qual].node.body
        state = walk.block(body, _State(pending={_SENT}))
        return _Summary(walk.paired, state.pending, state.established)


class _Walk(Walk):
    """One function body: checked on its own, or walked as a callee
    summary (``sentinel``: findings are left to the callee's own walk)."""

    def __init__(self, analysis: ProtocolAnalysis, qual: str, sentinel: bool) -> None:
        self.analysis = analysis
        self.qual = qual
        fn = analysis.graph.functions[qual]
        self.relpath = analysis.index.modules[fn.module].relpath
        self.sentinel = sentinel
        self.paired: set[str] = set()
        self.br_active = [] if sentinel else [
            i
            for i, rule in enumerate(analysis.br_rules)
            if fnmatch.fnmatchcase(qual, rule.scope or "*")
        ]
        # Every effect occurring anywhere in the body (``when`` gating).
        self.context: set[str] = set()
        for node in fn.nodes.of(ast.Call):
            self.context.update(analysis.effects.of(analysis.graph.site(node)))
        for node in fn.nodes.of(ast.Assign, ast.AugAssign, ast.AnnAssign):
            self.context.update(e for e, _ in analysis.attr_effects_in(node))

    def _emit(self, rule: str, line: int, message: str) -> None:
        if not self.sentinel:
            self.analysis.raw.append((rule, self.relpath, line, message))

    # ------------------------------------------------------------------
    # Transfer functions
    # ------------------------------------------------------------------
    def expr(self, node: ast.AST, state: _State) -> _State:
        """Apply call effects in source order."""
        calls = [sub for sub in ast.walk(node) if isinstance(sub, ast.Call)]
        calls.sort(key=lambda c: (c.lineno, c.col_offset))
        for call in calls:
            self._apply_call(call, state)
        return state

    def simple(self, stmt: ast.stmt, state: _State) -> _State:
        """Calls first, then effect-attribute stores."""
        self.expr(stmt, state)
        if isinstance(stmt, ast.Return):
            self.check_owed(state, stmt.lineno, at_return=True)
        for effect, line in self.analysis.attr_effects_in(stmt):
            self._apply_effect(effect, line, state)
        return state

    def join(self, a: _State, b: _State) -> _State:
        return _State(
            established=a.established & b.established,
            pending=a.pending | b.pending,
            owed=a.owed | b.owed,
        )

    def join_branches(self, stmt: ast.If, body: _State, orelse: _State) -> _State:
        joined = self.join(body, orelse)
        terminals = _terminals(stmt.test)
        for effect in body.established - joined.established:
            if set(self.analysis.cfg.guards.get(effect, ())) & terminals:
                joined.established.add(effect)
        return joined

    def _apply_effect(self, effect: str, line: int, state: _State) -> None:
        analysis = self.analysis
        for rule in analysis.requires_rules:
            if rule.effect != effect:
                continue
            if rule.when is not None and rule.when not in self.context:
                continue
            if not any(alt in state.established for alt in rule.requires):
                alts = "|".join(rule.requires)
                self._emit(
                    rule.rule,
                    line,
                    f"{effect} in {self.qual} without a preceding {alts}"
                    + (
                        f" (required when {rule.when} occurs)"
                        if rule.when
                        else ""
                    )
                    + f"; ordering rule: {rule.raw}",
                )
        for rule in analysis.requires_rules:
            if effect in rule.reset_by:
                state.established.difference_update(rule.requires)
        state.established.add(effect)
        for i in self.br_active:
            rule = analysis.br_rules[i]
            if effect == rule.effect:
                state.owed.add(i)
            if effect == rule.then:
                state.owed.discard(i)
        if effect in analysis.durable:
            for prior in sorted(state.pending):
                if prior == effect:
                    continue
                if prior == _SENT:
                    self.paired.add(effect)
                    continue
                self._emit(
                    "EL703",
                    line,
                    f"durable effects {prior} and {effect} in {self.qual} "
                    f"with no crash_point between them; the fault plan "
                    f"cannot witness the intermediate state",
                )
            state.pending = {effect}

    def _apply_call(self, call: ast.Call, state: _State) -> None:
        analysis = self.analysis
        site = analysis.graph.site(call)
        effects = analysis.effects.of(site)
        if "crash_point" in effects:
            state.pending.clear()
            state.established.add("crash_point")
            return
        callee = site.target
        in_scope = callee in analysis.graph.functions and analysis.in_scope(callee)
        summary = analysis.summary(callee) if in_scope else None
        if summary is not None and summary.consumes:
            state.pending.clear()
        if effects:
            for effect in effects:
                self._apply_effect(effect, call.lineno, state)
            if summary is not None and not summary.end_pending:
                # The callee ends crash-covered on every path, so nothing
                # (including the effect this call models) stays pending.
                state.pending.clear()
            return
        if summary is None:
            return
        if summary.paired and state.pending:
            for prior in sorted(state.pending):
                for durable in sorted(summary.paired):
                    if prior == durable:
                        continue
                    if prior == _SENT:
                        self.paired.add(durable)
                        continue
                    self._emit(
                        "EL703",
                        call.lineno,
                        f"durable effects {prior} and {durable} "
                        f"(inside {callee.rsplit('.', 1)[-1]}) with no "
                        f"crash_point between them in {self.qual}; the "
                        f"fault plan cannot witness the intermediate state",
                    )
        new_pending = set(summary.end_pending) - {_SENT}
        if _SENT in summary.end_pending:
            new_pending |= state.pending
        state.pending = new_pending
        state.established |= summary.end_established - {_SENT}

    def check_owed(self, state: _State, line: int, at_return: bool) -> None:
        for i in sorted(state.owed):
            rule = self.analysis.br_rules[i]
            where = "returns" if at_return else "ends"
            self._emit(
                rule.rule,
                line,
                f"{self.qual} {where} with {rule.effect} not followed by "
                f"{rule.then}; ordering rule: {rule.raw}",
            )
        state.owed.clear()


def run_protocol(index: ProjectIndex) -> list[Finding]:
    """Entry point: EL701–EL703 over the indexed project."""
    if not index.config.protocol.enabled:
        return []
    return ProtocolAnalysis(index, get_callgraph(index)).run()
