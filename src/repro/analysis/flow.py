"""Machinery shared by the dataflow passes.

The taint (EL5xx), concurrency (EL6xx), protocol (EL7xx) and cost
(EL8xx) passes differ only in their state, their transfers, their
joins and their loop rule.  Everything else exists once, here:

* :class:`Matcher` and :class:`Effects` — call patterns matched against
  a resolved call site (:meth:`~repro.analysis.callgraph.CallGraph.site`);
* :class:`Walk` — the one statement dispatcher: taint, the cost
  certificates and the "established on every path" checks (EL602
  freeze-then-mutate, EL701-EL703, EL810, EL811) walk code through it;
* :class:`CalleeMemo` — per-function summaries with a recursion guard;
* :func:`closure` — reachability over any successor function (call
  graph, reverse call graph, import graph).

This module imports nothing from the rest of the package, so every
layer (the engine included) can use it.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatchcase
from typing import Callable, Iterable

_FuncDef = (ast.FunctionDef, ast.AsyncFunctionDef)


def _chain_of(node: ast.expr) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; [] for anything not a name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _terminals(test: ast.expr) -> set[str]:
    """Name ids and attribute names appearing in an ``if`` test."""
    out: set[str] = set()
    for node in ast.walk(test):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def closure(roots: Iterable, successors: Callable[..., Iterable]) -> set:
    """``roots`` plus everything reachable from them through ``successors``."""
    seen: set = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(successors(node))
    return seen


class Matcher:
    """fnmatch over qualified and syntactic call names, with suffix forms.

    A pattern matches a candidate name if it fnmatches the whole name or
    a dotted suffix of it: ``copy_in`` matches ``env.copy_in`` and
    ``repro.sgx.env.ExecutionEnv.copy_in``; ``DigestRegistry.set``
    matches the latter's qualified form; full globs like
    ``repro.core.verifier.Verifier.verify_*`` match outright.
    """

    def __init__(self, patterns: Iterable[str]) -> None:
        self.patterns = tuple(patterns)
        self._cache: dict[tuple[str | None, str | None], bool] = {}

    def __bool__(self) -> bool:
        return bool(self.patterns)

    def match(self, qual: str | None, display: str | None = None) -> bool:
        if not self.patterns:
            return False
        key = (qual, display)
        hit = self._cache.get(key)
        if hit is None:
            hit = any(
                self._match_one(pattern, name)
                for pattern in self.patterns
                for name in (qual, display)
                if name is not None
            )
            self._cache[key] = hit
        return hit

    @staticmethod
    def _match_one(pattern: str, name: str) -> bool:
        return fnmatchcase(name, pattern) or fnmatchcase(name, "*." + pattern)


class Effects:
    """Named call-pattern sets (an effect alphabet) over call sites."""

    def __init__(self, table: dict[str, Iterable[str]]) -> None:
        self._matchers = {name: Matcher(patterns) for name, patterns in table.items()}
        self._memo: dict[tuple[str | None, str], tuple[str, ...]] = {}

    def of(self, site) -> tuple[str, ...]:
        """Sorted names of the effects whose patterns match ``site``."""
        key = (site.target, site.display)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._memo[key] = tuple(
                sorted(name for name, m in self._matchers.items() if m.match(*key))
            )
        return hit


def is_unit_loop(unit_loops: Matcher | None, iterable: ast.expr) -> bool:
    """Does the loop iterate a declared constant-cardinality registry?"""
    chain = _chain_of(iterable)
    return bool(unit_loops and chain and unit_loops.match(None, ".".join(chain)))


_JUMPS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


def ends_in_jump(stmts: list[ast.stmt], jumps: tuple[type, ...] = _JUMPS) -> bool:
    """Does ``stmts`` hold one of ``jumps`` (by default ``return``,
    ``raise``, ``break`` or ``continue``), directly or in the body of a
    ``with``, or in the body or ``finally`` of a ``try``?  Statements
    after it are not on the block's fall-through path.  Branches and
    loops are not looked into."""
    for stmt in stmts:
        if isinstance(stmt, jumps):
            return True
        if isinstance(stmt, (ast.With, ast.AsyncWith)) and ends_in_jump(
            stmt.body, jumps
        ):
            return True
        if isinstance(stmt, ast.Try) and (
            ends_in_jump(stmt.body, jumps) or ends_in_jump(stmt.finalbody, jumps)
        ):
            return True
    return False


class CalleeMemo:
    """Per-function summaries, each computed once by ``compute(qual)``.

    A call cycle back into a summary still being computed gets
    ``fallback()`` (uncached), which bounds recursion.
    """

    def __init__(
        self, compute: Callable[[str], object], fallback: Callable[[], object]
    ) -> None:
        self._compute = compute
        self._fallback = fallback
        self._done: dict[str, object] = {}
        self._active: set[str] = set()

    def __call__(self, qual: str):
        if qual in self._done:
            return self._done[qual]
        if qual in self._active:
            return self._fallback()
        self._active.add(qual)
        try:
            result = self._compute(qual)
        finally:
            self._active.discard(qual)
        self._done[qual] = result
        return result


class Walk:
    """The one statement dispatcher every dataflow pass walks code with.

    Only this class branches on statement kinds (:data:`_WALKS`), and
    its ``walk_*`` methods fix the order in which a statement's parts
    run.  A pass supplies :meth:`expr`, the transfer for an expression
    (a test, an iterable, a ``with`` item), and may override the other
    hooks.  Transfers may update the state in place; all return it.

    The defaults serve the "established on every path" checks (EL602,
    EL701-EL703, EL810, EL811): branches intersect, a handler starts
    from the state before its ``try``, and the loop rule walks the body
    twice (the second pass sees facts carried round the back edge) and
    joins the entry state, since a body may run zero times or repeat.
    Whatever a pass's own rule, the body of a ``for`` over a declared
    unit iterable (``unit_loops``, e.g. ``self.listeners``) runs once,
    straight-line.
    """

    unit_loops: Matcher | None = None

    def block(self, stmts: list[ast.stmt], state):
        for stmt in stmts:
            state = self.stmt(stmt, state)
        return state

    def stmt(self, stmt: ast.stmt, state):
        walk = _WALKS.get(type(stmt))
        if walk is None:
            return self.simple(stmt, state)
        return getattr(self, walk)(stmt, state)

    def walk_if(self, stmt: ast.If, state):
        state = self.expr(stmt.test, state)
        body = self.block(stmt.body, state.copy())
        return self.join_branches(stmt, body, self.block(stmt.orelse, state))

    def walk_for(self, stmt: ast.For | ast.AsyncFor, state):
        state = self.bind(stmt.target, stmt.iter, state)
        if is_unit_loop(self.unit_loops, stmt.iter):
            return self.block(stmt.orelse, self.block(stmt.body, state))
        return self.block(stmt.orelse, self.loop(stmt, state))

    def walk_while(self, stmt: ast.While, state):
        state = self.expr(stmt.test, state)
        return self.block(stmt.orelse, self.loop(stmt, state))

    def walk_try(self, stmt: ast.Try, state):
        body = joined = self.block(stmt.body, state.copy())
        for handler in stmt.handlers:
            caught = self.catch(handler, state.copy(), body)
            joined = self.join_handler(handler, joined, self.block(handler.body, caught))
        return self.block(stmt.finalbody, self.block(stmt.orelse, joined))

    def walk_with(self, stmt: ast.With | ast.AsyncWith, state):
        for item in stmt.items:
            state = self.bind(item.optional_vars, item.context_expr, state)
        return self.block(stmt.body, state)

    def walk_match(self, stmt: ast.Match, state):
        state = self.expr(stmt.subject, state)
        joined = state  # no case may match
        for case in stmt.cases:
            joined = self.join(joined, self.block(case.body, state.copy()))
        return joined

    def expr(self, node: ast.AST, state):
        raise NotImplementedError

    def simple(self, stmt: ast.stmt, state):
        return self.expr(stmt, state)

    def bind(self, target: ast.expr | None, value: ast.expr, state):
        """A loop head or ``with`` item: ``value`` evaluated into ``target``."""
        return self.expr(value, state)

    def join(self, a, b):
        return a & b

    def join_branches(self, stmt: ast.If, body, orelse):
        return self.join(body, orelse)

    def join_handler(self, handler: ast.ExceptHandler, joined, caught):
        return self.join(joined, caught)

    def catch(self, handler: ast.ExceptHandler, before, body):
        """A handler's entry state: ``before`` is a copy of the state
        before the ``try``, ``body`` the state after its body (the
        exception may come from anywhere in between)."""
        return before

    def loop(self, stmt: ast.For | ast.AsyncFor | ast.While, state):
        once = self.block(stmt.body, state.copy())
        return self.join(state, self.block(stmt.body, once))

    def nested(self, stmt: ast.stmt, state):
        return state


#: Statement kind -> the :class:`Walk` method that walks it.
_WALKS = {
    ast.If: "walk_if",
    ast.For: "walk_for",
    ast.AsyncFor: "walk_for",
    ast.While: "walk_while",
    ast.Try: "walk_try",
    ast.With: "walk_with",
    ast.AsyncWith: "walk_with",
    ast.Match: "walk_match",
    ast.FunctionDef: "nested",
    ast.AsyncFunctionDef: "nested",
    ast.ClassDef: "nested",
}
