"""Machinery shared by the dataflow passes.

The taint (EL5xx), concurrency (EL6xx), protocol (EL7xx) and cost
(EL8xx) passes differ only in their lattice, their transfer function
and their loop rule.  Everything else exists once, here:

* :class:`Matcher` and :class:`Effects` — call patterns matched against
  a resolved call site (:meth:`~repro.analysis.callgraph.CallGraph.site`);
* :class:`MustWalk` — the statement walker for "established on every
  path" checks (EL602 freeze-then-mutate, EL701-EL703, EL810, EL811);
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


class MustWalk:
    """One statement walker for "established on every path" checks.

    The state holds the facts established on every path so far.  Each
    branch walks its own ``state.copy()`` and the branches meet in
    :meth:`join` (set intersection unless overridden; an ``if`` joins
    through :meth:`join_branches`, which sees the test).  ``try``
    handlers start from the state before the ``try`` and join the body;
    ``else`` and ``finally`` follow the join.  Nested ``def``/``class``
    bodies are skipped (:meth:`nested`).

    The loop rule: the body of a loop over a declared unit iterable
    (``unit_loops``, e.g. ``self.listeners``) runs once, straight-line.
    Any other body may run zero times or repeat, so it is walked twice
    (the second pass sees facts carried round the back edge) and the
    result joins the entry state.

    Subclasses define :meth:`expr` — the transfer for an expression a
    compound statement evaluates (an ``if`` test, a loop iterable, a
    ``with`` item) — and may override :meth:`simple`, the transfer for a
    simple statement.  Both may update the state in place; both return
    it.
    """

    unit_loops: Matcher | None = None

    def block(self, stmts: list[ast.stmt], state):
        for stmt in stmts:
            state = self.stmt(stmt, state)
        return state

    def stmt(self, stmt: ast.stmt, state):
        if isinstance(stmt, ast.If):
            state = self.expr(stmt.test, state)
            return self.join_branches(
                stmt.test,
                self.block(stmt.body, state.copy()),
                self.block(stmt.orelse, state.copy()),
            )
        if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
            head = stmt.test if isinstance(stmt, ast.While) else stmt.iter
            state = self.expr(head, state)
            if not isinstance(stmt, ast.While) and is_unit_loop(
                self.unit_loops, head
            ):
                state = self.block(stmt.body, state)
            else:
                once = self.block(stmt.body, state.copy())
                state = self.join(state, self.block(stmt.body, once))
            return self.block(stmt.orelse, state)
        if isinstance(stmt, ast.Try):
            joined = self.block(stmt.body, state.copy())
            for handler in stmt.handlers:
                joined = self.join(joined, self.block(handler.body, state.copy()))
            return self.block(stmt.finalbody, self.block(stmt.orelse, joined))
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                state = self.expr(item.context_expr, state)
            return self.block(stmt.body, state)
        if isinstance(stmt, (*_FuncDef, ast.ClassDef)):
            return self.nested(stmt, state)
        return self.simple(stmt, state)

    def expr(self, node: ast.AST, state):
        raise NotImplementedError

    def simple(self, stmt: ast.stmt, state):
        return self.expr(stmt, state)

    def join(self, a, b):
        return a & b

    def join_branches(self, test: ast.expr, body, orelse):
        return self.join(body, orelse)

    def nested(self, stmt: ast.stmt, state):
        return state
