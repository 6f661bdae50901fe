"""Interprocedural taint & secret-flow analysis (the EL5xx rules).

The EL1xx rules police the trust boundary *syntactically* — import
edges, zone membership, handle dereferences.  This pass tracks the
actual dataflow: values returned by host-facing sources (``copy_in``,
``file_read``, proof pools, wire deserialiser inputs) carry an
``UNTRUSTED`` label, enclave material (sealing keys) carries ``SECRET``,
and the labels follow assignments, arithmetic, f-strings, containers,
and — crucially — *calls*, through per-function summaries computed to a
worklist fixpoint over the project call graph.

Policies come from the ``[taint]`` section of ``analysis/zones.toml``:

* **sources** taint their results (``untrusted_calls``,
  ``untrusted_attrs``) or their parameters (``untrusted_params``);
* **sanitizers** launder ``UNTRUSTED`` (verification proves a hash path
  to a trusted root; ``constant_time_eq`` reduces bytes to a safe bool);
  **declassifiers** launder ``SECRET`` (sealing/hashing a secret is the
  sanctioned way for derived bytes to leave the enclave);
* **sinks** are where a label becomes a violation: ``trusted_sinks``
  must never receive ``UNTRUSTED`` data (EL501), ``untrusted_sinks`` —
  plus exception messages and calls into untrusted-zone functions —
  must never receive ``SECRET`` data (EL502).

EL503 flags a verification call whose result is discarded: computing a
verdict and not letting it gate control flow is the paper's fail-open
bug in miniature.

The analysis is flow-sensitive within a function (branches join, loop
bodies run twice to expose loop-carried taint) and summary-based across
functions: a summary says which labels the return value carries, which
parameters flow into it, and which parameters reach which sinks.
Summaries only grow, and the label lattice is finite, so the fixpoint
terminates — recursion included.
"""

from __future__ import annotations

import ast
import functools
from collections import deque
from typing import NamedTuple

from repro.analysis.callgraph import CallGraph, FunctionNode, get_callgraph
from repro.analysis.engine import ProjectIndex
from repro.analysis.flow import Effects, Matcher, Walk, closure, ends_in_jump
from repro.analysis.model import Finding
from repro.analysis.rules import findings_from
from repro.analysis.zones import TaintConfig, Zone

UNTRUSTED = 1
SECRET = 2

_LABEL_NAMES = {UNTRUSTED: "untrusted", SECRET: "secret"}

#: Builtins whose result is label-free regardless of argument taint.
_CLEAN_BUILTINS = frozenset(
    {"len", "isinstance", "issubclass", "hasattr", "callable", "type", "id"}
)

#: The jumps that leave a function, not just a loop iteration.
_EXITS = (ast.Return, ast.Raise)

#: Safety valve: no function body is re-analysed more often than this.
_MAX_ROUNDS_PER_FUNCTION = 32


class Val(NamedTuple):
    """Abstract value: labels present, parameter flows, source names."""

    labels: int = 0
    params: frozenset = frozenset()
    #: (label, human-readable source name) pairs for finding messages.
    origins: frozenset = frozenset()


CLEAN = Val()


def _join(a: Val, b: Val) -> Val:
    if a is CLEAN:
        return b
    if b is CLEAN:
        return a
    return Val(a.labels | b.labels, a.params | b.params, a.origins | b.origins)


def _origin_names(val: Val, label: int) -> str:
    names = sorted(name for lab, name in val.origins if lab == label)
    return ", ".join(names) if names else "tainted value"


class Summary(NamedTuple):
    """What a caller needs to know about a function."""

    ret_labels: int = 0
    ret_params: frozenset = frozenset()
    #: (param index, sink kind, sink description) a parameter reaches.
    param_sinks: frozenset = frozenset()


EMPTY_SUMMARY = Summary()


def _merge_summary(a: Summary, b: Summary) -> Summary:
    return Summary(
        a.ret_labels | b.ret_labels,
        a.ret_params | b.ret_params,
        a.param_sinks | b.param_sinks,
    )


class TaintAnalysis:
    """Fixpoint driver + reporting for one indexed project."""

    def __init__(
        self, index: ProjectIndex, graph: CallGraph, config: TaintConfig
    ) -> None:
        self.index = index
        self.graph = graph
        self.config = config
        self.m_untrusted_attrs = Matcher(config.untrusted_attrs)
        self.m_untrusted_params = Matcher(config.untrusted_params)
        self.m_secret_attrs = Matcher(config.secret_attrs)
        #: What a call site is to taint, matched once per distinct site.
        self.roles = Effects(
            {
                "untrusted": config.untrusted_calls,
                "secret": config.secret_calls,
                "sanitizer": config.sanitizers,
                "declassifier": config.declassifiers,
                "trusted_sink": config.trusted_sinks,
                "untrusted_sink": config.untrusted_sinks,
                "verifier": config.verifiers,
            }
        )
        self.summaries: dict[str, Summary] = {}
        self.children: dict[ast.expr, list[ast.expr]] = {}
        #: module -> Zone, memoised (zone_of walks every pattern).
        self.zone_of = functools.cache(index.config.zone_of)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, scope: set[str] | None = None) -> list[Finding]:
        """Fixpoint over (the dependency cone of) the project, then report.

        ``scope`` limits *reporting* to those modules; the fixpoint still
        covers everything the scoped modules (transitively) import, so
        summaries of out-of-scope callees stay sound.
        """
        modules = self.index.modules
        if scope is None:
            analysed = set(modules)
        else:
            analysed = closure(
                (m for m in scope if m in modules),
                lambda m: (t for t, _ in modules[m].imports if t in modules),
            )
        order = [
            fqual
            for mod in sorted(analysed)
            for fqual in self.graph.functions_of_module.get(mod, ())
        ]
        in_set = set(order)
        pending = deque(order)
        queued = set(order)
        rounds: dict[str, int] = {}
        while pending:
            fqual = pending.popleft()
            queued.discard(fqual)
            rounds[fqual] = rounds.get(fqual, 0) + 1
            if rounds[fqual] > _MAX_ROUNDS_PER_FUNCTION:
                continue
            summary = _Analyzer(self, fqual).run()
            merged = _merge_summary(
                self.summaries.get(fqual, EMPTY_SUMMARY), summary
            )
            if merged != self.summaries.get(fqual, EMPTY_SUMMARY):
                self.summaries[fqual] = merged
                for caller in self.graph.callers.get(fqual, ()):
                    if caller in in_set and caller not in queued:
                        pending.append(caller)
                        queued.add(caller)

        report_modules = analysed if scope is None else (scope & analysed)
        raw: list[tuple[str, str, int, str]] = []
        for mod in sorted(report_modules):
            for fqual in self.graph.functions_of_module.get(mod, ()):
                _Analyzer(self, fqual, report=raw).run()
        return findings_from(raw)


# ----------------------------------------------------------------------
# Intraprocedural transfer functions
# ----------------------------------------------------------------------
class _Analyzer(Walk):
    """One flow-sensitive pass over one function body.

    The state is an environment: name (or ``self.<attr>``) -> :class:`Val`.
    Branches join by union; the loop rule runs a body twice, joining the
    entry state each time, so loop-carried taint reaches round two.  An
    ``except`` handler starts from the union of the states before the
    ``try`` and after its body: the exception may come from anywhere in
    between.
    """

    def __init__(
        self,
        engine: TaintAnalysis,
        fqual: str,
        report: list[tuple[str, str, int, str]] | None = None,
    ) -> None:
        self.engine = engine
        self.fn = engine.graph.functions[fqual]
        #: Where findings go; ``None`` while the fixpoint runs.
        self.report = report
        self.ret = CLEAN
        self.param_sinks: set[tuple[int, str, str]] = set()
        self.relpath = engine.index.modules[self.fn.module].relpath

    def run(self) -> Summary:
        env: dict[str, Val] = {}
        params_tainted = self.engine.m_untrusted_params.match(
            self.fn.qualname, self.fn.name
        )
        for i, name in enumerate(self.fn.params):
            labels = 0
            origins: frozenset = frozenset()
            if params_tainted and not (i == 0 and self.fn.is_method):
                labels = UNTRUSTED
                origins = frozenset({(UNTRUSTED, f"parameter {name!r}")})
            env[name] = Val(labels, frozenset({i}), origins)
        self.block(self.fn.node.body, env)
        return Summary(
            ret_labels=self.ret.labels,
            ret_params=self.ret.params,
            param_sinks=frozenset(self.param_sinks),
        )

    # ------------------------------------------------------------------
    # Statement transfers (the walk is flow.Walk's)
    # ------------------------------------------------------------------
    def expr(self, node: ast.expr, env: dict[str, Val]) -> dict[str, Val]:
        self.eval(node, env)
        return env

    def simple(self, stmt: ast.stmt, env: dict[str, Val]) -> dict[str, Val]:
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
            if isinstance(stmt.value, ast.Call):
                self._check_discarded_verifier(stmt.value)
        elif isinstance(stmt, ast.Assign):
            val = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.assign(target, val, env)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.assign(stmt.target, self.eval(stmt.value, env), env)
        elif isinstance(stmt, ast.AugAssign):
            val = self.eval(stmt.value, env)
            old = self.eval(stmt.target, env)
            self.assign(stmt.target, _join(old, val), env)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self.ret = _join(self.ret, self.eval(stmt.value, env))
        elif isinstance(stmt, ast.Raise) and stmt.exc is not None:
            val = self.eval(stmt.exc, env)
            if val.labels & SECRET:
                self._report(
                    "EL502",
                    stmt.lineno,
                    f"enclave secret ({_origin_names(val, SECRET)}) flows into an "
                    f"exception message; exceptions cross into untrusted logs",
                )
            for param in val.params:
                self.param_sinks.add((param, "untrusted", "exception message"))
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
            if stmt.msg is not None:
                self.eval(stmt.msg, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        # Import/Global/Pass/Break/Continue: no flow.
        return env

    def bind(
        self, target: ast.expr | None, value: ast.expr, env: dict[str, Val]
    ) -> dict[str, Val]:
        val = self.eval(value, env)
        if target is not None:
            self.assign(target, val, env)
        return env

    def catch(
        self, handler: ast.ExceptHandler, before: dict[str, Val], body: dict[str, Val]
    ) -> dict[str, Val]:
        env = self.join(before, body)
        if handler.name:
            env[handler.name] = CLEAN
        return env

    def join_handler(
        self, handler: ast.ExceptHandler, joined: dict[str, Val], caught: dict[str, Val]
    ) -> dict[str, Val]:
        # A handler that raises or returns reaches no code after its try:
        # ``except E: raise`` around a verifier keeps its verdict.
        if ends_in_jump(handler.body, _EXITS) and self._leaves_function(handler):
            return joined
        return self.join(joined, caught)

    def _leaves_function(self, handler: ast.ExceptHandler) -> bool:
        """Does a raise or return in ``handler`` leave the function: no
        ``finally`` runs after it, and no ``try`` around its own may
        catch it?"""
        start = (handler.lineno, handler.col_offset)
        end = (handler.end_lineno, handler.end_col_offset)
        for node in self.fn.nodes.of(ast.Try):
            if node.finalbody:  # runs after all that precedes it
                last = (node.finalbody[0].lineno, node.finalbody[0].col_offset)
            elif handler in node.handlers:  # its own try
                continue
            else:
                last = (node.end_lineno, node.end_col_offset)
            if (node.lineno, node.col_offset) < start and end <= last:
                return False
        return True

    def loop(self, stmt: ast.stmt, env: dict[str, Val]) -> dict[str, Val]:
        for _ in range(2):
            env = self.join(env, self.block(stmt.body, dict(env)))
        return env

    @staticmethod
    def join(a: dict[str, Val], b: dict[str, Val]) -> dict[str, Val]:
        out = dict(a)
        for key, val in b.items():
            out[key] = _join(out.get(key, CLEAN), val)
        return out

    def assign(self, target: ast.expr, val: Val, env: dict[str, Val]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = val
        elif isinstance(target, ast.Attribute):
            if isinstance(target.value, ast.Name) and target.value.id == "self":
                env[f"self.{target.attr}"] = val
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, val, env)
        elif isinstance(target, ast.Starred):
            self.assign(target.value, val, env)
        elif isinstance(target, ast.Subscript):
            if isinstance(target.value, ast.Name):
                name = target.value.id
                env[name] = _join(env.get(name, CLEAN), val)
            elif (
                isinstance(target.value, ast.Attribute)
                and isinstance(target.value.value, ast.Name)
                and target.value.value.id == "self"
            ):
                key = f"self.{target.value.attr}"
                env[key] = _join(env.get(key, CLEAN), val)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def eval(self, node: ast.expr, env: dict[str, Val]) -> Val:
        if isinstance(node, ast.Constant):
            return CLEAN
        if isinstance(node, ast.Name):
            return env.get(node.id, CLEAN)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, env)
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Compare):
            # A comparison yields a bool: the check itself, not the data.
            self.eval(node.left, env)
            for comp in node.comparators:
                self.eval(comp, env)
            return CLEAN
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return _join(self.eval(node.body, env), self.eval(node.orelse, env))
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(node.generators, [node.elt], env)
        if isinstance(node, ast.DictComp):
            return self._eval_comprehension(
                node.generators, [node.key, node.value], env
            )
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                val = self.eval(node.value, env)
                self.ret = _join(self.ret, val)
            return CLEAN
        if isinstance(node, ast.NamedExpr):
            val = self.eval(node.value, env)
            self.assign(node.target, val, env)
            return val
        if isinstance(node, ast.Lambda):
            return CLEAN
        # Operators, containers, subscripts, slices, f-strings, starred
        # and awaited values: the join of the children.
        children = self.engine.children.get(node)
        if children is None:
            children = self.engine.children[node] = [
                child for child in ast.iter_child_nodes(node) if isinstance(child, ast.expr)
            ]
        out = CLEAN
        for child in children:
            out = _join(out, self.eval(child, env))
        return out

    def _eval_comprehension(
        self,
        generators: list[ast.comprehension],
        results: list[ast.expr],
        env: dict[str, Val],
    ) -> Val:
        inner = dict(env)
        for gen in generators:
            iter_val = self.eval(gen.iter, inner)
            self.assign(gen.target, iter_val, inner)
            for cond in gen.ifs:
                self.eval(cond, inner)
        out = CLEAN
        for result in results:
            out = _join(out, self.eval(result, inner))
        return out

    def _eval_attribute(self, node: ast.Attribute, env: dict[str, Val]) -> Val:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            stored = env.get(f"self.{node.attr}")
            if stored is not None:
                return self._apply_attr_labels(stored, node.attr)
        base = self.eval(node.value, env)
        return self._apply_attr_labels(base, node.attr)

    def _apply_attr_labels(self, base: Val, attr: str) -> Val:
        labels = base.labels
        origins = base.origins
        if self.engine.m_untrusted_attrs.match(attr):
            labels |= UNTRUSTED
            origins = origins | {(UNTRUSTED, f".{attr}")}
        if self.engine.m_secret_attrs.match(attr):
            labels |= SECRET
            origins = origins | {(SECRET, f".{attr}")}
        if labels == base.labels and origins is base.origins:
            return base
        return Val(labels, base.params, origins)

    # ------------------------------------------------------------------
    # Calls: summaries, sources, sanitizers, sinks
    # ------------------------------------------------------------------
    def _eval_call(self, call: ast.Call, env: dict[str, Val]) -> Val:
        engine = self.engine
        site = engine.graph.site(call)
        target = site.target
        display = site.display
        qual = target

        receiver = CLEAN
        if isinstance(call.func, ast.Attribute):
            receiver = self.eval(call.func.value, env)
        elif not isinstance(call.func, ast.Name):
            self.eval(call.func, env)

        pos_vals: list[Val] = []
        extra = CLEAN
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                extra = _join(extra, self.eval(arg.value, env))
            else:
                pos_vals.append(self.eval(arg, env))
        kw_vals: dict[str, Val] = {}
        for kw in call.keywords:
            val = self.eval(kw.value, env)
            if kw.arg is None:
                extra = _join(extra, val)
            else:
                kw_vals[kw.arg] = val

        arg_union = receiver
        for val in pos_vals:
            arg_union = _join(arg_union, val)
        for val in kw_vals.values():
            arg_union = _join(arg_union, val)
        arg_union = _join(arg_union, extra)

        # --- resolve to a callee summary (or constructor semantics) ---
        fn_node = engine.graph.functions.get(target) if target else None
        class_node = engine.graph.classes.get(target) if target else None
        if class_node is not None:
            init = class_node.methods.get("__init__")
            fn_node = engine.graph.functions.get(init) if init else None
            qual = target

        vals_by_param: dict[int, Val] = {}
        if fn_node is not None:
            offset = 0
            if fn_node.is_method and (site.bound or class_node is not None):
                offset = 1
                if site.bound:
                    vals_by_param[0] = receiver
            for i, val in enumerate(pos_vals):
                vals_by_param[i + offset] = _join(
                    vals_by_param.get(i + offset, CLEAN), val
                )
            name_to_idx = {name: i for i, name in enumerate(fn_node.params)}
            for name, val in kw_vals.items():
                idx = name_to_idx.get(name)
                if idx is not None:
                    vals_by_param[idx] = _join(vals_by_param.get(idx, CLEAN), val)
            if extra is not CLEAN:
                for i in range(len(fn_node.params)):
                    vals_by_param[i] = _join(vals_by_param.get(i, CLEAN), extra)

        # --- result value ---
        roles = engine.roles.of(site)
        if "sanitizer" in roles:
            result = CLEAN
        elif fn_node is not None and class_node is None:
            summary = engine.summaries.get(fn_node.qualname, EMPTY_SUMMARY)
            result = Val(summary.ret_labels, frozenset(), frozenset())
            if summary.ret_labels:
                result = Val(
                    summary.ret_labels,
                    frozenset(),
                    frozenset(
                        {
                            (lab, f"{_short(fn_node.qualname)}()")
                            for lab in _LABEL_NAMES
                            if summary.ret_labels & lab
                        }
                    ),
                )
            for i in summary.ret_params:
                result = _join(result, vals_by_param.get(i, CLEAN))
        elif class_node is not None:
            # Constructing an object from tainted parts taints the object.
            result = arg_union
        elif (
            isinstance(call.func, ast.Name) and call.func.id in _CLEAN_BUILTINS
        ):
            result = CLEAN
        else:
            # Unresolved call: assume the result carries its inputs
            # (str(), .hex(), dict lookups, stdlib helpers...).
            result = arg_union

        if "untrusted" in roles:
            result = Val(
                result.labels | UNTRUSTED,
                result.params,
                result.origins | {(UNTRUSTED, f"{display}()")},
            )
        if "secret" in roles:
            result = Val(
                result.labels | SECRET,
                result.params,
                result.origins | {(SECRET, f"{display}()")},
            )
        if "declassifier" in roles:
            result = Val(
                result.labels & ~SECRET,
                result.params,
                frozenset(o for o in result.origins if o[0] != SECRET),
            )
        if "sanitizer" in roles:
            result = CLEAN

        self._check_sinks(call, qual, display, roles, fn_node, vals_by_param,
                          pos_vals, kw_vals, extra)
        return result

    def _check_sinks(
        self,
        call: ast.Call,
        qual: str | None,
        display: str,
        roles: tuple[str, ...],
        fn_node: FunctionNode | None,
        vals_by_param: dict[int, Val],
        pos_vals: list[Val],
        kw_vals: dict[str, Val],
        extra: Val,
    ) -> None:
        engine = self.engine
        if "sanitizer" in roles:
            return  # a sanitizer consumes tainted data by design
        sink_desc = _short(qual) if qual else display
        data_vals = list(pos_vals) + list(kw_vals.values())
        if extra is not CLEAN:
            data_vals.append(extra)

        is_trusted_sink = "trusted_sink" in roles
        is_untrusted_sink = "untrusted_sink" in roles
        if not is_untrusted_sink and fn_node is not None:
            # Passing data into an untrusted-zone function hands it to the
            # host: an automatic SECRET sink.
            if engine.zone_of(fn_node.module) is Zone.UNTRUSTED:
                is_untrusted_sink = True
                sink_desc = f"untrusted-zone function {_short(fn_node.qualname)}"

        if is_trusted_sink:
            for val in data_vals:
                if val.labels & UNTRUSTED:
                    self._report(
                        "EL501",
                        call.lineno,
                        f"unsanitized untrusted data "
                        f"({_origin_names(val, UNTRUSTED)}) reaches "
                        f"trusted-state sink {sink_desc}(); verify it "
                        f"against a trusted root first",
                    )
                for param in val.params:
                    self.param_sinks.add((param, "trusted", f"{sink_desc}()"))
        if is_untrusted_sink:
            for val in data_vals:
                if val.labels & SECRET:
                    self._report(
                        "EL502",
                        call.lineno,
                        f"enclave secret ({_origin_names(val, SECRET)}) "
                        f"flows to untrusted sink {sink_desc}; secrets may "
                        f"only leave sealed or hashed",
                    )
                for param in val.params:
                    self.param_sinks.add((param, "untrusted", sink_desc))

        # Flows *through* the callee: its parameters reaching its sinks.
        if fn_node is not None:
            summary = engine.summaries.get(fn_node.qualname, EMPTY_SUMMARY)
            for param_idx, kind, desc in summary.param_sinks:
                val = vals_by_param.get(param_idx, CLEAN)
                if kind == "trusted" and val.labels & UNTRUSTED:
                    self._report(
                        "EL501",
                        call.lineno,
                        f"unsanitized untrusted data "
                        f"({_origin_names(val, UNTRUSTED)}) reaches "
                        f"trusted-state sink {desc} via "
                        f"{_short(fn_node.qualname)}()",
                    )
                elif kind == "untrusted" and val.labels & SECRET:
                    self._report(
                        "EL502",
                        call.lineno,
                        f"enclave secret ({_origin_names(val, SECRET)}) "
                        f"flows to untrusted sink {desc} via "
                        f"{_short(fn_node.qualname)}()",
                    )
                for param in val.params:
                    self.param_sinks.add((param, kind, desc))

    def _check_discarded_verifier(self, call: ast.Call) -> None:
        site = self.engine.graph.site(call)
        if "verifier" in self.engine.roles.of(site):
            self._report(
                "EL503",
                call.lineno,
                f"verification result of {site.display}() is discarded; the "
                f"verdict must gate control flow (fail closed)",
            )

    def _report(self, rule: str, line: int, message: str) -> None:
        if self.report is not None:
            self.report.append((rule, self.relpath, line, message))


def _short(qual: str | None) -> str:
    """Last two dotted segments: ``DigestRegistry.set``."""
    if not qual:
        return "<unknown>"
    parts = qual.split(".")
    return ".".join(parts[-2:]) if len(parts) >= 2 else qual


def run_taint(index: ProjectIndex) -> list[Finding]:
    """Run the fixpoint over the index's shared call graph."""
    analysis = TaintAnalysis(index, get_callgraph(index), index.config.taint)
    return analysis.run(scope=index.scope)
