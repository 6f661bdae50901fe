"""EL8xx — static cost certification for the enclave boundary.

The paper's performance argument is a *counting* argument: ECall
boundary crossings, enclave copy bytes, hashes, fsyncs and seals per
operation.  Proof pooling and group commit earn their speedups by
amortising exactly those effects; this pass makes a refactor that
re-introduces, say, an fsync per record fail with a pointer to the line.

This pass derives, for each public store entry point named in
``[costmodel]`` (``zones.toml``), a symbolic effect certificate: for
every declared effect, a saturating interval of multiplicities per
polynomial degree —

* degree 0: per operation (``1`` ECall per ``group_commit``),
* degree 1: per item (``n`` hashes per group),
* degree 2: nested per-item (``n^2``, always a red flag).

Loops raise the degree; branches join (``lo`` = min unless the test
names a configured *guard* terminal, in which case the guarded branch
is the happy path and its costs count toward the lower bound);
``return``/``raise``/``break``/``continue`` end a path, so statements
beyond them stay out of the fall-through lower bound and only widen the
upper bound; ``except`` handlers widen the upper bound only.  Function
summaries fold over the call graph through the shared
:class:`~repro.analysis.flow.CalleeMemo`; calls that match an effect
pattern are *primitives* (counted, never folded), calls that resolve
nowhere contribute zero (a documented under-approximation: the
untrusted prover's host-side work is deliberately outside the enclave
cost certificate), and calls matching ``amortized`` patterns
(``_maybe_flush``) are certified under their own entry point instead of
every caller's.  The certificates and the EL810/EL811 must-checks
walk code through the shared :class:`~repro.analysis.flow.Walk`, where
a loop over a declared ``unit_loops`` registry (``self.listeners``)
runs its body once.

Rules:

* EL801 — boundary effect (ECall/OCall) with a guaranteed per-item
  multiplicity inside a batch entry point;
* EL802 — durable effect (fsync/seal) with a guaranteed per-item
  multiplicity inside a batch entry point;
* EL803 — derived certificate drifted from the committed
  ``analysis/costs.toml`` (run ``lint --update-costs`` to re-certify,
  and justify the new numbers in review);
* EL804 — cache-bypassing block fetch reachable from a proof-carrying
  entry point;
* EL810 — compaction merge loop drops a record (``continue``) before
  it flowed through the ``Filter()`` digest hook;
* EL811 — compaction driver publishes a manifest before the
  authenticated merge + per-level root update (prepare) ran.
"""

from __future__ import annotations

import ast
import tomllib
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.callgraph import CallGraph, get_callgraph
from repro.analysis.engine import ProjectIndex
from repro.analysis.flow import (
    CalleeMemo,
    Effects,
    Matcher,
    Walk,
    _chain_of,
    _terminals,
    ends_in_jump,
    is_unit_loop,
)
from repro.analysis.model import Finding
from repro.analysis.rules import findings_from

#: Multiplicities saturate here: beyond this the exact count carries no
#: review signal, and saturation keeps summary folding loop-free.
SATURATE = 50

#: Highest tracked polynomial degree; deeper nesting saturates at n^2.
MAX_DEGREE = 2

_DEGREE_LABEL = {0: "per operation", 1: "per item (n)", 2: "nested (n^2)"}


def _sat(value: int) -> int:
    return value if value < SATURATE else SATURATE


@dataclass
class _Cost:
    """Abstract cost of one code region: per-effect (lo, hi) counts per
    degree, plus the primitive call sites that produced them."""

    lo: dict[str, list[int]] = field(default_factory=dict)
    hi: dict[str, list[int]] = field(default_factory=dict)
    #: (effect, degree) -> {(relpath, line, display)}
    sites: dict[tuple[str, int], set] = field(default_factory=dict)

    def copy(self) -> "_Cost":
        return _Cost(
            {effect: list(row) for effect, row in self.lo.items()},
            {effect: list(row) for effect, row in self.hi.items()},
            {key: set(sites) for key, sites in self.sites.items()},
        )

    def _row(self, table: dict[str, list[int]], effect: str) -> list[int]:
        row = table.get(effect)
        if row is None:
            row = table[effect] = [0] * (MAX_DEGREE + 1)
        return row

    def add_effect(self, effect: str, path: str, line: int, display: str) -> None:
        lo_row = self._row(self.lo, effect)
        lo_row[0] = _sat(lo_row[0] + 1)
        hi_row = self._row(self.hi, effect)
        hi_row[0] = _sat(hi_row[0] + 1)
        self.sites.setdefault((effect, 0), set()).add((path, line, display))

    def _merge_sites(self, other: "_Cost") -> None:
        for key, sites in other.sites.items():
            self.sites.setdefault(key, set()).update(sites)

    def add(self, other: "_Cost") -> None:
        """Sequential composition: both regions run."""
        for effect, row in other.lo.items():
            mine = self._row(self.lo, effect)
            for d in range(MAX_DEGREE + 1):
                mine[d] = _sat(mine[d] + row[d])
        self.add_upper(other)

    def add_upper(self, other: "_Cost") -> None:
        """The other region may run (short circuit): hi only."""
        for effect, row in other.hi.items():
            mine = self._row(self.hi, effect)
            for d in range(MAX_DEGREE + 1):
                mine[d] = _sat(mine[d] + row[d])
        self._merge_sites(other)

    def widen_upper(self, other: "_Cost") -> None:
        """Alternative region (exception handler): hi = max, lo kept."""
        for effect, row in other.hi.items():
            mine = self._row(self.hi, effect)
            for d in range(MAX_DEGREE + 1):
                mine[d] = max(mine[d], row[d])
        self._merge_sites(other)

    def shifted(self) -> "_Cost":
        """Region runs once per item: every degree moves up one (n^2
        absorbs deeper nesting)."""
        out = _Cost()
        for table, mine in ((self.lo, out.lo), (self.hi, out.hi)):
            for effect, row in table.items():
                shifted = [0] * (MAX_DEGREE + 1)
                for d in range(MAX_DEGREE + 1):
                    shifted[min(d + 1, MAX_DEGREE)] = _sat(
                        shifted[min(d + 1, MAX_DEGREE)] + row[d]
                    )
                mine[effect] = shifted
        for (effect, degree), sites in self.sites.items():
            out.sites.setdefault(
                (effect, min(degree + 1, MAX_DEGREE)), set()
            ).update(sites)
        return out

    def total_hi(self, effect: str) -> int:
        return sum(self.hi.get(effect, ()))


def _join(
    a: _Cost, b: _Cost, guard: bool, a_ends: bool = False, b_ends: bool = False
) -> _Cost:
    """Branch join.  A branch that ends its path (``a_ends``: it
    returns, raises, breaks or continues) leaves ``lo`` to the other.
    ``guard`` marks a configured happy-path test: the richer branch is
    assumed taken, so ``lo`` joins with max instead of min
    (``if self.wal is not None: ... fsync()`` keeps its fsync)."""
    out = _Cost()
    zero = [0] * (MAX_DEGREE + 1)
    pick = max if guard else min
    for effect in set(a.lo) | set(b.lo) | set(a.hi) | set(b.hi):
        a_lo, b_lo = a.lo.get(effect, zero), b.lo.get(effect, zero)
        if a_ends != b_ends:
            out.lo[effect] = list(b_lo if a_ends else a_lo)
        else:
            out.lo[effect] = [pick(x, y) for x, y in zip(a_lo, b_lo)]
        out.hi[effect] = [
            max(x, y)
            for x, y in zip(a.hi.get(effect, zero), b.hi.get(effect, zero))
        ]
    out._merge_sites(a)
    out._merge_sites(b)
    return out


def render_mult(lo: list[int], hi: list[int]) -> str:
    """``[1,0,0],[1,2,0]`` -> ``"1 + 0..2*n"``; all-zero -> ``"0"``."""
    terms: list[str] = []
    for degree in range(MAX_DEGREE + 1):
        lo_d, hi_d = lo[degree], hi[degree]
        if hi_d == 0:
            continue
        hi_txt = f"{hi_d}+" if hi_d >= SATURATE else str(hi_d)
        coeff = hi_txt if lo_d == hi_d else f"{lo_d}..{hi_txt}"
        if degree == 0:
            terms.append(coeff)
        else:
            var = "n" if degree == 1 else f"n^{degree}"
            terms.append(var if coeff == "1" else f"{coeff}*{var}")
    return " + ".join(terms) if terms else "0"


@dataclass
class CostAnalysisResult:
    """Everything the EL8xx checks and the CLI need from one pass."""

    #: entry name -> effect name -> rendered multiplicity string.
    certificates: dict[str, dict[str, str]] = field(default_factory=dict)
    #: entry name -> derived abstract cost (with sites).
    costs: dict[str, _Cost] = field(default_factory=dict)
    #: entry name -> unresolvable configured qualname.
    missing: dict[str, str] = field(default_factory=dict)


class CostAnalysis(Walk):
    """The loop-structure-aware abstract interpreter.

    The state is the :class:`_Cost` of the path so far.  Branches join
    through :func:`_join`; the loop rule walks a body from zero and
    adds it one degree up (a ``while`` test runs again each iteration);
    an ``except`` handler widens the upper bound only; a jump ends the
    rest of its block (:func:`~repro.analysis.flow.ends_in_jump`).
    """

    def __init__(self, index: ProjectIndex, graph: CallGraph) -> None:
        self.index = index
        self.graph = graph
        self.cfg = index.config.costmodel
        self.effects = Effects(self.cfg.effects)
        self.amortized = Matcher(self.cfg.amortized)
        self.unit_loops = Matcher(self.cfg.unit_loops)
        self.guard_terms = set(self.cfg.guards)
        # A call cycle is bounded at zero cost.
        self.summary = CalleeMemo(self._summarize, _Cost)

    def _summarize(self, qual: str) -> _Cost:
        return self.block(self.graph.functions[qual].node.body, _Cost())

    # ------------------------------------------------------------------
    # Statement transfers (the walk is flow.Walk's)
    # ------------------------------------------------------------------
    def expr(self, node: ast.expr, cost: _Cost) -> _Cost:
        cost.add(self._expr(node))
        return cost

    def simple(self, stmt: ast.stmt, cost: _Cost) -> _Cost:
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                cost.add(self._expr(child))
        return cost

    def join(self, a: _Cost, b: _Cost) -> _Cost:
        return _join(a, b, False)

    def join_branches(self, stmt: ast.If, body: _Cost, orelse: _Cost) -> _Cost:
        guard = bool(_terminals(stmt.test) & self.guard_terms)
        return _join(
            body, orelse, guard, ends_in_jump(stmt.body), ends_in_jump(stmt.orelse)
        )

    def join_handler(
        self, handler: ast.ExceptHandler, joined: _Cost, caught: _Cost
    ) -> _Cost:
        joined.widen_upper(caught)
        return joined

    def loop(self, stmt: ast.stmt, cost: _Cost) -> _Cost:
        body = self.block(stmt.body, _Cost())
        if isinstance(stmt, ast.While):
            self.expr(stmt.test, body)  # the test runs again each iteration
        cost.add(body.shifted())
        return cost

    def block(self, stmts: list[ast.stmt], cost: _Cost) -> _Cost:
        for stmt in stmts:
            cost = self.stmt(stmt, cost)
            if ends_in_jump([stmt]):
                break  # the rest of the block is not on this path
        return cost

    # ------------------------------------------------------------------
    # Expression walking
    # ------------------------------------------------------------------
    def _expr(self, node: ast.expr | None) -> _Cost:
        if node is None or isinstance(node, ast.Lambda):
            return _Cost()  # a lambda body runs only if called later
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            return self._comprehension(node)
        if isinstance(node, ast.BoolOp):
            cost = self._expr(node.values[0])
            for value in node.values[1:]:
                cost.add_upper(self._expr(value))  # short-circuit: may not run
            return cost
        if isinstance(node, ast.IfExp):
            cost = self._expr(node.test)
            guard = bool(_terminals(node.test) & self.guard_terms)
            cost.add(_join(self._expr(node.body), self._expr(node.orelse), guard))
            return cost
        cost = _Cost()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                cost.add(self._expr(child))
        return cost

    def _comprehension(self, node: ast.expr) -> _Cost:
        gens = node.generators
        cost = self._expr(gens[0].iter)
        inner = _Cost()
        if isinstance(node, ast.DictComp):
            inner.add(self._expr(node.key))
            inner.add(self._expr(node.value))
        else:
            inner.add(self._expr(node.elt))
        for i, gen in enumerate(gens):
            if i > 0:
                inner.add(self._expr(gen.iter))
            for cond in gen.ifs:
                inner.add(self._expr(cond))
        if is_unit_loop(self.unit_loops, gens[0].iter):
            cost.add(inner)
        else:
            cost.add(inner.shifted())
        return cost

    def _call(self, call: ast.Call) -> _Cost:
        cost = _Cost()
        for arg in call.args:
            cost.add(self._expr(arg))
        for kw in call.keywords:
            cost.add(self._expr(kw.value))
        if not _chain_of(call.func):
            cost.add(self._expr(call.func))  # computed callee: walk it
        site = self.graph.site(call)
        target = site.target
        effects = self.effects.of(site)
        if effects:
            # Effect primitive: count it, never fold below it.
            for effect in effects:
                cost.add_effect(effect, site.path, call.lineno, site.display)
            return cost
        if self.amortized.match(target, site.display):
            # Certified under its own entry point, not every caller's.
            return cost
        if target is not None:
            if target in self.graph.functions:
                cost.add(self.summary(target))
            elif target in self.graph.classes:
                init = self.graph.classes[target].methods.get("__init__")
                if init is not None:
                    cost.add(self.summary(init))
        # Unresolved dynamic calls contribute zero: a documented
        # under-approximation (host-side prover work stays out of the
        # enclave certificate by design).
        return cost


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------
def analyze_costs(index: ProjectIndex) -> CostAnalysisResult:
    """Derive every configured entry point's certificate (cached on the
    index: the EL8xx checks, drift gate, and ``--update-costs`` all read
    the same single derivation)."""
    cached = getattr(index, "_costmodel_result", None)
    if cached is not None:
        return cached
    result = CostAnalysisResult()
    cfg = index.config.costmodel
    if cfg.enabled:
        analysis = CostAnalysis(index, get_callgraph(index))
        effect_names = sorted(cfg.effects)
        zero = [0] * (MAX_DEGREE + 1)
        for entry in sorted(cfg.entry_points):
            qual = cfg.entry_points[entry]
            if qual not in analysis.graph.functions:
                result.missing[entry] = qual
                continue
            cost = analysis.summary(qual)
            result.costs[entry] = cost
            result.certificates[entry] = {
                effect: render_mult(
                    cost.lo.get(effect, zero), cost.hi.get(effect, zero)
                )
                for effect in effect_names
            }
    index._costmodel_result = result
    return result


_COSTS_HEADER = """\
# Per-operation effect certificates derived by repro.analysis.costmodel.
#
# Each value is a symbolic multiplicity over the operation's batch size
# n: "1" = once per operation, "n" = once per item, "lo..hi" = interval
# (conditional effects), "k+" = saturated at the analysis ceiling.
# Regenerate with `python -m repro lint --update-costs`; any drift from
# HEAD is an EL803 finding and must be re-certified in review.
"""


def render_costs_toml(certificates: dict[str, dict[str, str]]) -> str:
    """Deterministic (bit-reproducible) rendering of the certificates."""
    lines = [_COSTS_HEADER, 'version = "1"', ""]
    for entry in sorted(certificates):
        lines.append(f"[operation.{entry}]")
        for effect in sorted(certificates[entry]):
            lines.append(f'{effect} = "{certificates[entry][effect]}"')
        lines.append("")
    return "\n".join(lines)


def load_committed_costs(path: Path) -> dict[str, dict[str, str]] | None:
    """Parse ``analysis/costs.toml``; ``None`` when the file is absent."""
    if not path.exists():
        return None
    with open(path, "rb") as fh:
        raw = tomllib.load(fh)
    out: dict[str, dict[str, str]] = {}
    operations = raw.get("operation", {})
    if isinstance(operations, dict):
        for entry, table in operations.items():
            if isinstance(table, dict):
                out[entry] = {k: str(v) for k, v in table.items()}
    return out


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
def _per_item_sites(cost: _Cost, effect: str) -> list[tuple[str, int, str]]:
    out: set = set()
    for degree in range(1, MAX_DEGREE + 1):
        out.update(cost.sites.get((effect, degree), ()))
    return sorted(out)


def run_costmodel(index: ProjectIndex) -> list[Finding]:
    """Entry point: EL801–EL804 + EL810/EL811 over the indexed project."""
    cfg = index.config.costmodel
    if not cfg.enabled:
        return []
    graph = get_callgraph(index)
    result = analyze_costs(index)
    raw: list[tuple[str, str, int, str]] = []

    def emit(rule: str, path: str, line: int, message: str) -> None:
        raw.append((rule, path, line, message))

    def entry_anchor(entry: str) -> tuple[str, int]:
        fn = graph.functions.get(cfg.entry_points[entry])
        if fn is None:
            return "analysis/costs.toml", 1
        return index.modules[fn.module].relpath, fn.node.lineno

    # EL801/EL802: guaranteed per-item boundary / durable effects in
    # batch entry points.
    for entry in sorted(cfg.batch_entries):
        cost = result.costs.get(entry)
        if cost is None:
            continue
        for rule, effect_pool, label in (
            ("EL801", cfg.boundary_effects, "boundary"),
            ("EL802", cfg.durable_effects, "durable"),
        ):
            for effect in sorted(effect_pool):
                lo = cost.lo.get(effect)
                if lo is None or not any(lo[1:]):
                    continue
                sites = _per_item_sites(cost, effect)
                if not sites:
                    anchor_path, anchor_line = entry_anchor(entry)
                    sites = [(anchor_path, anchor_line, effect)]
                for path, line, display in sites:
                    emit(
                        rule,
                        path,
                        line,
                        f"{label} effect '{effect}' ({display}) runs per "
                        f"item in batch entry '{entry}' — amortise it to "
                        f"once per batch (certificate: "
                        f"{result.certificates[entry][effect]})",
                    )

    # EL804: cache-bypassing block fetch reachable from a proof path.
    for entry in sorted(cfg.proof_entries):
        cost = result.costs.get(entry)
        if cost is None:
            continue
        for effect in sorted(cfg.bypass_effects):
            if cost.total_hi(effect) == 0:
                continue
            all_sites: set = set()
            for degree in range(MAX_DEGREE + 1):
                all_sites.update(cost.sites.get((effect, degree), ()))
            for path, line, display in sorted(all_sites):
                emit(
                    "EL804",
                    path,
                    line,
                    f"cache-bypassing block fetch '{display}' is reachable "
                    f"from proof entry '{entry}' — proof paths must go "
                    f"through the caching fetcher",
                )

    # EL803: certificate drift against the committed costs.toml.
    committed = load_committed_costs(Path(index.root) / "analysis" / "costs.toml")
    if committed is None:
        committed = {}
    for entry in sorted(cfg.entry_points):
        if entry in result.missing:
            emit(
                "EL803",
                "analysis/zones.toml",
                1,
                f"costmodel entry point '{entry}' resolves to no project "
                f"function ({result.missing[entry]})",
            )
            continue
        derived = result.certificates[entry]
        have = committed.get(entry)
        path, line = entry_anchor(entry)
        if have is None:
            emit(
                "EL803",
                path,
                line,
                f"entry point '{entry}' has no committed cost certificate "
                f"in analysis/costs.toml — run lint --update-costs and "
                f"commit the result",
            )
            continue
        for effect in sorted(set(derived) | set(have)):
            want = have.get(effect)
            got = derived.get(effect)
            if want == got:
                continue
            emit(
                "EL803",
                path,
                line,
                f"cost certificate drift for '{entry}.{effect}': committed "
                f"\"{want if want is not None else '<absent>'}\" but HEAD "
                f"derives \"{got if got is not None else '<absent>'}\" — "
                f"fix the amplification or re-certify with --update-costs",
            )
    for entry in sorted(set(committed) - set(cfg.entry_points)):
        emit(
            "EL803",
            "analysis/costs.toml",
            1,
            f"committed certificate names unknown entry point '{entry}' — "
            f"remove it or declare it under [costmodel] entry_points",
        )

    # EL810 / EL811: the authenticated-compaction obligations.
    merges = Matcher(cfg.compaction_merge)
    drivers = Matcher(cfg.compaction_drivers)
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        if merges.match(qual, qual):
            walk = _MergeWalk(index, fn, raw, cfg.compaction_filter_hooks)
            walk.block(fn.node.body, set())
        if drivers.match(qual, qual):
            walk = _DriverWalk(
                index, fn, raw, cfg.compaction_prepare, cfg.compaction_publish
            )
            walk.block(fn.node.body, set())
    return findings_from(raw)


class _DriverWalk(Walk):
    """EL811: the state is ``{"done"}`` where a ``done_by`` call (the
    authenticated merge) already ran on every path; a ``publish`` call
    (the manifest) anywhere else is a finding."""

    def __init__(self, index, fn, raw, done_by, publish=()) -> None:
        self.effects = Effects({"done": done_by, "publish": publish})
        self.unit_loops = Matcher(index.config.costmodel.unit_loops)
        self.graph = get_callgraph(index)
        self.name = fn.name
        self.relpath = index.modules[fn.module].relpath
        self.raw = raw

    def expr(self, node: ast.AST, state: set) -> set:
        sites = [
            (call, self.graph.site(call))
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
        ]
        if any("done" in self.effects.of(site) for _, site in sites):
            state = {"done"}
        for call, site in sites:
            if "publish" in self.effects.of(site) and not state:
                self.raw.append(
                    (
                        "EL811",
                        self.relpath,
                        call.lineno,
                        f"{self.name} publishes the manifest before the "
                        f"authenticated merge ran — OnTableFileCreated() and "
                        f"the per-level root update must precede manifest "
                        f"publication",
                    )
                )
        return state


class _MergeWalk(_DriverWalk):
    """EL810: the same walk with the Filter() hook as ``done_by``; a
    dropped record (``continue``) before it ran is a finding."""

    def simple(self, stmt: ast.stmt, state: set) -> set:
        if isinstance(stmt, ast.Continue) and not state:
            self.raw.append(
                (
                    "EL810",
                    self.relpath,
                    stmt.lineno,
                    f"merge loop in {self.name} drops a record (continue) "
                    f"before it flowed through the Filter() digest hook — "
                    f"every consumed input record must be digested, dropped "
                    f"or not",
                )
            )
        return self.expr(stmt, state)

    def nested(self, stmt: ast.stmt, state: set) -> set:
        self.block(stmt.body, set())  # a nested generator can hold the merge
        return state
