"""Project-wide call graph over ``src/repro``.

Every dataflow pass (taint, concurrency, protocol, cost) needs to
know, for every ``ast.Call`` in the project, *which function body* the
call lands in — otherwise a tainted value laundered through two helper
functions is invisible.  This module resolves each call once, when the
graph is built, to a :class:`CallSite` (``graph.sites`` per function,
``graph.site(call)`` per call, plus the ``Thread(target=...)``
references in ``graph.thread_targets``), naming fully-qualified targets
(``repro.core.digest.DigestRegistry.set``) from facts the
:class:`~repro.analysis.engine.ProjectIndex` already holds:

* module-level bindings from imports (including aliased imports and
  ``from x import f as g``) and local ``def``/``class`` statements;
* ``self.method()`` dispatch through the enclosing class and its
  project-resolvable bases (a linearised base walk, not full MRO);
* light local type inference: ``x = ClassName(...)``, annotated
  parameters (``registry: DigestRegistry``), and instance attributes
  assigned in ``__init__`` from annotated parameters or constructors.

Resolution is deliberately *under*-approximate: a call we cannot pin to
a project function stays unresolved and the taint pass falls back to
"result carries the union of its argument taints".  That keeps the
analysis sound for propagation without inventing spurious edges (an
over-approximate graph would drown EL5xx in false flows).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.engine import NodeIndex, ProjectIndex
from repro.analysis.flow import _chain_of, _FuncDef


@dataclass
class FunctionNode:
    """One function or method body in the project."""

    qualname: str  # "repro.core.verifier.Verifier.verify_get"
    module: str  # "repro.core.verifier"
    cls: str | None  # enclosing class qualname, None for module functions
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]  # positional-or-kw + kw-only names, in order
    is_method: bool
    nodes: NodeIndex  # the body's nodes, nested defs included


@dataclass
class ClassNode:
    """One class: its methods, bases, and inferred attribute types."""

    qualname: str  # "repro.core.verifier.Verifier"
    module: str
    name: str
    bases: list[str] = field(default_factory=list)  # resolved qualnames
    methods: dict[str, str] = field(default_factory=dict)  # name -> func qual
    attr_types: dict[str, str] = field(default_factory=dict)  # attr -> class qual


@dataclass
class CallSite:
    """Resolution of one ``ast.Call``: target (if any) plus display name."""

    target: str | None  # resolved function/class qualname
    display: str  # syntactic name, e.g. "env.file_read"
    bound: bool  # instance call: receiver maps to param 0 ("self")
    path: str  # repo-relative file of the calling function


class CallGraph:
    """Functions, classes, and per-call resolution for one project index."""

    def __init__(self) -> None:
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassNode] = {}
        #: id(ast.Call) -> CallSite, valid for the lifetime of the index.
        self.calls: dict[int, CallSite] = {}
        #: function qualname -> its (call, site) pairs in ast.walk order.
        self.sites: dict[str, list[tuple[ast.Call, CallSite]]] = {}
        #: Functions passed as ``threading.Thread(target=...)``.
        self.thread_targets: set[str] = set()
        #: function qualname -> flow-insensitive local variable types.
        self.local_types: dict[str, dict[str, str]] = {}
        #: callee qualname -> caller qualnames (for the fixpoint worklist).
        self.callers: dict[str, set[str]] = {}
        self.functions_of_module: dict[str, list[str]] = {}
        self._bindings: dict[str, dict[str, tuple[str, str]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, index: ProjectIndex) -> "CallGraph":
        graph = cls()
        for name in sorted(index.modules):
            graph._collect_definitions(index, name)
        for name in sorted(index.modules):
            graph._collect_bindings(index, name)
        for cnode in graph.classes.values():
            graph._infer_attr_types(cnode)
        for name in sorted(index.modules):
            graph._resolve_module_calls(name, index.modules[name].relpath)
        return graph

    def site(self, call: ast.Call) -> CallSite:
        """The resolution of a call inside any project function body."""
        return self.calls[id(call)]

    def _collect_definitions(self, index: ProjectIndex, modname: str) -> None:
        module = index.modules[modname]
        funcs: list[str] = []
        for node in module.tree.body:
            if isinstance(node, _FuncDef):
                qual = f"{modname}.{node.name}"
                self.functions[qual] = FunctionNode(
                    qualname=qual,
                    module=modname,
                    cls=None,
                    name=node.name,
                    node=node,
                    params=_param_names(node),
                    is_method=False,
                    nodes=module.scopes[node],
                )
                funcs.append(qual)
            elif isinstance(node, ast.ClassDef):
                cqual = f"{modname}.{node.name}"
                cnode = ClassNode(qualname=cqual, module=modname, name=node.name)
                self.classes[cqual] = cnode
                for item in node.body:
                    if not isinstance(item, _FuncDef):
                        continue
                    fqual = f"{cqual}.{item.name}"
                    self.functions[fqual] = FunctionNode(
                        qualname=fqual,
                        module=modname,
                        cls=cqual,
                        name=item.name,
                        node=item,
                        params=_param_names(item),
                        is_method=not _is_staticmethod(item),
                        nodes=module.scopes[item],
                    )
                    cnode.methods[item.name] = fqual
                    funcs.append(fqual)
        self.functions_of_module[modname] = funcs

    def _collect_bindings(self, index: ProjectIndex, modname: str) -> None:
        """Name -> ("module"|"func"|"class", qualname) for one module."""
        module = index.modules[modname]
        bindings = {
            local: self._classify(dotted) if from_import else ("module", dotted)
            for local, dotted, from_import in module.imported_names
        }
        for name in module.tree.body:
            if isinstance(name, _FuncDef):
                bindings[name.name] = ("func", f"{modname}.{name.name}")
            elif isinstance(name, ast.ClassDef):
                bindings[name.name] = ("class", f"{modname}.{name.name}")
        self._bindings[modname] = bindings
        # Base classes become resolvable only once every module's
        # definitions exist, so resolve them here.
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef):
                cnode = self.classes[f"{modname}.{node.name}"]
                for base in node.bases:
                    resolved = self._resolve_name_chain(modname, base)
                    if resolved and resolved[0] == "class":
                        cnode.bases.append(resolved[1])

    def _classify(self, dotted: str) -> tuple[str, str]:
        if dotted in self.functions:
            return ("func", dotted)
        if dotted in self.classes:
            return ("class", dotted)
        return ("module", dotted)

    # ------------------------------------------------------------------
    # Type inference helpers
    # ------------------------------------------------------------------
    def _annotation_class(self, modname: str, node: ast.expr | None) -> str | None:
        """Resolve an annotation AST to a project class qualname, if any."""
        if node is None:
            return None
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # "X | None": take whichever side resolves.
            return self._annotation_class(modname, node.left) or self._annotation_class(
                modname, node.right
            )
        if isinstance(node, ast.Subscript):
            # Optional[X] / list[X]: only unwrap Optional-style wrappers.
            head = _chain_of(node.value)
            if head and head[-1] in ("Optional",):
                return self._annotation_class(modname, node.slice)
            return None
        resolved = self._resolve_name_chain(modname, node)
        if resolved and resolved[0] == "class":
            return resolved[1]
        return None

    def _infer_attr_types(self, cnode: ClassNode) -> None:
        """``self.attr`` types from annotations and method-body assigns."""
        modname = cnode.module
        # __init__ first so constructor-established types win ties.
        order = sorted(
            cnode.methods.values(), key=lambda q: not q.endswith(".__init__")
        )
        for fn in (self.functions[q] for q in order):
            ann = {
                a.arg: self._annotation_class(modname, a.annotation)
                for a in fn.node.args.args + fn.node.args.kwonlyargs
            }
            for target, value, annotation in _assignments(fn.nodes):
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != "self"
                ):
                    continue
                inferred = self._bound_class(modname, value, annotation, ann)
                if inferred is not None:
                    cnode.attr_types.setdefault(target.attr, inferred)

    def _bound_class(
        self,
        modname: str,
        value: ast.expr | None,
        annotation: ast.expr | None,
        params: dict[str, str | None],
    ) -> str | None:
        """The class an assignment binds: its annotation, an annotated
        parameter it copies, or the class it constructs."""
        inferred = self._annotation_class(modname, annotation)
        if inferred is None and isinstance(value, ast.Name):
            inferred = params.get(value.id)
        if inferred is None and isinstance(value, ast.Call):
            resolved = self._resolve_name_chain(modname, value.func)
            if resolved and resolved[0] == "class":
                inferred = resolved[1]
        return inferred

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _resolve_name_chain(
        self, modname: str, node: ast.expr
    ) -> tuple[str, str] | None:
        """Resolve ``a.b.c`` through module bindings; no local variables."""
        chain = _chain_of(node)
        if not chain:
            return None
        bindings = self._bindings.get(modname, {})
        head = bindings.get(chain[0])
        if head is None:
            return None
        kind, qual = head
        for part in chain[1:]:
            if kind == "module":
                kind, qual = self._classify(f"{qual}.{part}")
            elif kind == "class":
                method = self._lookup_method(qual, part)
                if method is None:
                    return None
                kind, qual = "func", method
            else:
                return None  # attribute of a function: not resolvable
        return (kind, qual)

    def lineage(self, classqual: str) -> list[str]:
        """The class, then its project bases breadth-first (a linearised
        base walk, not full MRO); [] for a non-project class."""
        out: list[str] = []
        queue = [classqual]
        while queue:
            qual = queue.pop(0)
            if qual in self.classes and qual not in out:
                out.append(qual)
                queue.extend(self.classes[qual].bases)
        return out

    def _lookup_method(self, classqual: str, name: str) -> str | None:
        """Method lookup through the class and its project bases."""
        for qual in self.lineage(classqual):
            if name in self.classes[qual].methods:
                return self.classes[qual].methods[name]
        return None

    def _attr_type(self, classqual: str, attr: str) -> str | None:
        for qual in self.lineage(classqual):
            if attr in self.classes[qual].attr_types:
                return self.classes[qual].attr_types[attr]
        return None

    def receiver_type(
        self, local_types: dict[str, str], chain: list[str]
    ) -> str | None:
        """Inferred class of the receiver ``a.b`` of ``a.b.c``."""
        qual = local_types.get(chain[0])
        for part in chain[1:-1]:
            qual = self._attr_type(qual, part) if qual else None
        return qual

    def _resolve_module_calls(self, modname: str, relpath: str) -> None:
        for fqual in self.functions_of_module[modname]:
            fn = self.functions[fqual]
            local_types = self.local_types[fqual] = self._local_types(fn)
            sites = self.sites[fqual] = []
            for node in fn.nodes.of(ast.Call):
                chain = _chain_of(node.func)
                target, bound = self._resolve_call(fn, node, chain, local_types)
                display = ".".join(chain) if chain else "<expr>"
                site = CallSite(target, display, bound, relpath)
                self.calls[id(node)] = site
                sites.append((node, site))
                if site.target is not None:
                    self.callers.setdefault(site.target, set()).add(fqual)
                if site.display.rsplit(".", 1)[-1] == "Thread":
                    self.thread_targets.update(
                        target
                        for kw in node.keywords
                        if kw.arg == "target"
                        and (target := self._function_ref(fn, kw.value))
                    )

    def _function_ref(self, fn: FunctionNode, node: ast.expr) -> str | None:
        """The function a bare reference names: ``self.m`` or ``f``."""
        chain = _chain_of(node)
        if len(chain) == 2 and chain[0] in ("self", "cls") and fn.cls:
            return self._lookup_method(fn.cls, chain[1])
        if len(chain) == 1:
            binding = self._bindings.get(fn.module, {}).get(chain[0])
            if binding and binding[0] == "func":
                return binding[1]
        return None

    def _local_types(self, fn: FunctionNode) -> dict[str, str]:
        """Flow-insensitive variable -> class-qualname map for one body."""
        types: dict[str, str] = {}
        args = fn.node.args
        for a in args.args + args.kwonlyargs + args.posonlyargs:
            inferred = self._annotation_class(fn.module, a.annotation)
            if inferred:
                types[a.arg] = inferred
        if fn.is_method and fn.cls and (args.posonlyargs or args.args):
            first = (args.posonlyargs + args.args)[0].arg
            types.setdefault(first, fn.cls)
        for target, value, annotation in _assignments(fn.nodes):
            if not isinstance(target, ast.Name):
                continue
            inferred = self._bound_class(fn.module, value, annotation, {})
            if inferred is not None:
                types.setdefault(target.id, inferred)
        return types

    def _resolve_call(
        self,
        fn: FunctionNode,
        call: ast.Call,
        chain: list[str],
        local_types: dict[str, str],
    ) -> tuple[str | None, bool]:
        """(target qualname or None, bound instance call) for one call."""
        if not chain:
            return None, False

        # Pure module-scope resolution first: imported names, local defs,
        # Class.method, module.func — an unbound (static-style) call.
        # A constructor reports the class itself (the taint pass maps
        # arguments onto __init__); a function is a static-style access
        # whose arguments align with its parameters from position 0.
        resolved = self._resolve_name_chain(fn.module, call.func)
        if resolved is not None:
            kind, qual = resolved
            return (qual if kind in ("class", "func") else None), False

        # Instance dispatch: head is a local variable (or self) whose
        # class we inferred, intermediate attributes through field types.
        receiver = self.receiver_type(local_types, chain)
        if receiver is not None and len(chain) >= 2:
            method = self._lookup_method(receiver, chain[-1])
            if method is not None:
                return method, True
        return None, False


def _assignments(nodes: NodeIndex):
    """``(target, value, annotation)`` of each single-target assignment,
    in walk order; ``annotation`` is None for a plain ``=``."""
    for stmt in nodes.of(ast.Assign, ast.AnnAssign):
        if isinstance(stmt, ast.AnnAssign):
            yield stmt.target, stmt.value, stmt.annotation
        elif len(stmt.targets) == 1:
            yield stmt.targets[0], stmt.value, None


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    args = fn.args
    return tuple(
        a.arg for a in (args.posonlyargs + args.args + args.kwonlyargs)
    )


def _is_staticmethod(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    )


def get_callgraph(index) -> "CallGraph":
    """One shared :class:`CallGraph` per index (taint, EL6xx and EL7xx
    all need it; building it three times would triple lint wall time)."""
    graph = getattr(index, "_callgraph", None)
    if graph is None:
        graph = CallGraph.build(index)
        index._callgraph = graph
    return graph
