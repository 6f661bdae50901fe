"""Spans recorded from the benchmark's side: wrappers around each layer.

A layer is a package under ``src/repro`` on the hot path.  ``install``
wraps every public function and method the layer defines (plus hand-written
``__init__``), so a span opens at each layer boundary without touching a
file under ``src``.  Self time is a span's duration minus the time its
child spans cover.

The gotcha: ``from x import f`` binds ``f`` in the importing module, so a
patch of ``x.f`` alone is invisible there.  :class:`Patcher` therefore
replaces a function in every loaded ``repro`` module and class that holds
it, and ``restore`` puts every original back.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import pkgutil
import sys
from time import perf_counter_ns
from types import FunctionType

LAYERS = ("telemetry", "sim", "sgx", "cryptoprim", "mht", "lsm", "core")

#: Entry points whose outermost spans are summed into a named share.
GROUPS = {
    "prover": ("Prover.", "OnDemandProver."),
    "verifier": ("Verifier.",),
    "maintenance": (
        "LSMStore.flush",
        "LSMStore.compact_level",
        "LSMStore.compact_levels",
    ),
}
#: The two functions every ``cryptoprim`` hash goes through.
_HASH_ENTRY = ("sha256", "tagged_hash")
#: Ops of the first traced round whose raw spans go to the Chrome trace.
CAPTURE_OPS = 100


def _plain(held: object) -> object:
    """The function inside a ``staticmethod`` / ``classmethod``, else ``held``."""
    return held.__func__ if isinstance(held, (staticmethod, classmethod)) else held


class Patcher:
    """Replaces functions wherever ``repro`` holds them; undoes it later."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace_all(self, mapping: dict[FunctionType, FunctionType]) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "repro" or mod_name.startswith("repro.")
            ):
                continue
            for name, obj in list(vars(module).items()):
                if isinstance(obj, FunctionType) and obj in mapping:
                    self._set(module, name, obj, mapping[obj])
                elif isinstance(obj, type) and obj.__module__ == mod_name:
                    self._patch_class(obj, mapping)

    def _patch_class(self, cls: type, mapping: dict) -> None:
        for name, held in list(vars(cls).items()):
            raw = _plain(held)
            if isinstance(raw, FunctionType) and raw in mapping:
                new = mapping[raw]
                self._set(cls, name, held, new if raw is held else type(held)(new))

    def _set(self, owner: object, name: str, old: object, new: object) -> None:
        setattr(owner, name, new)
        self._undo.append((owner, name, old))

    def restore(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)


class Recorder:
    """What the wrappers write into: per-function totals and raw spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layers: list[str] = []
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        #: One accumulator of child time per open span.
        self.stack: list[int] = []
        self.group_ns = dict.fromkeys(GROUPS, 0)
        self.group_depth = dict.fromkeys(GROUPS, 0)
        self.hashed_bytes = 0
        #: Raw spans ``(function, start_ns, duration_ns, depth, op_id)``,
        #: appended when a span closes and only while ``capture`` is set.
        self.capture = False
        self.op_id = -1
        self.raw: list[tuple[int, int, int, int, int]] = []

    def reset(self) -> None:
        """Zero the totals between rounds (raw spans are kept)."""
        self.self_ns[:] = [0] * len(self.self_ns)
        self.calls[:] = [0] * len(self.calls)
        self.group_ns = dict.fromkeys(GROUPS, 0)
        self.hashed_bytes = 0

    def _register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.self_ns.append(0)
        self.calls.append(0)
        return len(self.names) - 1

    def wrap(self, fn: FunctionType, name: str, layer: str) -> FunctionType:
        """The span-recording replacement for ``fn``."""
        if inspect.isgeneratorfunction(getattr(fn, "__wrapped__", None)):
            return self._wrap_context_manager(fn, name, layer)
        group = next(
            (g for g, prefixes in GROUPS.items() if name.startswith(prefixes)),
            None,
        )
        return self._wrap_call(fn, name, layer, group, name in _HASH_ENTRY)

    def _wrap_call(self, fn, name, layer, group=None, count_bytes=False):
        rec = self
        idx = self._register(name, layer)
        stack, self_ns, calls, raw = self.stack, self.self_ns, self.calls, self.raw
        depth, clock = self.group_depth, perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                self_ns[idx] += duration - stack.pop()
                calls[idx] += 1
                if stack:
                    stack[-1] += duration
                if rec.capture:
                    raw.append((idx, start, duration, len(stack), rec.op_id))

        chosen = span
        if group:

            def chosen(*args, **kwargs):
                depth[group] += 1
                start = clock()
                try:
                    return span(*args, **kwargs)
                finally:
                    depth[group] -= 1
                    if not depth[group]:
                        rec.group_ns[group] += clock() - start

        elif count_bytes:

            def chosen(*args):
                rec.hashed_bytes += sum(map(len, args))
                return span(*args)

        chosen.__name__ = fn.__name__
        chosen.__qualname__ = fn.__qualname__
        return chosen

    def _wrap_context_manager(self, fn, name, layer):
        """A ``@contextmanager`` function does its work in ``__enter__`` and
        ``__exit__``, after the call returned: time those two instead."""
        enter = self._wrap_call(lambda cm: cm.__enter__(), name, layer)
        leave = self._wrap_call(
            lambda cm, *exc: cm.__exit__(*exc), name + ".__exit__", layer
        )

        class Timed:
            __slots__ = ("cm",)

            def __init__(self, cm) -> None:
                self.cm = cm

            def __enter__(self):
                return enter(self.cm)

            def __exit__(self, *exc):
                return leave(self.cm, *exc)

        def make(*args, **kwargs):
            return Timed(fn(*args, **kwargs))

        make.__name__ = fn.__name__
        make.__qualname__ = fn.__qualname__
        return make

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def read_out(self) -> dict:
        """Everything recorded since the last reset, as plain values."""
        layers = {layer: [0, 0] for layer in LAYERS}  # self ns, calls
        for idx, layer in enumerate(self.layers):
            layers[layer][0] += self.self_ns[idx]
            # A context manager's exit half is the same call as its enter.
            if not self.names[idx].endswith(".__exit__"):
                layers[layer][1] += self.calls[idx]
        count = dict(zip(self.names, self.calls))
        return {
            "layers": layers,
            "groups": dict(self.group_ns),
            "hashed_bytes": self.hashed_bytes,
            "tree_builds": count.get("MerkleTree.__init__", 0),
            "auth_paths": count.get("MerkleTree.auth_path", 0),
        }

    def write_chrome_trace(self, path: str) -> int:
        """Write the captured spans as Chrome trace events; returns how many.

        Spans were appended as they closed (children before parents), so a
        span's parent is the next later span one level up.
        """
        parent = [-1] * len(self.raw)
        waiting: dict[int, list[int]] = {}
        for sid, (_, _, _, depth, _) in enumerate(self.raw):
            for child in waiting.pop(depth + 1, ()):
                parent[child] = sid
            waiting.setdefault(depth, []).append(sid)
        origin = min((span[1] for span in self.raw), default=0)
        events = [
            {
                "name": self.names[idx],
                "cat": self.layers[idx],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) / 1000.0,
                "dur": duration / 1000.0,
                "args": {"span": sid, "parent": parent[sid], "op": op_id},
            }
            for sid, (idx, start, duration, _, op_id) in enumerate(self.raw)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
        return len(events)


def _is_traced_name(name: str, owner: type | None) -> bool:
    if name == "__init__":
        return owner is not None and not dataclasses.is_dataclass(owner)
    return not name.startswith("_")


def install(recorder: Recorder) -> Patcher:
    """Wrap every public entry point of every layer; returns the undo."""
    mapping: dict[FunctionType, FunctionType] = {}
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.iter_modules(package.__path__, package.__name__ + ".")
        ]
        for module in modules:
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, FunctionType) and _is_traced_name(name, None):
                    if obj not in mapping:
                        mapping[obj] = recorder.wrap(obj, name, layer)
                elif isinstance(obj, type):
                    for attr, held in list(vars(obj).items()):
                        raw = _plain(held)
                        if (
                            isinstance(raw, FunctionType)
                            and _is_traced_name(attr, obj)
                            and raw not in mapping
                        ):
                            mapping[raw] = recorder.wrap(
                                raw, f"{obj.__name__}.{attr}", layer
                            )
    patcher = Patcher()
    patcher.replace_all(mapping)
    return patcher
