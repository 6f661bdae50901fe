"""Zone classification: which side of the trust boundary a module is on.

The paper's architecture splits the codebase in three (Section 4):

* **enclave** — code that runs inside the enclave and handles trusted
  state (verifier, digest registry, Merkle forest, sealing, crypto);
* **untrusted** — the host side: provers, block fetchers, caches, the
  simulated disk — everything an adversary controls;
* **boundary** — the ECall/OCall shims (:mod:`repro.sgx.env`,
  :mod:`repro.sgx.boundary`) which are the *only* sanctioned way for
  enclave code to touch untrusted bytes.

Everything else is **neutral**: pure data codecs, orchestration that
legitimately spans both worlds (the stores), telemetry, tooling.  The
mapping lives in a checked-in ``analysis/zones.toml`` so refactors that
move a module across the boundary are a reviewed one-line diff, not an
implicit re-classification.

Patterns are dotted module names with ``fnmatch`` globs; an exact entry
beats a glob, and among globs the longest pattern wins.
"""

from __future__ import annotations

import fnmatch
import re
import tomllib
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path


class Zone(str, Enum):
    ENCLAVE = "enclave"
    UNTRUSTED = "untrusted"
    BOUNDARY = "boundary"
    NEUTRAL = "neutral"


DEFAULT_CONFIG_RELPATH = Path("analysis") / "zones.toml"


def _keyed(key: str, **kwargs: typing.Any) -> typing.Any:
    """A config field read from the TOML ``key`` instead of its own name."""
    return field(metadata={"toml": key}, **kwargs)


@dataclass
class TaintConfig:
    """The ``[taint]`` section: sources, sanitizers and sinks for EL5xx.

    Every entry is an ``fnmatch`` pattern matched against the *resolved*
    qualified name of a call/attribute when the call graph can resolve
    it, and against the syntactic dotted form (``env.copy_in``) as a
    fallback; a pattern without dots also matches as a dotted suffix
    (``copy_in`` matches ``repro.sgx.env.ExecutionEnv.copy_in``).
    """

    #: Calls whose result is attacker-influenced host data.
    untrusted_calls: list[str] = field(default_factory=list)
    #: Attribute reads that yield host data (proof pools, raw blobs).
    untrusted_attrs: list[str] = field(default_factory=list)
    #: Functions whose (non-self) parameters arrive from the host.
    untrusted_params: list[str] = field(default_factory=list)
    #: Calls whose result is enclave secret material.
    secret_calls: list[str] = field(default_factory=list)
    #: Attribute reads that yield secret material (sealing keys).
    secret_attrs: list[str] = field(default_factory=list)
    #: Calls that launder UNTRUSTED (verification against a trusted root).
    sanitizers: list[str] = field(default_factory=list)
    #: Calls that launder SECRET (sealing/hashing is the sanctioned exit).
    declassifiers: list[str] = field(default_factory=list)
    #: Trusted-state writes that must never receive UNTRUSTED (EL501).
    trusted_sinks: list[str] = field(default_factory=list)
    #: Host-visible outputs that must never receive SECRET (EL502).
    untrusted_sinks: list[str] = field(default_factory=list)
    #: Verification calls whose result must not be discarded (EL503).
    verifiers: list[str] = field(default_factory=list)


#: Legal ownership tokens for ``[concurrency]`` ``shared`` entries.
_OWNERSHIP = re.compile(
    r"^(lock:[A-Za-z_]\w*"
    r"|single-writer:(foreground|background)"
    r"|event-handoff"
    r"|frozen-after-publish)$"
)

#: ``ELnnn: B requires A1|A2 [when C] [reset-by R1|R2]``
_ORDER_REQUIRES = re.compile(
    r"^(?P<rule>EL\d{3}):\s*(?P<effect>[\w.]+)\s+requires\s+"
    r"(?P<requires>[\w.]+(?:\s*\|\s*[\w.]+)*)"
    r"(?:\s+when\s+(?P<when>[\w.]+))?"
    r"(?:\s+reset-by\s+(?P<reset>[\w.]+(?:\s*\|\s*[\w.]+)*))?$"
)

#: ``ELnnn: A then B before-return in <fn-glob>``
_ORDER_BEFORE_RETURN = re.compile(
    r"^(?P<rule>EL\d{3}):\s*(?P<effect>[\w.]+)\s+then\s+(?P<then>[\w.]+)\s+"
    r"before-return\s+in\s+(?P<scope>\S+)$"
)


@dataclass
class ConcurrencyConfig:
    """The ``[concurrency]`` section: the EL6xx shared-state policy.

    ``shared`` maps ``"<Class-qualname>.<attr>"`` keys (the attribute
    part may be an ``fnmatch`` glob) to an ownership token, one of
    ``lock:<attr>`` (every access holds the named lock),
    ``single-writer:<side>`` (only that side writes; reads are free),
    ``event-handoff`` (a thread-safe signalling object), or
    ``frozen-after-publish`` (written only during construction).
    """

    #: Function-qualname patterns for background thread entry points
    #: (auto-discovery adds ``threading.Thread(target=...)`` targets and
    #: functions that open a ``parallel_track``).
    background_entries: list[str] = field(default_factory=list)
    #: Function-qualname patterns for foreground operations.
    foreground_entries: list[str] = field(default_factory=list)
    #: ``"<class>.<attr>" -> ownership token`` (attr part may glob).
    ownership: dict[str, str] = _keyed("shared", default_factory=dict)
    #: Published containers whose *elements* are frozen: attr pattern ->
    #: forbidden element mutators (EL602).
    published: dict[str, list[str]] = field(default_factory=dict)
    #: Methods that freeze an object in place (EL602 freeze-then-mutate).
    freeze_methods: list[str] = field(default_factory=lambda: ["freeze"])
    #: Mutator names forbidden on a value frozen in the same scope.
    frozen_mutators: list[str] = field(
        default_factory=lambda: [
            "add", "append", "extend", "insert", "remove", "update", "clear",
        ]
    )
    #: Error-ring recorder methods a thread entry must route exceptions
    #: through (EL604; the family is off while this list is empty).
    error_recorders: list[str] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return bool(self.background_entries or self.foreground_entries)

    def shared_classes(self) -> set[str]:
        """Class qualnames owning at least one declared attribute."""
        keys = list(self.ownership) + list(self.published)
        return {key.rsplit(".", 1)[0] for key in keys if "." in key}

    def ownership_of(self, qualattr: str) -> str | None:
        """Ownership for ``pkg.mod.Class.attr`` (exact beats glob)."""
        best: tuple[int, int, str] | None = None
        for pattern, token in self.ownership.items():
            if qualattr == pattern:
                key = (1, len(pattern), token)
            elif fnmatch.fnmatchcase(qualattr, pattern):
                key = (0, len(pattern), token)
            else:
                continue
            if best is None or key[:2] > best[:2]:
                best = key
        return best[2] if best is not None else None

    def published_mutators(self, qualattr: str) -> list[str] | None:
        for pattern, mutators in self.published.items():
            if qualattr == pattern or fnmatch.fnmatchcase(qualattr, pattern):
                return mutators
        return None


@dataclass
class OrderRule:
    """One parsed ``[protocol]`` ``order`` entry."""

    rule: str  # "EL701"
    kind: str  # "requires" | "before-return"
    effect: str  # B (requires) / A (before-return)
    requires: tuple[str, ...] = ()  # satisfying alternatives (requires)
    reset_by: tuple[str, ...] = ()  # effects that un-establish them
    when: str | None = None  # context effect gating the rule
    then: str | None = None  # B (before-return)
    scope: str | None = None  # function-qualname glob (before-return)
    raw: str = ""


@dataclass
class ProtocolConfig:
    """The ``[protocol]`` section: the EL7xx commit-ordering policy."""

    #: Function-qualname patterns subject to the effect-order checks.
    functions: list[str] = field(default_factory=list)
    #: effect name -> call patterns (taint-style qual/display/suffix).
    effects: dict[str, list[str]] = field(default_factory=dict)
    #: effect name -> attribute names whose *assignment* is the effect.
    effect_attrs: dict[str, list[str]] = field(default_factory=dict)
    #: Effects that change durable state (EL703 separation alphabet).
    durable: list[str] = field(default_factory=list)
    #: effect -> guard terminals: an ``if`` naming one of these whose
    #: body establishes the effect counts as establishing it (the else
    #: branch is vacuous, e.g. ``if self.wal is not None: ...sync()``).
    guards: dict[str, list[str]] = field(default_factory=dict)
    order: list[OrderRule] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return bool(self.functions and self.order)

    def effect_names(self) -> set[str]:
        return set(self.effects) | set(self.effect_attrs)


def _parse_order_rule(raw: str) -> OrderRule:
    match = _ORDER_REQUIRES.fullmatch(raw.strip())
    if match:
        return OrderRule(
            rule=match.group("rule"),
            kind="requires",
            effect=match.group("effect"),
            requires=tuple(
                p.strip() for p in match.group("requires").split("|")
            ),
            reset_by=tuple(
                p.strip() for p in (match.group("reset") or "").split("|") if p.strip()
            ),
            when=match.group("when"),
            raw=raw,
        )
    match = _ORDER_BEFORE_RETURN.fullmatch(raw.strip())
    if match:
        return OrderRule(
            rule=match.group("rule"),
            kind="before-return",
            effect=match.group("effect"),
            then=match.group("then"),
            scope=match.group("scope"),
            raw=raw,
        )
    raise ValueError(
        f"protocol.order: cannot parse {raw!r} (expected "
        f"'ELnnn: B requires A1|A2 [when C] [reset-by R]' or "
        f"'ELnnn: A then B before-return in <fn-glob>')"
    )


@dataclass
class CostConfig:
    """The ``[costmodel]`` section: the EL8xx cost-certification policy.

    Drives :mod:`repro.analysis.costmodel` — the abstract interpreter
    that derives per-entry-point effect certificates (``analysis/
    costs.toml``) and gates boundary/IO amplification anti-patterns.
    """

    #: certificate name -> entry-point function qualname.
    entry_points: dict[str, str] = field(default_factory=dict)
    #: Entry names that take a batch of items (EL801/EL802 scope):
    #: per-item loops inside them are loops over the *request*.
    batch_entries: list[str] = field(default_factory=list)
    #: Entry names whose result carries a verification proof (EL804).
    proof_entries: list[str] = field(default_factory=list)
    #: effect name -> call patterns (taint-style qual/display/suffix).
    effects: dict[str, list[str]] = field(default_factory=dict)
    #: Effects that cross the enclave boundary (EL801 alphabet).
    boundary_effects: list[str] = field(default_factory=list)
    #: Effects that force durable IO (EL802 alphabet).
    durable_effects: list[str] = field(default_factory=list)
    #: Effect naming a cache-bypassing block fetch (EL804 alphabet).
    bypass_effects: list[str] = field(default_factory=list)
    #: Branch-guard terminals: an ``if`` naming one of these runs its
    #: body on the configured happy path, so body costs count toward
    #: the *lower* bound (``if self.wal is not None: ... fsync()``).
    guards: list[str] = field(default_factory=list)
    #: Call patterns whose cost is amortised across operations and
    #: certified under their own entry point instead of the caller's
    #: (``_maybe_flush`` belongs to the flush certificate, not put's).
    amortized: list[str] = field(default_factory=list)
    #: Iterable patterns of constant cardinality (listener registries):
    #: looping over them does not multiply per-item cost.
    unit_loops: list[str] = field(default_factory=list)
    #: Merge-loop functions subject to EL810 (drop-through-filter).
    compaction_merge: list[str] = field(default_factory=list)
    #: Call patterns that digest one consumed input record (Filter()).
    compaction_filter_hooks: list[str] = field(default_factory=list)
    #: Driver functions subject to EL811 (prepare-before-publish).
    compaction_drivers: list[str] = field(default_factory=list)
    #: Call patterns that run the authenticated merge + table-file
    #: hooks and the per-level Merkle root update (the prepare step).
    compaction_prepare: list[str] = field(default_factory=list)
    #: Call patterns that publish the result to the manifest.
    compaction_publish: list[str] = field(default_factory=list)

    @property
    def enabled(self) -> bool:
        return bool(self.entry_points and self.effects)


@dataclass
class ZoneConfig:
    """Parsed ``zones.toml``: zone patterns plus rule-scoping roles."""

    zones: dict[Zone, list[str]] = field(default_factory=dict)
    #: Modules whose error handling must fail closed (EL2xx scope).
    fail_closed: list[str] = _keyed("roles.fail_closed", default_factory=list)
    #: Proof (de)serialisation modules (EL204 scope).
    wire: list[str] = _keyed("roles.wire", default_factory=list)
    #: The module defining CRASH_SITES (EL302/EL303 anchor).
    crash_plan: str = _keyed("roles.crash_plan", default="repro.faults.plan")
    #: Modules allowed to catch SimulatedCrash (the harness, by design).
    crash_catchers: list[str] = _keyed("roles.crash_catchers", default_factory=list)
    #: Where every registered metric name must be documented (EL402).
    telemetry_doc: str = _keyed("telemetry.doc", default="docs/observability.md")
    #: ``component.noun[.verb]`` metric-name convention (EL401).
    metric_name_pattern: str = _keyed(
        "telemetry.name_pattern", default=r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+){1,3}$"
    )
    #: Span-name convention (EL401 over ``.span("name")`` openings).
    span_name_pattern: str = _keyed(
        "telemetry.span_name_pattern", default=r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+){1,2}$"
    )
    #: Event-kind convention (EL401 over ``.emit("kind")`` sites).
    event_name_pattern: str = _keyed(
        "telemetry.event_name_pattern", default=r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+){1,3}$"
    )
    #: Taint sources/sanitizers/sinks for the EL5xx dataflow rules.
    taint: TaintConfig = field(default_factory=TaintConfig)
    #: Shared-state ownership policy for the EL6xx concurrency rules.
    concurrency: ConcurrencyConfig = field(default_factory=ConcurrencyConfig)
    #: Commit-ordering policy for the EL7xx protocol rules.
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    #: Cost-certification policy for the EL8xx rules.
    costmodel: CostConfig = field(default_factory=CostConfig)

    def zone_of(self, module: str) -> Zone:
        """Classify a dotted module name (NEUTRAL when nothing matches)."""
        zone = self.explicit_zone_of(module)
        return zone if zone is not None else Zone.NEUTRAL

    def explicit_zone_of(self, module: str) -> Zone | None:
        """Like :meth:`zone_of`, but ``None`` when no pattern matched.

        The distinction feeds EL104: a module may be *deliberately*
        neutral (listed under ``zones.neutral``) or merely *unclassified*
        (matched nothing) — only the latter is a coverage gap.
        """
        best: tuple[int, int, Zone] | None = None
        for zone, patterns in self.zones.items():
            for pattern in patterns:
                if module == pattern:
                    exactness, length = 1, len(pattern)
                elif fnmatch.fnmatchcase(module, pattern):
                    exactness, length = 0, len(pattern)
                else:
                    continue
                key = (exactness, length, zone)
                if best is None or key[:2] > best[:2]:
                    best = key
        return best[2] if best is not None else None

    def matches_any(self, module: str, patterns: list[str]) -> bool:
        return any(fnmatch.fnmatchcase(module, p) for p in patterns)

    def is_fail_closed(self, module: str) -> bool:
        return (
            self.zone_of(module) is Zone.ENCLAVE
            or self.matches_any(module, self.fail_closed)
        )


_KINDS = {str: "a string", list: "an array", dict: "a table"}


def _expect(value: typing.Any, kind: type, where: str) -> typing.Any:
    if not isinstance(value, kind):
        got = _KINDS.get(type(value), type(value).__name__)
        raise ValueError(f"{where}: expected {_KINDS[kind]}, got {got}")
    return value


def _convert(value: typing.Any, hint: typing.Any, where: str) -> typing.Any:
    """``value`` as the declared field type ``hint``; a mismatch raises a
    ``ValueError`` naming ``where`` (``section.key``)."""
    if hint is OrderRule:
        return _parse_order_rule(_expect(value, str, where))
    if is_dataclass(hint):
        return _fill(hint(), _expect(value, dict, where), f"{where}.")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        items = enumerate(_expect(value, list, where))
        return [_convert(item, args[0], f"{where}[{i}]") for i, item in items]
    if origin is dict:
        return {
            _convert(key, args[0], f"{where}.{key}"): _convert(
                item, args[1], f"{where}.{key}"
            )
            for key, item in _expect(value, dict, where).items()
        }
    if hint is Zone:
        try:
            return Zone(value)
        except ValueError:
            raise ValueError(f"{where}: unknown zone {value!r}") from None
    return _expect(value, hint, where)


def _fill(target: typing.Any, table: dict, prefix: str) -> typing.Any:
    """Set each field of the dataclass ``target`` from ``table``.

    A field is read from the key its ``toml`` metadata names, else from
    the key of its own name; an absent key keeps the field's default.
    Each value is checked against the field's declared type, and a key
    no field reads is an error.  ``prefix`` (``"taint."``) locates
    ``table`` in the file for error messages.
    """
    hints = typing.get_type_hints(type(target))
    for spec in fields(target):
        key = spec.metadata.get("toml", spec.name)
        if key in table:
            value = _convert(table.pop(key), hints[spec.name], prefix + key)
            setattr(target, spec.name, value)
    if table:
        unknown = ", ".join(prefix + key for key in table)
        raise ValueError(f"unknown key(s): {unknown}")
    return target


def load_zone_config(path: Path) -> ZoneConfig:
    """Load ``zones.toml``; unknown keys and values of the wrong type are
    rejected to keep the file honest."""
    with open(path, "rb") as fh:
        raw = tomllib.load(fh)
    # [roles] and [telemetry] keys are fields of ZoneConfig itself,
    # which read them by their "section.key" names.
    for section in ("roles", "telemetry"):
        for key, value in _expect(raw.pop(section, {}), dict, section).items():
            raw[f"{section}.{key}"] = value
    config = _fill(ZoneConfig(), raw, "")
    for qualattr, token in config.concurrency.ownership.items():
        if not _OWNERSHIP.fullmatch(token):
            raise ValueError(
                f"concurrency.shared: bad ownership {token!r} for {qualattr!r} "
                f"(want lock:<name>, single-writer:<side>, event-handoff "
                f"or frozen-after-publish)"
            )
    known = config.protocol.effect_names()
    for rule in config.protocol.order:
        names = {rule.effect, rule.then, rule.when, *rule.requires, *rule.reset_by}
        unknown = sorted(n for n in names if n is not None and n not in known)
        if unknown:
            raise ValueError(
                f"protocol.order: {rule.raw!r} references undeclared "
                f"effect(s): {', '.join(unknown)}"
            )
    for effect in config.protocol.durable + list(config.protocol.guards):
        if effect not in known:
            raise ValueError(
                f"protocol: undeclared effect {effect!r} in durable/guards"
            )
    for entry in (
        config.costmodel.batch_entries + config.costmodel.proof_entries
    ):
        if entry not in config.costmodel.entry_points:
            raise ValueError(
                f"costmodel: undeclared entry point {entry!r} in "
                f"batch_entries/proof_entries"
            )
    for effect in (
        config.costmodel.boundary_effects
        + config.costmodel.durable_effects
        + config.costmodel.bypass_effects
    ):
        if effect not in config.costmodel.effects:
            raise ValueError(
                f"costmodel: undeclared effect {effect!r} in "
                f"boundary/durable/bypass_effects"
            )
    return config
