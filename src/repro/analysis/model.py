"""Finding model and suppression parsing for the invariant checker.

A :class:`Finding` pins one rule violation to a ``file:line``; its
*fingerprint* deliberately ignores the line number so code-scanning
viewers (SARIF) keep tracking a finding across unrelated edits above it
(the message and the file, not the offset, identify it).

Suppression syntax (checked against the physical source line):

* ``# elsm-lint: disable=EL203`` on the flagged line, or alone on the
  line directly above it, silences those rule IDs for that line;
* ``# elsm-lint: disable-file=EL402`` anywhere silences the IDs for the
  whole module;
* ``all`` is accepted in place of a rule list.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from enum import Enum

_SUPPRESS_RE = re.compile(
    r"#\s*elsm-lint:\s*(disable|disable-file)\s*=\s*([A-Za-z0-9_,\s]+)"
)


class Severity(str, Enum):
    """How a finding is ranked in the summary.

    ERROR/WARNING findings gate CI; INFO findings (the EL104 zone
    coverage self-check, EL901) are advisory and never affect the exit
    code.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str  # "EL203"
    severity: Severity
    path: str  # repo-relative, posix separators
    line: int  # 1-based
    message: str

    @property
    def fingerprint(self) -> str:
        """Stable, line-independent identity (SARIF partialFingerprints)."""
        blob = f"{self.rule}|{self.path}|{self.message}".encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def format_text(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def format_github(self) -> str:
        """A GitHub Actions workflow annotation line."""
        if self.severity is Severity.ERROR:
            kind = "error"
        elif self.severity is Severity.WARNING:
            kind = "warning"
        else:
            kind = "notice"
        return (
            f"::{kind} file={self.path},line={self.line},"
            f"title={self.rule}::{self.message}"
        )


@dataclass(frozen=True)
class Pragma:
    """One ``elsm-lint`` pragma at a source location (EL901 bookkeeping)."""

    kind: str  # "disable" | "disable-file"
    line: int  # 1-based line the pragma sits on
    rules: frozenset  # rule IDs (or {"all"})


@dataclass
class Suppressions:
    """Per-module suppression state parsed from the raw source."""

    by_line: dict[int, set[str]] = field(default_factory=dict)
    whole_file: set[str] = field(default_factory=set)
    #: Every pragma as written, for unused-suppression detection.
    pragmas: list[Pragma] = field(default_factory=list)

    def is_suppressed(self, rule: str, line: int) -> bool:
        return bool(self.matching_lines(rule, line))

    def matching_lines(self, rule: str, line: int) -> list[int]:
        """Pragma lines that suppress ``rule`` at ``line`` (0 stands for
        whole-file pragmas); empty when the finding is not suppressed."""
        matched: list[int] = []
        if "all" in self.whole_file or rule in self.whole_file:
            matched.append(0)
        for candidate in (line, line - 1):
            rules = self.by_line.get(candidate)
            if rules is not None and ("all" in rules or rule in rules):
                # A comment-only line above applies to the next line;
                # a trailing comment applies to its own line.
                if candidate == line or self._comment_only(candidate):
                    matched.append(candidate)
        return matched

    _comment_lines: set[int] = field(default_factory=set)

    def _comment_only(self, line: int) -> bool:
        return line in self._comment_lines


def _comment_columns(source: str) -> dict[int, int] | None:
    """Line -> column of the ``#`` comment token, via tokenize.

    Distinguishes real pragma comments from pragma *text* quoted inside
    docstrings (this module's own docs would otherwise register stale
    suppressions).  ``None`` when tokenization fails — the caller then
    falls back to accepting every textual match.
    """
    import io
    import tokenize

    out: dict[int, int] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out[tok.start[0]] = tok.start[1]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return None
    return out


def parse_suppressions(source: str) -> Suppressions:
    """Extract ``elsm-lint`` pragmas from a module's source text."""
    out = Suppressions()
    comment_cols = _comment_columns(source)
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        if comment_cols is not None:
            col = comment_cols.get(lineno)
            if col is None or match.start() < col:
                continue  # pragma text inside a string, not a comment
        kind = match.group(1)
        rules = {
            token.strip()
            for token in match.group(2).split(",")
            if token.strip()
        }
        out.pragmas.append(
            Pragma(kind=kind, line=lineno, rules=frozenset(rules))
        )
        if kind == "disable-file":
            out.whole_file |= rules
        else:
            out.by_line.setdefault(lineno, set()).update(rules)
            if text.lstrip().startswith("#"):
                out._comment_lines.add(lineno)
    return out
