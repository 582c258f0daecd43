"""Diagnostic records and suppression parsing for rcast-lint.

A :class:`Diagnostic` pinpoints one finding: rule id, severity, file, line,
column, message.  Findings can be silenced inline::

    value = unseeded()  # rcast-lint: disable=R007 -- calibration only

or for a whole file by putting the pragma in a comment of its own near the
top::

    # rcast-lint: disable-file=R002 -- wall-time reporting is cosmetic

Both forms take a comma-separated rule list or ``all``.  The ``-- reason``
tail is conventional (and required by review policy) but not enforced
syntactically.

Pragmas are recognised only in genuine comment tokens (the source is
tokenized, so a pragma-shaped string inside a docstring or string literal
is inert), and an inline pragma anywhere in a **multi-line statement**
suppresses the whole logical statement: a trailing comment on a
continuation line, or on any decorator line of a decorated ``def``,
silences findings reported on any line of that statement's header.

Every suppression is tracked: the runner records which pragmas actually
silenced a finding, and reports the stale ones as warning-level
``R000 unused-suppression`` diagnostics so dead pragmas cannot accumulate.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Set, Tuple


class Severity(str, Enum):
    """How bad a finding is; errors fail the build, warnings do not."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding, pinned to a precise source location."""

    rule: str
    name: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        """Render as ``path:line:col: R00x severity: message [name]``."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity.value}: {self.message} [{self.name}]"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe representation."""
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity.value,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


#: ``rcast-lint: disable=<rules>`` (same statement) or
#: ``rcast-lint: disable-file=<rules>`` (whole file), in a comment.  (The
#: leading hash is omitted here because this very comment is a genuine
#: comment token — spelling the full pragma would arm it.)
_PRAGMA = re.compile(
    r"#\s*rcast-lint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>all|[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Sentinel rule id meaning "every rule".
ALL_RULES = "all"


@dataclass
class SuppressionEntry:
    """One pragma comment: which rules it disables, over which lines."""

    #: physical line carrying the pragma comment
    line: int
    #: rule ids named by the pragma (or the ``all`` sentinel)
    rules: FrozenSet[str]
    #: whole-file scope (``disable-file=``)
    file_wide: bool
    #: first line of the logical statement the pragma is attached to
    start: int
    #: last line of that logical statement
    end: int
    #: rule ids this entry actually silenced (filled by the runner)
    used: Set[str] = field(default_factory=set)

    def covers(self, line: int) -> bool:
        """Whether this entry is in scope for a finding on ``line``."""
        return self.file_wide or self.start <= line <= self.end

    def disables(self, rule: str) -> bool:
        """Whether this entry names ``rule`` (or ``all``)."""
        return ALL_RULES in self.rules or rule in self.rules


def _statement_extents(tree: Optional[ast.Module]) -> List[Tuple[int, int]]:
    """Line ranges of logical statements, innermost-friendly.

    For simple statements the extent is the whole statement
    (``lineno..end_lineno``).  For compound statements (``def``, ``class``,
    ``if``, loops, ...) the extent is the *header* only — decorators
    through the line before the first body statement — so a pragma inside
    a long function body never silences the whole function.
    """
    if tree is None:
        return []
    extents: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
            # Compound statement: extent covers decorators + signature.
            start = node.lineno
            decorators = getattr(node, "decorator_list", None)
            if decorators:
                start = min(start, decorators[0].lineno)
            end = body[0].lineno - 1
            if end < start:
                end = start
            extents.append((start, end))
        else:
            end = getattr(node, "end_lineno", None) or node.lineno
            extents.append((node.lineno, end))
    return extents


def _pragma_comments(source: str) -> List[Tuple[int, str]]:
    """(line, comment-text) for genuine comment tokens carrying a pragma.

    Tokenizing (rather than regex-scanning every line) keeps pragma-shaped
    text inside docstrings and string literals inert.  On tokenization
    failure (the linter may be handed files that parse but trip the
    tokenizer's stricter checks) no pragmas are recognised — the caller
    already reported findings, and a silent excess finding is safer than a
    silent suppression.
    """
    comments: List[Tuple[int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT and _PRAGMA.search(token.string):
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return comments


class SuppressionIndex:
    """Per-file map of which rules are disabled on which lines.

    When the module AST is supplied, inline pragmas are mapped to the full
    extent of the logical statement they sit in; without it (raw-source
    construction, kept for tooling compatibility) a pragma covers only its
    own physical line.
    """

    def __init__(self, source: str,
                 tree: Optional[ast.Module] = None) -> None:
        extents = _statement_extents(tree)
        self.entries: List[SuppressionEntry] = []
        for lineno, text in _pragma_comments(source):
            match = _PRAGMA.search(text)
            if match is None:  # pragma: no cover - filtered upstream
                continue
            rules = frozenset(
                r.strip() for r in match.group("rules").split(",")
            )
            file_wide = bool(match.group("scope"))
            start = end = lineno
            if not file_wide:
                # The innermost extent containing the pragma line wins; a
                # pragma outside any statement covers its own line only.
                best: Optional[Tuple[int, int]] = None
                for ext_start, ext_end in extents:
                    if ext_start <= lineno <= ext_end:
                        if best is None or (ext_start, ext_end) >= best:
                            best = (ext_start, ext_end)
                if best is not None:
                    start, end = best
            self.entries.append(
                SuppressionEntry(line=lineno, rules=rules,
                                 file_wide=file_wide, start=start, end=end)
            )

    def consume(self, rule: str, line: int) -> bool:
        """True when ``rule`` is disabled on ``line`` (or file-wide);
        records which entries fired.

        The runner routes every finding through here; entries that never
        fire are later reported as ``R000 unused-suppression``.
        """
        hit = False
        for entry in self.entries:
            if entry.covers(line) and entry.disables(rule):
                entry.used.add(rule if rule in entry.rules else ALL_RULES)
                hit = True
        return hit

    def unused(
        self, active_rules: Optional[FrozenSet[str]] = None
    ) -> List[Tuple[int, str]]:
        """Stale ``(pragma line, rule id)`` pairs.

        A pragma rule is stale when it silenced nothing.  When only a
        subset of rules ran (``active_rules``), pragmas for rules outside
        the subset are not judged — they might fire under the full set.
        ``all`` pragmas are never judged: a blanket disable is a
        declarative "don't lint this" (generated fixtures, vendored
        code), not a claim that a specific finding exists.
        """
        stale: List[Tuple[int, str]] = []
        for entry in self.entries:
            for rule in sorted(entry.rules):
                if rule == ALL_RULES:
                    continue
                if active_rules is not None and rule not in active_rules:
                    continue
                if rule not in entry.used:
                    stale.append((entry.line, rule))
        return stale

    @property
    def file_wide(self) -> FrozenSet[str]:
        """Rules disabled for the whole file."""
        rules: Set[str] = set()
        for entry in self.entries:
            if entry.file_wide:
                rules |= entry.rules
        return frozenset(rules)


__all__ = [
    "ALL_RULES",
    "Diagnostic",
    "Severity",
    "SuppressionEntry",
    "SuppressionIndex",
]
