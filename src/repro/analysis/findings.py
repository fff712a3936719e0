"""Finding types for the static-analysis framework.

A :class:`Finding` is one rule violation at one source location.  Findings
are value objects that sort deterministically (path, line, column, rule),
so linter output is byte-stable across runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List


class Severity(enum.Enum):
    """How bad a finding is.

    Every kept rule guards an invariant the simulator's results or its
    null-tracer cost depend on, and so does a file that fails to parse:
    all findings are errors and all of them fail the gate.
    """

    ERROR = "error"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        rule: Rule identifier (``R1`` .. ``R3``, or ``E0`` for a file that
            does not parse).
        severity: See :class:`Severity`.
        path: File path, relative to the current directory, POSIX
            separators.
        line: 1-based line number of the offending node.
        col: 0-based column offset of the offending node.
        message: Human-readable description of the violation.
        source_line: The stripped text of the offending line (context for
            the text report).
    """

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str
    source_line: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"

    def render(self) -> str:
        text = (
            f"{self.location()}: {self.severity} [{self.rule}] {self.message}"
        )
        if self.source_line:
            text += f"\n    {self.source_line}"
        return text


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Deterministic report order: by file, position, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
