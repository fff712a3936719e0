"""Analysis engine: file discovery, rule execution, allowlist filtering.

:func:`analyze_source` runs the rule set over one module's source text;
:func:`analyze_paths` walks files/directories deterministically (sorted,
skipping ``__pycache__`` and hidden directories) and aggregates an
:class:`AnalysisReport`.  The engine owns what rules shouldn't see: the
path allowlist and parse errors.  A file that fails to parse is reported
as an ``E0`` (*parse-error*) finding; nothing in it was analyzed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.astutil import ModuleSource
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.rules import all_rules
from repro.analysis.suppress import DEFAULT_ALLOWLIST, path_allowlisted

SKIP_DIR_NAMES = frozenset({"__pycache__", ".git", ".hypothesis"})


def analyze_source(
    source: str,
    path: str = "<string>",
    allowlist: Optional[Mapping[str, Tuple[str, ...]]] = None,
) -> List[Finding]:
    """Run every registered rule over one module's source.

    ``path`` is both the display location and the allowlist matching key;
    pass ``allowlist={}`` to disable path exemptions (the fixture tests do,
    so known-bad snippets trigger regardless of their fake paths).
    """
    if allowlist is None:
        allowlist = DEFAULT_ALLOWLIST
    try:
        module = ModuleSource.parse(source, path)
    except SyntaxError as exc:
        return [
            Finding(
                rule="E0",
                severity=Severity.ERROR,
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                message=f"file does not parse: {exc.msg}",
                source_line=(exc.text or "").strip(),
            )
        ]

    findings: List[Finding] = []
    for rule in all_rules():
        if path_allowlisted(rule.id, path, allowlist):
            continue
        for node, message in rule.check(module):
            lineno = getattr(node, "lineno", 1)
            findings.append(
                Finding(
                    rule=rule.id,
                    severity=rule.severity,
                    path=path,
                    line=lineno,
                    col=getattr(node, "col_offset", 0),
                    message=message,
                    source_line=module.line_text(lineno),
                )
            )
    return sort_findings(findings)


def iter_python_files(
    paths: Sequence[str], root: Optional[str] = None
) -> List[Tuple[str, str]]:
    """Resolve files/directories to sorted ``(abspath, display)`` pairs.

    ``display`` is the path relative to ``root`` (default: the current
    directory) with POSIX separators — the form allowlist patterns and
    reports use.
    """
    if root is None:
        root = os.getcwd()
    root = os.path.abspath(root)

    collected: List[str] = []
    for path in paths:
        absolute = os.path.abspath(path)
        if os.path.isdir(absolute):
            for dirpath, dirnames, filenames in os.walk(absolute):
                dirnames[:] = sorted(
                    d
                    for d in dirnames
                    if d not in SKIP_DIR_NAMES and not d.startswith(".")
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        collected.append(os.path.join(dirpath, filename))
        elif os.path.isfile(absolute):
            collected.append(absolute)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")

    pairs = []
    for absolute in collected:
        display = os.path.relpath(absolute, root).replace(os.sep, "/")
        pairs.append((absolute, display))
    pairs.sort(key=lambda pair: pair[1])
    return pairs


@dataclass
class AnalysisReport:
    """Everything one analysis run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_analyzed: int = 0

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def analyze_paths(
    paths: Sequence[str],
    root: Optional[str] = None,
    allowlist: Optional[Mapping[str, Tuple[str, ...]]] = None,
) -> AnalysisReport:
    """Analyze every ``.py`` file under ``paths``.

    Files are visited in display-path order and each file's findings come
    back sorted, so the report is in :func:`sort_findings` order.
    """
    report = AnalysisReport()
    for absolute, display in iter_python_files(paths, root=root):
        with open(absolute, "r", encoding="utf-8") as stream:
            source = stream.read()
        report.findings.extend(
            analyze_source(source, path=display, allowlist=allowlist)
        )
        report.files_analyzed += 1
    return report
