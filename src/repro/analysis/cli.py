"""``python -m repro.analysis [PATH ...]`` — the determinism lint gate.

Runs rules R1–R3 over every ``.py`` file under the given paths (default:
``src``, or ``.`` where there is none) and prints one text block per
finding plus a summary line.  Paths are reported relative to the current
directory, which is also what the allowlist patterns match.

Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from repro.analysis.engine import AnalysisReport, analyze_paths


def _default_paths() -> List[str]:
    return ["src"] if os.path.isdir("src") else ["."]


def _summary(report: AnalysisReport) -> str:
    count = len(report.findings)
    summary = (
        f"{report.files_analyzed} files analyzed: "
        f"{count} finding{'s' if count != 1 else ''}"
    )
    if count:
        summary += " (" + ", ".join(
            f"{rule}: {n}" for rule, n in report.counts_by_rule().items()
        ) + ")"
    return summary


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis",
        description="AST-based determinism linter for the simulator "
        "(rules R1-R3; see docs/static-analysis.md)",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to analyze (default: src)",
    )
    args = parser.parse_args(argv)

    try:
        report = analyze_paths(args.paths or _default_paths())
    except OSError as exc:
        print(f"repro.analysis: {exc}", file=sys.stderr)
        return 2

    for finding in report.findings:
        print(finding.render())
    print(_summary(report))
    return 1 if report.findings else 0
