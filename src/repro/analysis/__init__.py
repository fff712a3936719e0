"""repro.analysis — AST-based determinism linter.

The paper's figures reproduce only while every request stream is seeded
and simulated components read only simulated time; the null tracer costs
one branch per site only while every emission site sits behind a
``tracer.enabled`` guard.  Several breaks of these conventions pass
every test (``docs/static-analysis.md`` lists the planted defects only
the rules catch), so this package checks them per file, over the Python
``ast``:

* ``R1`` unseeded or process-global ``random`` use,
* ``R2`` host-clock reads outside the allowlisted reporting paths,
* ``R3`` ``tracer.emit`` without a dominating ``tracer.enabled`` guard,

plus ``E0`` for a file that does not parse.  Rules live in
:mod:`repro.analysis.rules` (registered in
:data:`~repro.analysis.rules.ANALYSIS_RULES`), the per-rule file
exemptions in :mod:`repro.analysis.suppress`, and the gate is
``python -m repro.analysis [PATH ...]`` (see ``docs/static-analysis.md``).

Quickstart::

    from repro.analysis import analyze_source

    findings = analyze_source("import random\\nx = random.random()\\n")
    assert findings[0].rule == "R1"
"""

from repro.analysis.engine import (
    AnalysisReport,
    analyze_paths,
    analyze_source,
    iter_python_files,
)
from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.rules import ANALYSIS_RULES, Rule, all_rules
from repro.analysis.suppress import DEFAULT_ALLOWLIST, path_allowlisted
from repro.analysis.cli import main

__all__ = [
    "ANALYSIS_RULES",
    "AnalysisReport",
    "DEFAULT_ALLOWLIST",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "analyze_paths",
    "analyze_source",
    "iter_python_files",
    "main",
    "path_allowlisted",
    "sort_findings",
]
