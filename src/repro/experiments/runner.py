"""Run every paper experiment and print its output.

Usage::

    python -m repro.experiments.runner               # everything
    python -m repro.experiments.runner figure06 table02
    python -m repro.experiments.runner --jobs 4      # parallel sweeps
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Optional, Sequence

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.parallel import set_default_jobs

REPORT_SCHEMA = "repro-report/1"


def run_experiments(
    names: Sequence[str],
    jobs: Optional[int] = None,
    report_path: Optional[str] = None,
) -> None:
    """Run experiments by name; ``jobs`` sets the process-wide sweep
    parallelism default for the duration of the run.  With ``report_path``
    a run summary (experiment names and wall-clock durations) is written
    after the run — machine-readable JSON by default, or a rendered
    HTML/Markdown document when the path ends in ``.html``/``.md`` (see
    :mod:`repro.obs.report`).
    """
    if jobs is not None:
        set_default_jobs(jobs)
    entries = []
    run_start = time.time()
    for name in names:
        module = ALL_EXPERIMENTS.get(name)
        if module is None:
            raise SystemExit(
                f"unknown experiment {name!r}; choose from "
                f"{', '.join(ALL_EXPERIMENTS)}"
            )
        banner = f"=== {name} ==="
        print(banner)
        start = time.time()
        module.main()
        duration = time.time() - start
        entries.append({"name": name, "duration_s": round(duration, 3)})
        print(f"--- {name} done in {duration:.1f}s ---\n")
    if report_path is not None:
        report = {
            "schema": REPORT_SCHEMA,
            "jobs": jobs,
            "total_s": round(time.time() - run_start, 3),
            "experiments": entries,
        }
        write_run_report(report, report_path)
        print(f"report written to {report_path}")


def write_run_report(report: dict, path: str) -> None:
    """Write a run report: JSON by default, rendered for ``.html``/``.md``."""
    lowered = path.lower()
    if lowered.endswith((".html", ".htm", ".md", ".markdown")):
        from repro.obs.report import format_for_path, render_runner_report

        text = render_runner_report(report, format_for_path(path))
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(text)
        return
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(report, stream, indent=2, sort_keys=True)
        stream.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> None:
    from repro.__main__ import positive_int

    parser = argparse.ArgumentParser(
        description="Regenerate paper figures/tables."
    )
    parser.add_argument(
        "names", nargs="*", metavar="name", help="experiments to run (all)"
    )
    parser.add_argument(
        "--jobs",
        type=positive_int,
        default=None,
        metavar="N",
        help="fan sweep points out over N worker processes",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write a run report to PATH (JSON; rendered HTML/Markdown "
        "for .html/.md extensions)",
    )
    args = parser.parse_args(argv)
    run_experiments(
        args.names or list(ALL_EXPERIMENTS),
        jobs=args.jobs,
        report_path=args.report,
    )


if __name__ == "__main__":
    main()
