"""Deterministic, self-contained HTML/Markdown reports over trace analyses.

Renders a :class:`~repro.obs.analyze.TraceAnalysis` (a single run, or a
fleet's merged trace) into a single file with no external assets:
latency-attribution tables, unicode sparklines for every time-series, and
the scheduler dispatch-efficiency stats (candidate counts and the SPTF
``candidates_priced``/``pruned`` split).

Output is **byte-deterministic**: no wall-clock timestamps, all dicts
iterated in sorted order, every number through one fixed formatter — two
runs of the same seed+config produce identical report bytes (asserted in
``tests/obs/test_report.py``).

The same document model also renders the experiment runner's run report
(``python -m repro experiments --report out.html``); that one carries
wall-clock durations by design, so only the trace reports are
byte-reproducible.
"""

from __future__ import annotations

import html as _html
from typing import List, Optional, Sequence, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.merge import FleetResult
    from repro.obs.analyze import TraceAnalysis

SPARK_CHARS = "▁▂▃▄▅▆▇█"
SPARK_WIDTH = 64
_GAP = "·"

_CSS = (
    "body{font-family:sans-serif;margin:2em;max-width:72em}"
    "table{border-collapse:collapse;margin:0.75em 0}"
    "th,td{border:1px solid #999;padding:0.25em 0.6em;text-align:right}"
    "th:first-child,td:first-child{text-align:left}"
    "code,pre{font-family:monospace}"
    ".spark{font-family:monospace;font-size:1.1em;letter-spacing:0}"
)


def fmt(value: object) -> str:
    """One deterministic formatter for every number in a report."""
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def fmt_ms(seconds: Optional[float]) -> str:
    """Seconds rendered as milliseconds with fixed precision."""
    if seconds is None:
        return "—"
    return f"{seconds * 1e3:.4f}"


def sparkline(
    values: Sequence[Optional[float]], width: int = SPARK_WIDTH
) -> str:
    """Unicode sparkline, downsampled to ``width`` cells by cell-mean.

    ``None`` values (e.g. response time in an idle bucket) render as a
    middle-dot gap.  Scaling is min..max over the present values; a flat
    series renders at the lowest bar.
    """
    if not values:
        return ""
    if len(values) > width:
        cells: List[Optional[float]] = []
        for index in range(width):
            lo = index * len(values) // width
            hi = max(lo + 1, (index + 1) * len(values) // width)
            window = [v for v in values[lo:hi] if v is not None]
            cells.append(sum(window) / len(window) if window else None)
    else:
        cells = list(values)
    present = [v for v in cells if v is not None]
    if not present:
        return _GAP * len(cells)
    low = min(present)
    span = max(present) - low
    chars = []
    top = len(SPARK_CHARS) - 1
    for value in cells:
        if value is None:
            chars.append(_GAP)
        elif span <= 0:
            chars.append(SPARK_CHARS[0])
        else:
            chars.append(SPARK_CHARS[round((value - low) / span * top)])
    return "".join(chars)


# --------------------------------------------------------------------------- #
# document model: built once, rendered to markdown or html
# --------------------------------------------------------------------------- #


class Document:
    """A flat list of blocks that renders to Markdown or HTML."""

    def __init__(self, title: str) -> None:
        self.title = title
        self._blocks: List[Tuple[str, object]] = []

    def heading(self, text: str, level: int = 2) -> None:
        self._blocks.append(("heading", (level, text)))

    def para(self, text: str) -> None:
        self._blocks.append(("para", text))

    def table(
        self, headers: Sequence[str], rows: Sequence[Sequence[str]]
    ) -> None:
        self._blocks.append(("table", (list(headers), [list(r) for r in rows])))

    def spark(self, label: str, line: str, note: str = "") -> None:
        self._blocks.append(("spark", (label, line, note)))

    # -- renderers ------------------------------------------------------- #

    def to_markdown(self) -> str:
        out: List[str] = [f"# {self.title}", ""]
        for kind, payload in self._blocks:
            if kind == "heading":
                level, text = payload  # type: ignore[misc]
                out.append("#" * level + f" {text}")
                out.append("")
            elif kind == "para":
                out.append(str(payload))
                out.append("")
            elif kind == "table":
                headers, rows = payload  # type: ignore[misc]
                out.append("| " + " | ".join(headers) + " |")
                out.append("|" + "|".join("---" for _ in headers) + "|")
                for row in rows:
                    out.append("| " + " | ".join(row) + " |")
                out.append("")
            elif kind == "spark":
                label, line, note = payload  # type: ignore[misc]
                suffix = f"  ({note})" if note else ""
                out.append(f"- **{label}**: `{line}`{suffix}")
        if out and out[-1] != "":
            out.append("")
        return "\n".join(out)

    def to_html(self) -> str:
        body: List[str] = []
        esc = _html.escape
        for kind, payload in self._blocks:
            if kind == "heading":
                level, text = payload  # type: ignore[misc]
                body.append(f"<h{level}>{esc(text)}</h{level}>")
            elif kind == "para":
                body.append(f"<p>{esc(str(payload))}</p>")
            elif kind == "table":
                headers, rows = payload  # type: ignore[misc]
                parts = ["<table>", "<tr>"]
                parts.extend(f"<th>{esc(h)}</th>" for h in headers)
                parts.append("</tr>")
                for row in rows:
                    parts.append("<tr>")
                    parts.extend(f"<td>{esc(cell)}</td>" for cell in row)
                    parts.append("</tr>")
                parts.append("</table>")
                body.append("".join(parts))
            elif kind == "spark":
                label, line, note = payload  # type: ignore[misc]
                suffix = f" <small>({esc(note)})</small>" if note else ""
                body.append(
                    f"<p><b>{esc(label)}</b>: "
                    f"<span class=\"spark\">{esc(line)}</span>{suffix}</p>"
                )
        return (
            "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>{esc(self.title)}</title>"
            f"<style>{_CSS}</style></head>\n<body>\n"
            f"<h1>{esc(self.title)}</h1>\n"
            + "\n".join(body)
            + "\n</body></html>\n"
        )

    def render(self, fmt_name: str) -> str:
        if fmt_name == "md":
            return self.to_markdown()
        if fmt_name == "html":
            return self.to_html()
        raise ValueError(f"unknown report format: {fmt_name!r}")


def format_for_path(path: str) -> str:
    """Report format implied by a file extension (``.html`` / ``.md``)."""
    lowered = path.lower()
    if lowered.endswith((".html", ".htm")):
        return "html"
    if lowered.endswith((".md", ".markdown")):
        return "md"
    raise ValueError(
        f"cannot infer report format from {path!r}; use a .html or .md "
        f"extension"
    )


# --------------------------------------------------------------------------- #
# trace-analysis reports
# --------------------------------------------------------------------------- #


def _analysis_sections(
    doc: Document, analysis: "TraceAnalysis", label: Optional[str] = None
) -> None:
    prefix = f"{label} — " if label else ""
    result = analysis.result
    doc.heading(f"{prefix}run summary")
    doc.table(
        ["metric", "value"],
        [
            ["events", fmt(analysis.events)],
            ["requests", fmt(analysis.requests)],
            ["completed", fmt(analysis.completed)],
            ["end time (s)", fmt(analysis.end_time)],
            ["sampled", fmt(analysis.sampled)],
            ["spans", fmt(len(result))],
            ["in flight at end", fmt(analysis.spans_pending)],
        ],
    )
    if len(result):
        doc.heading(f"{prefix}latency attribution (mean ms)", level=3)
        attribution = analysis.attribution()
        mean = result.mean_response_time
        doc.table(
            ["component", "mean (ms)", "share of response"],
            [
                [
                    phase,
                    fmt_ms(value),
                    f"{value / mean:.2%}"
                    if phase in ("queue", "positioning", "transfer",
                                 "turnarounds")
                    else "—",
                ]
                for phase, value in attribution.items()
            ],
        )
        percentiles = result.percentiles()
        doc.table(
            ["response time", "mean (ms)", "p50 (ms)", "p95 (ms)",
             "p99 (ms)", "max (ms)"],
            [[
                "all spans",
                fmt_ms(mean),
                fmt_ms(percentiles["p50"]),
                fmt_ms(percentiles["p95"]),
                fmt_ms(percentiles["p99"]),
                fmt_ms(result.max_response_time),
            ]],
        )
    if analysis.dispatch:
        doc.heading(f"{prefix}scheduler dispatch efficiency", level=3)
        headers = ["scheduler", "dispatches", "mean candidates",
                   "priced", "pruned", "priced %"]
        rows = []
        for name in sorted(analysis.dispatch):
            stats = analysis.dispatch[name].to_dict()
            rows.append([
                name,
                fmt(stats["dispatches"]),
                fmt(stats.get("mean_candidates")),
                fmt(stats.get("candidates_priced")),
                fmt(stats.get("candidates_pruned")),
                f"{stats['priced_fraction']:.2%}"
                if "priced_fraction" in stats else "—",
            ])
        doc.table(headers, rows)
    series = analysis.timeseries
    doc.heading(f"{prefix}time series", level=3)
    doc.para(
        f"{len(series)} buckets of {fmt(series.bucket_s * 1e3)} ms over "
        f"{fmt(series.end_time)} s of simulated time."
    )
    doc.spark("queue depth", sparkline(series.queue_depth),
              _range_note(series.queue_depth))
    doc.spark("device utilization", sparkline(series.utilization),
              _range_note(series.utilization))
    doc.spark("throughput (IO/s)", sparkline(series.throughput_iops),
              _range_note(series.throughput_iops))
    doc.spark("mean response (s)", sparkline(series.response_mean),
              _range_note(series.response_mean))
    doc.spark("p95 response (s)", sparkline(series.response_p95),
              _range_note(series.response_p95))
    cylinders = [float(c) if c is not None else None
                 for c in series.cylinder]
    doc.spark("arm/sled position (cyl)", sparkline(cylinders),
              _range_note(cylinders))


def _range_note(values: Sequence[Optional[float]]) -> str:
    present = [v for v in values if v is not None]
    if not present:
        return "no data"
    return f"min {fmt(min(present))}, max {fmt(max(present))}"


def render_report(
    analysis: "TraceAnalysis",
    fmt_name: str = "html",
    source: str = "<trace>",
) -> str:
    """Self-contained single-run report (``html`` or ``md``)."""
    doc = Document(f"Trace report: {source}")
    _analysis_sections(doc, analysis)
    return doc.render(fmt_name)


def write_report(
    analysis: "TraceAnalysis", path: str, source: str = "<trace>"
) -> None:
    """Write a single-run report; format inferred from ``path``."""
    text = render_report(analysis, format_for_path(path), source=source)
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)


# --------------------------------------------------------------------------- #
# fleet reports
# --------------------------------------------------------------------------- #


def render_fleet_report(
    result: "FleetResult",
    fmt_name: str = "html",
    analysis: Optional["TraceAnalysis"] = None,
    source: str = "<fleet>",
) -> str:
    """Fleet-level report: merged metrics plus the per-member breakdown.

    ``analysis`` (a :class:`~repro.obs.analyze.TraceAnalysis` over the
    *merged* fleet trace) appends the usual latency-attribution and
    time-series sections.  Like the single-run reports, output is
    byte-deterministic — the fleet determinism tests compare report bytes
    across ``jobs`` values.
    """
    doc = Document(f"Fleet report: {source}")
    doc.heading("fleet summary")
    doc.table(
        ["metric", "value"],
        [
            ["router", result.router],
            ["members", fmt(len(result.members))],
            ["requests routed", fmt(result.total_requests)],
            ["requests completed", fmt(len(result))],
        ],
    )
    combined = result.combined
    if len(combined):
        percentiles = combined.percentiles()
        doc.heading("merged fleet metrics", level=3)
        doc.table(
            ["metric", "value"],
            [
                ["mean response (ms)", fmt_ms(combined.mean_response_time)],
                ["p50 response (ms)", fmt_ms(percentiles["p50"])],
                ["p95 response (ms)", fmt_ms(percentiles["p95"])],
                ["p99 response (ms)", fmt_ms(percentiles["p99"])],
                ["response cv²", fmt(combined.response_time_cv2)],
                ["throughput (IO/s)", fmt(combined.throughput)],
                # Device-seconds per second summed fleet-wide; approaches
                # the member count (not 1.0) when every member is busy.
                ["aggregate utilization", fmt(combined.utilization)],
                ["end time (s)", fmt(combined.end_time)],
            ],
        )
    doc.heading("per-member breakdown", level=3)
    live = result.live
    headers = [
        "member", "device", "scheduler", "routed", "completed",
        "mean response (ms)", "p95 (ms)", "utilization",
    ]
    if live is not None:
        # Sketch-derived latency percentiles (the live engine's view of
        # the full member stream, warmup included).
        headers += ["sketch p50 (ms)", "sketch p95 (ms)", "sketch p99 (ms)"]
    rows = []
    for index, member_result in enumerate(result.members):
        config = result.member_configs[index]
        if len(member_result):
            percentiles = member_result.percentiles()
            row = [
                f"m{index:02d}",
                config.device,
                config.scheduler,
                fmt(result.routed_counts[index]),
                fmt(len(member_result)),
                fmt_ms(member_result.mean_response_time),
                fmt_ms(percentiles["p95"]),
                fmt(member_result.utilization),
            ]
        else:
            row = [
                f"m{index:02d}", config.device, config.scheduler,
                fmt(result.routed_counts[index]), "0", "—", "—", "—",
            ]
        if live is not None:
            summary = live[index]
            sketch = (
                summary.sketches.get("all") if summary is not None else None
            )
            if sketch is not None and len(sketch):
                sketched = sketch.percentiles()
                row += [
                    fmt_ms(sketched["p50"]),
                    fmt_ms(sketched["p95"]),
                    fmt_ms(sketched["p99"]),
                ]
            else:
                row += ["—", "—", "—"]
        rows.append(row)
    doc.table(headers, rows)
    merged_live = result.merged_live()
    if merged_live is not None:
        doc.heading("live observability (merged sketches)", level=3)
        sketch_rows = []
        for cls in sorted(merged_live.sketches):
            sketch = merged_live.sketches[cls]
            if not len(sketch):
                continue
            sketched = sketch.percentiles()
            sketch_rows.append([
                cls,
                fmt(sketch.count),
                fmt_ms(sketched["p50"]),
                fmt_ms(sketched["p95"]),
                fmt_ms(sketched["p99"]),
                fmt_ms(sketch.max),
            ])
        if sketch_rows:
            doc.table(
                ["class", "completions", "p50 (ms)", "p95 (ms)",
                 "p99 (ms)", "max (ms)"],
                sketch_rows,
            )
        if merged_live.slo:
            doc.heading("SLO compliance", level=3)
            slo_rows = []
            for entry in merged_live.slo:
                spec = entry["spec"]
                completions = entry["completions"]
                good = completions - entry["bad"]
                slo_rows.append([
                    f"{spec['cls']} p{spec['objective'] * 100:g} < "
                    f"{spec['threshold_s'] * 1e3:g}ms",
                    fmt(entry["windows"]),
                    fmt(entry["violations"]),
                    fmt(good / completions) if completions else "—",
                    fmt(entry["burn_rate"]),
                ])
            doc.table(
                ["objective", "windows", "violations", "good fraction",
                 "burn rate"],
                slo_rows,
            )
    if analysis is not None:
        _analysis_sections(doc, analysis, label="merged trace")
    return doc.render(fmt_name)


def write_fleet_report(
    result: "FleetResult",
    path: str,
    analysis: Optional["TraceAnalysis"] = None,
    source: str = "<fleet>",
) -> None:
    """Write a fleet report; format inferred from ``path``."""
    text = render_fleet_report(
        result, format_for_path(path), analysis=analysis, source=source
    )
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(text)


# --------------------------------------------------------------------------- #
# experiment-runner run reports
# --------------------------------------------------------------------------- #


def render_runner_report(report: dict, fmt_name: str) -> str:
    """Render the experiment runner's run report (see
    ``repro.experiments.runner``) as HTML/Markdown.

    Carries wall-clock durations, so unlike trace reports it is not
    byte-reproducible across runs.
    """
    doc = Document("Experiment run report")
    doc.para(
        f"schema {report.get('schema')}, jobs {fmt(report.get('jobs'))}, "
        f"total {fmt(report.get('total_s'))} s"
    )
    doc.table(
        ["experiment", "duration (s)"],
        [
            [entry["name"], fmt(entry["duration_s"])]
            for entry in report.get("experiments", [])
        ],
    )
    return doc.render(fmt_name)
