"""Trace analysis: a trace read back into the run's own result columns.

The read side of the observability stack.  :func:`analyze_trace` reads a
JSONL trace (``.jsonl`` or ``.jsonl.gz``) in one pass:
:class:`~repro.obs.spans.SpanBuilder` reconciles each request's events
(``queue + service == response`` and the phase sums, to 1e-9), and every
finished span becomes one row of a
:class:`~repro.sim.statistics.SimulationResult`, the record the traced run
itself produced (``bits_accessed`` is 0: nothing here reads it).  Every
summary is that result's, so on an unsampled warmup-0 trace the mean, the
p50/p95/p99 and the maximum response time are the run's own digits, exact
at any trace length.  The result holds about 120 bytes per completion
(120 MB per million completions), and the windowed fold briefly needs
about 270 more while it runs.

The time series is the live fold's
(:class:`~repro.obs.live.LiveAggregator` over the rebuilt result, window
width ``bucket_s``): window ``k`` holds the times ``t`` with
``k*bucket_s < t <= (k+1)*bucket_s`` (the first window also holds 0),
and the last, partial window is normalized by the time it covers.  Per
window:

* ``queue_depth`` — time-weighted mean count of arrived, undispatched
  requests;
* ``utilization`` — busy seconds (each access spread over the windows it
  overlaps) over the window's width, uncapped: over a merged fleet trace
  the devices' busy seconds add up past 1.0;
* ``throughput_iops`` / ``completions`` — completions per second / count;
* ``response_mean`` / ``response_p95`` — over the completions in the
  window (``None`` when it has none), the p95 through
  :func:`~repro.obs.metrics.percentile`;
* ``cylinder`` — the device's position after the last ``dev.access``
  (in trace order) that ended in the window, carried forward.

On a sampled trace every series describes the sampled requests only.

CLI::

    python -m repro.obs.analyze TRACE                 # text summary
    python -m repro.obs.analyze TRACE --spans         # spans as JSONL
    python -m repro.obs.analyze TRACE --timeseries    # time-series as JSON
    python -m repro.obs.analyze TRACE --report out.html [--bucket MS]

Exit codes: 0 on success, 1 on an unreadable/invalid trace, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from array import array
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterable, List, Optional, Sequence

from repro.nputil import get_numpy
from repro.obs.live import LiveAggregator, _window_of, check_width
from repro.obs.metrics import percentile
from repro.obs.spans import SpanBuilder
from repro.obs.tracer import iter_trace
from repro.sim.statistics import COLUMNS, SimulationResult

DEFAULT_BUCKET_S = 0.1
"""Default time-series bucket width (100 ms of simulated time)."""

_ROW = (
    ("arrival", "arrival"), ("lbn", "lbn"), ("sectors", "sectors"),
    ("rid", "rid"), ("dispatch", "dispatch"), ("completion", "complete"),
    ("total", "total"), ("seek_x", "seek_x"), ("seek_y", "seek_y"),
    ("settle", "settle"), ("rotational_latency", "rotational_latency"),
    ("transfer", "transfer"), ("turnarounds", "turnarounds"),
)
"""``(result column, span attribute)`` of every column a span fills."""

_span_row = attrgetter(*(attribute for _, attribute in _ROW))

_TYPECODE = {"float64": "d", "int64": "q", "bool": "b"}
"""``array`` typecode per column dtype: 8 bytes a value, 1 for a flag."""


@dataclass
class TimeSeries:
    """Per-window series over one run; all lists share one length."""

    bucket_s: float
    end_time: float
    queue_depth: List[float] = field(default_factory=list)
    utilization: List[float] = field(default_factory=list)
    throughput_iops: List[float] = field(default_factory=list)
    completions: List[int] = field(default_factory=list)
    response_mean: List[Optional[float]] = field(default_factory=list)
    response_p95: List[Optional[float]] = field(default_factory=list)
    cylinder: List[Optional[int]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.utilization)

    def to_dict(self) -> dict:
        return {
            "bucket_s": self.bucket_s,
            "end_time_s": self.end_time,
            "buckets": len(self),
            "queue_depth": self.queue_depth,
            "utilization": self.utilization,
            "throughput_iops": self.throughput_iops,
            "completions": self.completions,
            "response_mean_s": self.response_mean,
            "response_p95_s": self.response_p95,
            "cylinder": self.cylinder,
        }


@dataclass
class DispatchStats:
    """Aggregated ``sched.dispatch`` telemetry for one scheduler."""

    scheduler: str
    dispatches: int = 0
    candidates: int = 0
    candidates_priced: int = 0
    candidates_pruned: int = 0

    def to_dict(self) -> dict:
        out: dict = {
            "scheduler": self.scheduler,
            "dispatches": self.dispatches,
            "candidates": self.candidates,
        }
        if self.dispatches:
            out["mean_candidates"] = self.candidates / self.dispatches
        if self.candidates_priced or self.candidates_pruned:
            out["candidates_priced"] = self.candidates_priced
            out["candidates_pruned"] = self.candidates_pruned
            if self.candidates:
                out["priced_fraction"] = (
                    self.candidates_priced / self.candidates
                )
        return out


@dataclass
class TraceAnalysis:
    """Everything one pass over a trace produces.

    ``result`` holds one row per reconciled span, in trace order.
    """

    meta: dict
    events: int
    requests: Optional[int]
    completed: Optional[int]
    end_time: float
    result: SimulationResult
    timeseries: TimeSeries
    dispatch: Dict[str, DispatchStats]
    spans_pending: int = 0
    obs_windows: int = 0
    slo_violations: int = 0

    @property
    def sampled(self) -> bool:
        """True when the trace was written through a sampling tracer."""
        return self.meta.get("sample_every", 1) > 1

    def attribution(self) -> Dict[str, float]:
        """Mean seconds per lifecycle component, from the column means.

        ``queue``, ``positioning``, ``transfer`` and ``turnarounds`` sum to
        the mean response time; the positioning sub-phases ``seek_x``,
        ``seek_y``, ``settle`` and ``rotational_latency`` overlap on MEMS,
        so they need not sum to ``positioning``.  Raises ``ValueError``
        when the trace completed nothing.
        """
        result = self.result
        c = result.columns
        positioning = get_numpy().maximum(
            c["seek_x"] + c["settle"], c["seek_y"]
        ) + c["rotational_latency"]
        phases = result.mean_phase_breakdown()
        return {
            "queue": result.mean_queue_time,
            "positioning": math.fsum(positioning.tolist()) / len(result),
            "transfer": phases["transfer"],
            "turnarounds": phases["turnarounds"],
            "seek_x": phases["seek_x"],
            "seek_y": phases["seek_y"],
            "settle": phases["settle"],
            "rotational_latency": phases["rotational_latency"],
        }


def analyze_events(
    events: Iterable[dict], bucket_s: float = DEFAULT_BUCKET_S
) -> TraceAnalysis:
    """Fold an event stream into a :class:`TraceAnalysis` (one pass)."""
    check_width("bucket_s", bucket_s)
    builder = SpanBuilder()
    rows = {name: array(_TYPECODE[dtype])
            for name, dtype in COLUMNS if name != "bits_accessed"}
    appends = [rows[name].append for name, _ in _ROW]
    add_write = rows["is_write"].append
    access_end = array("d")
    access_cylinder = array("q")
    dispatch: Dict[str, DispatchStats] = {}
    meta: dict = {}
    requests: Optional[int] = None
    completed: Optional[int] = None
    end_time = 0.0
    count = 0
    obs_windows = 0
    slo_violations = 0
    for event in events:
        count += 1
        kind = event.get("kind")
        t = event.get("t", 0.0)
        if t > end_time:
            end_time = t
        if kind == "trace.meta":
            meta = {k: v for k, v in event.items() if k not in ("kind", "t")}
        elif kind == "sim.start":
            requests = event["requests"]
        elif kind == "sim.end":
            completed = event["completed"]
        elif kind == "dev.access":
            cylinder = event.get("cylinder")
            if cylinder is not None:
                access_end.append(t + event["total"])
                access_cylinder.append(cylinder)
        elif kind == "sched.dispatch":
            stats = dispatch.get(event["scheduler"])
            if stats is None:
                stats = dispatch[event["scheduler"]] = DispatchStats(
                    event["scheduler"]
                )
            stats.dispatches += 1
            stats.candidates += event["candidates"]
            if "candidates_priced" in event:
                stats.candidates_priced += event["candidates_priced"]
                stats.candidates_pruned += event["candidates_pruned"]
        elif kind == "obs.window":
            obs_windows += 1
        elif kind == "slo.violation":
            slo_violations += 1
        span = builder.feed(event)
        if span is not None:
            for append, value in zip(appends, _span_row(span)):
                append(value)
            add_write(span.io == "write")
    completions = len(rows["rid"])
    result = SimulationResult(
        {**rows, "bits_accessed": get_numpy().zeros(completions, "int64")}
        if completions else None,
        end_time,
    )
    return TraceAnalysis(
        meta=meta,
        events=count,
        requests=requests,
        completed=completed,
        end_time=end_time,
        result=result,
        timeseries=_timeseries(result, bucket_s, access_end, access_cylinder),
        dispatch=dispatch,
        spans_pending=builder.pending,
        obs_windows=obs_windows,
        slo_violations=slo_violations,
    )


def _timeseries(
    result: SimulationResult, bucket_s: float, access_end, access_cylinder
) -> TimeSeries:
    """The live fold's ``obs.window`` events over ``result`` as series, with
    each window's p95 response and the last cylinder reported in it."""
    np = get_numpy()
    events = LiveAggregator(window_s=bucket_s).events(result)
    responses: Dict[int, List[float]] = {}
    windows = _window_of(result.columns["completion"], bucket_s)
    for window, response in zip(
        windows.astype(np.int64).tolist(), result.response_times
    ):
        responses.setdefault(window, []).append(response)
    ends = np.asarray(access_end, dtype=np.float64)
    last_cylinder = dict(zip(
        _window_of(ends, bucket_s).astype(np.int64).tolist(), access_cylinder
    ))
    series = TimeSeries(bucket_s=bucket_s, end_time=result.end_time)
    cylinder: Optional[int] = None
    for event in events:
        window = event["window"]
        series.queue_depth.append(event["queue_depth"])
        series.utilization.append(event["utilization"])
        series.throughput_iops.append(event["throughput_iops"])
        series.completions.append(event["completions"])
        series.response_mean.append(event.get("response_mean"))
        values = responses.get(window)
        series.response_p95.append(
            percentile(sorted(values), 95.0) if values else None
        )
        cylinder = last_cylinder.get(window, cylinder)
        series.cylinder.append(cylinder)
    return series


def analyze_trace(
    path: str, bucket_s: float = DEFAULT_BUCKET_S
) -> TraceAnalysis:
    """Analyze a JSONL trace file (``.jsonl`` or ``.jsonl.gz``) in one pass."""
    return analyze_events(iter_trace(path), bucket_s=bucket_s)


def render_text(analysis: TraceAnalysis, source: str = "<trace>") -> str:
    """Terminal summary (the CLI's default output)."""
    lines = [f"=== trace analysis: {source} ==="]
    lines.append(
        f"events {analysis.events}, requests {analysis.requests}, "
        f"completed {analysis.completed}, "
        f"end {analysis.end_time:.6f}s"
        + ("  [sampled]" if analysis.sampled else "")
    )
    result = analysis.result
    if len(result):
        lines.append(
            f"spans: {len(result)} "
            f"(mean response {result.mean_response_time * 1e3:.3f} ms = "
            f"queue {result.mean_queue_time * 1e3:.3f} + "
            f"service {result.mean_service_time * 1e3:.3f})"
        )
        pcts = result.percentiles()
        lines.append(
            f"response (ms): mean {result.mean_response_time * 1e3:.3f}, "
            + ", ".join(f"{name} {value * 1e3:.3f}"
                        for name, value in pcts.items())
            + f", max {result.max_response_time * 1e3:.3f}"
        )
        lines.append("latency attribution (mean ms):")
        for phase, value in analysis.attribution().items():
            lines.append(f"  {phase:<20s} {value * 1e3:9.4f}")
    for name in sorted(analysis.dispatch):
        stats = analysis.dispatch[name].to_dict()
        parts = [f"{stats['dispatches']} dispatches"]
        if "mean_candidates" in stats:
            parts.append(f"mean candidates {stats['mean_candidates']:.2f}")
        if "priced_fraction" in stats:
            parts.append(f"priced {stats['priced_fraction']:.1%}")
        lines.append(f"scheduler {name}: " + ", ".join(parts))
    series = analysis.timeseries
    lines.append(
        f"time-series: {len(series)} buckets of {series.bucket_s * 1e3:g} ms"
    )
    if analysis.obs_windows:
        lines.append(
            f"live: {analysis.obs_windows} obs.window events, "
            f"{analysis.slo_violations} slo.violation events"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analyze",
        description="Analyze a repro JSONL trace: spans, time-series, "
        "reports.",
    )
    parser.add_argument("trace", metavar="TRACE", help="trace file "
                        "(.jsonl or .jsonl.gz)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--spans", action="store_true",
        help="print per-request spans as JSONL",
    )
    mode.add_argument(
        "--timeseries", action="store_true",
        help="print the bucketed time-series as JSON",
    )
    mode.add_argument(
        "--report", metavar="OUT",
        help="write a self-contained report to OUT (.html or .md)",
    )
    parser.add_argument(
        "--bucket", type=float, default=DEFAULT_BUCKET_S * 1e3, metavar="MS",
        help="time-series bucket width in milliseconds (default 100)",
    )
    args = parser.parse_args(argv)
    try:
        bucket_s = check_width("--bucket", args.bucket / 1e3)
    except ValueError as exc:
        parser.error(str(exc))

    try:
        if args.spans:
            from repro.obs.spans import iter_spans

            for span in iter_spans(iter_trace(args.trace)):
                print(json.dumps(span.to_dict(), sort_keys=True))
            return 0
        analysis = analyze_trace(args.trace, bucket_s=bucket_s)
        if args.timeseries:
            print(json.dumps(analysis.timeseries.to_dict(), sort_keys=True))
        elif args.report:
            from repro.obs.report import write_report

            write_report(analysis, args.report, source=args.trace)
            print(f"report written to {args.report}")
        else:
            print(render_text(analysis, source=args.trace))
        return 0
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
