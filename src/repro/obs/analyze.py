"""Single-pass trace analysis: spans, time-series, dispatch efficiency.

The read side of the observability stack.  :func:`analyze_trace` folds a
JSONL trace (``.jsonl`` or ``.jsonl.gz``) into a :class:`TraceAnalysis` in
**one streaming pass** — the span builder holds only in-flight requests,
the time-series accumulators hold one cell per bucket, and the response
histogram reservoir-samples — so multi-GB traces never load into memory.

Time-series semantics (bucket width ``bucket_s``, bucket *i* covering
``[i*bucket_s, (i+1)*bucket_s)``):

* ``queue_depth`` — time-weighted mean pending-queue depth, rebuilt from
  the depth step function carried by ``sim.arrival``/``sim.dispatch``;
* ``utilization`` — fraction of the bucket the device spent servicing,
  from ``dev.access`` busy intervals ``[t, t + total)`` split across the
  buckets they overlap (so the per-bucket busy seconds sum exactly to the
  run's total busy time);
* ``throughput_iops`` — completions per second (bucket count / width; the
  counts sum exactly to the run's completion total);
* ``response_mean`` / ``response_p95`` — over the completions inside the
  bucket (``None`` for buckets with no completions);
* ``cylinder`` — the device's last reported arm/sled position (the
  ``dev.access`` ``cylinder`` extra), carried forward through idle buckets.

The last bucket is normalized by the simulated time it actually covers, so
a run ending mid-bucket doesn't dilute its final utilization/queue-depth
point.

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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.metrics import Histogram
from repro.obs.spans import SpanBuilder, SpanSummary
from repro.obs.tracer import iter_trace

DEFAULT_BUCKET_S = 0.1
"""Default time-series bucket width (100 ms of simulated time)."""


def _percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence.

    Same interpolation as ``SimulationResult.response_time_percentile``.
    """
    if not ordered:
        raise ValueError("no values")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return ordered[lo]
    frac = rank - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


@dataclass
class TimeSeries:
    """Per-bucket series over one run; all lists share one length."""

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

    def bucket_starts(self) -> List[float]:
        return [index * self.bucket_s for index in range(len(self))]

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


class TimeSeriesBuilder:
    """Streaming accumulator behind :class:`TimeSeries`.

    Holds one float per touched bucket (dicts keyed by bucket index), plus
    the responses of the single still-open completion bucket — completion
    times arrive in order, so earlier buckets are reduced to (mean, p95)
    and dropped as soon as the stream moves past them.
    """

    def __init__(self, bucket_s: float = DEFAULT_BUCKET_S) -> None:
        if bucket_s <= 0:
            raise ValueError(f"bucket_s must be > 0: {bucket_s}")
        self.bucket_s = bucket_s
        self._busy: Dict[int, float] = {}
        self._depth_weight: Dict[int, float] = {}
        self._completions: Dict[int, int] = {}
        self._response_stats: Dict[int, tuple] = {}
        self._open_bucket: Optional[int] = None
        self._open_responses: List[float] = []
        self._cylinder: Dict[int, int] = {}
        self._depth = 0
        self._depth_since = 0.0
        self._end = 0.0

    # -- interval bookkeeping ------------------------------------------- #

    def _spread(self, acc: Dict[int, float], start: float, end: float,
                rate: float) -> None:
        """Accumulate ``rate`` seconds-weighted over ``[start, end)``."""
        if end <= start:
            return
        bucket = int(start / self.bucket_s)
        while start < end:
            edge = (bucket + 1) * self.bucket_s
            upto = edge if edge < end else end
            acc[bucket] = acc.get(bucket, 0.0) + (upto - start) * rate
            start = upto
            bucket += 1

    def _advance_depth(self, t: float, depth: int) -> None:
        self._spread(self._depth_weight, self._depth_since, t, self._depth)
        self._depth = depth
        self._depth_since = t

    def _reduce_responses(self) -> None:
        responses = sorted(self._open_responses)
        self._response_stats[self._open_bucket] = (
            math.fsum(responses) / len(responses),
            _percentile(responses, 95.0),
        )
        self._open_responses = []

    # -- event feed ------------------------------------------------------ #

    def feed(self, event: dict) -> None:
        kind = event.get("kind")
        t = event.get("t", 0.0)
        if t > self._end:
            self._end = t
        if kind == "sim.arrival":
            self._advance_depth(t, event["queue_depth"])
        elif kind == "sim.dispatch":
            # queue_depth is the pending depth *before* the pick.
            self._advance_depth(t, event["queue_depth"] - 1)
        elif kind == "dev.access":
            busy_end = t + event["total"]
            self._spread(self._busy, t, busy_end, 1.0)
            if busy_end > self._end:
                self._end = busy_end
            cylinder = event.get("cylinder")
            if cylinder is not None:
                self._cylinder[int(busy_end / self.bucket_s)] = cylinder
        elif kind == "sim.complete":
            bucket = int(t / self.bucket_s)
            self._completions[bucket] = self._completions.get(bucket, 0) + 1
            if bucket != self._open_bucket:
                if self._open_responses:
                    self._reduce_responses()
                self._open_bucket = bucket
            self._open_responses.append(event["response"])

    def finalize(self) -> TimeSeries:
        """Close out the stream and materialize the per-bucket arrays."""
        self._advance_depth(self._end, self._depth)
        if self._open_responses:
            self._reduce_responses()
        end = self._end
        buckets = max(1, math.ceil(end / self.bucket_s)) if end > 0 else 1
        series = TimeSeries(bucket_s=self.bucket_s, end_time=end)
        last_cylinder: Optional[int] = None
        for index in range(buckets):
            start = index * self.bucket_s
            width = min(self.bucket_s, end - start) if end > start else 0.0
            if width > 0:
                series.utilization.append(self._busy.get(index, 0.0) / width)
                series.queue_depth.append(
                    self._depth_weight.get(index, 0.0) / width
                )
            else:
                series.utilization.append(0.0)
                series.queue_depth.append(0.0)
            count = self._completions.get(index, 0)
            series.completions.append(count)
            series.throughput_iops.append(
                count / width if width > 0 else 0.0
            )
            stats = self._response_stats.get(index)
            series.response_mean.append(stats[0] if stats else None)
            series.response_p95.append(stats[1] if stats else None)
            last_cylinder = self._cylinder.get(index, last_cylinder)
            series.cylinder.append(last_cylinder)
        return series


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
    """Everything one pass over a trace produces."""

    meta: dict
    events: int
    requests: Optional[int]
    completed: Optional[int]
    end_time: float
    summary: SpanSummary
    response: Histogram
    timeseries: TimeSeries
    dispatch: Dict[str, DispatchStats]
    spans_pending: int = 0
    obs_windows: int = 0
    slo_violations: int = 0

    @property
    def sampled(self) -> bool:
        """True when the trace was written through a sampling tracer."""
        return self.meta.get("sample_every", 1) > 1

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "events": self.events,
            "requests": self.requests,
            "completed": self.completed,
            "end_time_s": self.end_time,
            "sampled": self.sampled,
            "spans": self.summary.to_dict(),
            "spans_pending": self.spans_pending,
            "response_s": self.response.to_dict(),
            "timeseries": self.timeseries.to_dict(),
            "dispatch": {
                name: stats.to_dict()
                for name, stats in sorted(self.dispatch.items())
            },
            "obs_windows": self.obs_windows,
            "slo_violations": self.slo_violations,
        }


def analyze_events(
    events: Iterable[dict], bucket_s: float = DEFAULT_BUCKET_S
) -> TraceAnalysis:
    """Fold an event stream into a :class:`TraceAnalysis` (one pass)."""
    builder = SpanBuilder()
    summary = SpanSummary()
    response = Histogram("response_time_s")
    series = TimeSeriesBuilder(bucket_s=bucket_s)
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
        if kind == "trace.meta":
            meta = {k: v for k, v in event.items() if k not in ("kind", "t")}
        elif kind == "sim.start":
            requests = event["requests"]
        elif kind == "sim.end":
            completed = event["completed"]
            end_time = event["t"]
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
        series.feed(event)
        span = builder.feed(event)
        if span is not None:
            summary.add(span)
            response.observe(span.response)
    timeseries = series.finalize()
    if end_time <= 0:
        end_time = timeseries.end_time
    return TraceAnalysis(
        meta=meta,
        events=count,
        requests=requests,
        completed=completed,
        end_time=end_time,
        summary=summary,
        response=response,
        timeseries=timeseries,
        dispatch=dispatch,
        spans_pending=builder.pending,
        obs_windows=obs_windows,
        slo_violations=slo_violations,
    )


def analyze_trace(
    path: str, bucket_s: float = DEFAULT_BUCKET_S
) -> TraceAnalysis:
    """Analyze a JSONL trace file (``.jsonl`` or ``.jsonl.gz``), streaming."""
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
    summary = analysis.summary
    if summary.count:
        lines.append(
            f"spans: {summary.count} "
            f"(mean response {summary.mean_response * 1e3:.3f} ms = "
            f"queue {summary.mean_queue * 1e3:.3f} + "
            f"service {summary.mean_service * 1e3:.3f})"
        )
        lines.append("latency attribution (mean ms):")
        for phase, value in summary.mean_attribution().items():
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
    if args.bucket <= 0:
        parser.error(f"--bucket must be > 0, got {args.bucket:g}")
    bucket_s = args.bucket / 1e3

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
