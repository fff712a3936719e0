"""repro.obs — observability for the simulation stack.

Event tracing (:mod:`repro.obs.tracer`), metrics aggregation
(:mod:`repro.obs.metrics`), and trace analysis — per-request spans
(:mod:`repro.obs.spans`), streaming time-series and reports
(:mod:`repro.obs.analyze`, :mod:`repro.obs.report`) — over
:class:`~repro.sim.Simulation`, both device models, and the schedulers.
The *live* layer describes a run per window of simulated time without
needing a trace: tumbling windowed metrics and SLO/burn-rate tracking
(:mod:`repro.obs.live`), folded once from the finished run's completion
columns into mergeable quantile sketches (:mod:`repro.obs.sketch`), and a
near-zero-overhead self-profiler (:mod:`repro.obs.prof`).
The default :data:`NULL_TRACER` short-circuits every emission site, so an
untraced simulation pays one branch per site (measured in
``benchmarks/bench_hotpath.py``).

Quickstart::

    from repro import MEMSDevice, Simulation, make_scheduler, RandomWorkload
    from repro.obs import RingBufferTracer

    tracer = RingBufferTracer()
    device = MEMSDevice()
    sim = Simulation(device, make_scheduler("SPTF", device), tracer=tracer)
    sim.run(RandomWorkload(device.capacity_sectors, rate=500.0,
                           seed=1).generate(1000))
    accesses = tracer.by_kind("dev.access")   # per-request phase breakdowns

See ``docs/observability.md`` for the record schema and sink API.
"""

from repro.obs.analyze import (
    DispatchStats,
    TimeSeries,
    TimeSeriesBuilder,
    TraceAnalysis,
    analyze_events,
    analyze_trace,
)
from repro.obs.live import (
    DEFAULT_WINDOW_S,
    LiveAggregator,
    LiveSummary,
    SLOSpec,
    merge_live_summaries,
    parse_slo,
)
from repro.obs.metrics import (
    ACCESS_PHASES,
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsTracer,
    replay_metrics,
)
from repro.obs.report import render_report, write_report
from repro.obs.spans import (
    Span,
    SpanBuilder,
    SpanError,
    SpanSummary,
    iter_spans,
    summarize_spans,
)
from repro.obs.tracer import (
    EVENT_FIELDS,
    JsonlTracer,
    NULL_TRACER,
    NullTracer,
    RingBufferTracer,
    SamplingTracer,
    TeeTracer,
    TRACE_SCHEMA,
    Tracer,
    iter_trace,
    iter_trace_lines,
    read_trace,
)
from repro.obs.prof import ProfileReport, SimProfiler, is_instrumented
from repro.obs.sketch import DEFAULT_ALPHA, QuantileSketch
from repro.obs.validate import diff_traces, validate_events, validate_file

__all__ = [
    "ACCESS_PHASES",
    "Counter",
    "DEFAULT_ALPHA",
    "DEFAULT_WINDOW_S",
    "DispatchStats",
    "EVENT_FIELDS",
    "Histogram",
    "JsonlTracer",
    "LiveAggregator",
    "LiveSummary",
    "MetricsRegistry",
    "MetricsTracer",
    "NULL_TRACER",
    "NullTracer",
    "ProfileReport",
    "QuantileSketch",
    "RingBufferTracer",
    "SLOSpec",
    "SamplingTracer",
    "SimProfiler",
    "Span",
    "SpanBuilder",
    "SpanError",
    "SpanSummary",
    "TRACE_SCHEMA",
    "TeeTracer",
    "TimeSeries",
    "TimeSeriesBuilder",
    "TraceAnalysis",
    "Tracer",
    "analyze_events",
    "analyze_trace",
    "diff_traces",
    "iter_spans",
    "iter_trace",
    "iter_trace_lines",
    "is_instrumented",
    "merge_live_summaries",
    "parse_slo",
    "read_trace",
    "render_report",
    "replay_metrics",
    "summarize_spans",
    "validate_events",
    "validate_file",
    "write_report",
]
