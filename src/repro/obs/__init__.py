"""repro.obs — observability for the simulation stack.

Event tracing (:mod:`repro.obs.tracer`), run metrics
(:mod:`repro.obs.metrics`), and trace analysis — per-request spans
(:mod:`repro.obs.spans`) read back into the run's result columns,
windowed time-series and reports (:mod:`repro.obs.analyze`,
:mod:`repro.obs.report`) — over
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

Names resolve on first access (PEP 562): importing ``repro.obs`` loads no
submodule, and importing one loads only what that one uses.
"""

import importlib

_EXPORTS = {
    "repro.obs.analyze": (
        "DispatchStats",
        "TimeSeries",
        "TraceAnalysis",
        "analyze_events",
        "analyze_trace",
    ),
    "repro.obs.live": (
        "DEFAULT_WINDOW_S",
        "LiveAggregator",
        "LiveSummary",
        "SLOSpec",
        "merge_live_summaries",
        "parse_slo",
    ),
    "repro.obs.metrics": ("ACCESS_PHASES", "MetricsRegistry"),
    "repro.obs.report": ("render_report", "write_report"),
    "repro.obs.spans": ("Span", "SpanBuilder", "SpanError", "iter_spans"),
    "repro.obs.tracer": (
        "EVENT_FIELDS",
        "JsonlTracer",
        "NULL_TRACER",
        "NullTracer",
        "RingBufferTracer",
        "SamplingTracer",
        "TeeTracer",
        "TRACE_SCHEMA",
        "Tracer",
        "iter_trace",
        "iter_trace_lines",
        "read_trace",
    ),
    "repro.obs.prof": ("ProfileReport", "SimProfiler", "is_instrumented"),
    "repro.obs.sketch": ("DEFAULT_ALPHA", "QuantileSketch"),
    "repro.obs.validate": ("diff_traces", "validate_events", "validate_file"),
}
"""Module → the public names it supplies."""

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
