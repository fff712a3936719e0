"""Counters and histograms over simulation runs.

:class:`MetricsRegistry` is the aggregation layer on top of the event
stream (:mod:`repro.obs.tracer`): counters for monotonic totals, gauges for
point-in-time scalars, and reservoir-sampled histograms for latency
distributions (p50/p95/p99 and friends).

Two ways to fill one:

* **offline** — :meth:`MetricsRegistry.from_result` folds a completed
  :class:`~repro.sim.statistics.SimulationResult` into a registry; its
  percentiles match ``SimulationResult.percentiles`` exactly whenever the
  run fits the histogram reservoir (default 65 536 samples);
* **online** — attach a :class:`MetricsTracer` to a simulation and the
  registry fills as events stream, including scheduler cache hit/miss
  counters and queue-depth samples that a ``SimulationResult`` cannot
  reconstruct after the fact.

Render with :meth:`MetricsRegistry.render_text` (aligned report for a
terminal) or :meth:`MetricsRegistry.to_dict` (machine-readable JSON, written
next to figure outputs by the experiment runner's ``--report``).
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.statistics import SimulationResult

DEFAULT_RESERVOIR = 65_536
"""Default histogram reservoir size.

Large enough that every experiment in this repository keeps *exact*
percentiles; beyond it the histogram degrades gracefully to uniform
reservoir sampling (Vitter's algorithm R) with a seeded RNG, so even
approximate percentiles are deterministic run-to-run.
"""

ACCESS_PHASES = (
    "seek_x",
    "seek_y",
    "settle",
    "rotational_latency",
    "transfer",
    "turnarounds",
)


def percentile(ordered: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of sorted values (0 < pct <= 100).

    The package's one percentile convention: ``SimulationResult``,
    :class:`Histogram` and the trace analysis all interpolate here.
    """
    if not 0 < pct <= 100:
        raise ValueError(f"percentile out of range: {pct}")
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


class Counter:
    """A monotonically-increasing total (float, so it can carry seconds)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


class Histogram:
    """Reservoir-sampled value distribution with exact count/sum/min/max.

    Percentiles use :func:`percentile`, like
    ``SimulationResult.response_time_percentile``, so the two agree exactly
    while the sample count is within the reservoir.
    """

    __slots__ = (
        "name",
        "count",
        "total",
        "min",
        "max",
        "_reservoir",
        "_rng",
        "_capacity",
    )

    def __init__(
        self,
        name: str,
        reservoir: int = DEFAULT_RESERVOIR,
        seed: int = 2000,
    ) -> None:
        if reservoir < 1:
            raise ValueError(f"histogram {name}: reservoir must be >= 1")
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: List[float] = []
        self._rng = random.Random(seed)
        self._capacity = reservoir

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"histogram {self.name}: no samples")
        return self.total / self.count

    @property
    def exact(self) -> bool:
        """True while no sample has been dropped from the reservoir."""
        return self.count <= self._capacity

    def percentile(self, pct: float) -> float:
        """Linear-interpolated percentile (0 < pct <= 100)."""
        if not self._reservoir:
            raise ValueError(f"histogram {self.name}: no samples")
        return percentile(sorted(self._reservoir), pct)

    def percentiles(self, *pcts: float) -> Dict[str, float]:
        return {f"p{pct:g}": self.percentile(pct) for pct in pcts}

    def to_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0}
        summary = {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "exact": self.exact,
        }
        summary.update(self.percentiles(50, 95, 99))
        return summary


class MetricsRegistry:
    """Named counters, gauges, and histograms for one simulation run."""

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        self._reservoir = reservoir
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- access (create-on-first-use) -------------------------------------- #

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(
                name, reservoir=self._reservoir
            )
        return histogram

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    # -- construction from a completed run --------------------------------- #

    @classmethod
    def from_result(
        cls,
        result: "SimulationResult",
        reservoir: Optional[int] = None,
    ) -> "MetricsRegistry":
        """Fold a completed run's columns into a registry.

        The reservoir defaults to the completion count, so percentiles from
        the returned registry always match ``result.percentiles`` exactly.
        Every histogram and counter sees its values in completion order.
        """
        count = len(result)
        registry = cls(
            reservoir=reservoir if reservoir is not None else max(1, count)
        )
        registry.counter("requests").inc(count)
        for name, values in (
            ("response_time_s", result.response_times),
            ("queue_time_s", result.queue_times),
            ("service_time_s", result.service_times),
        ):
            observe = registry.histogram(name).observe
            for value in values:
                observe(value)
        for phase in ACCESS_PHASES:
            inc = registry.counter(f"phase.{phase}_s").inc
            for value in result.columns[phase].tolist():
                inc(value)
        if result.end_time > 0:
            registry.set_gauge("end_time_s", result.end_time)
            if count:
                registry.set_gauge("throughput_rps", result.throughput)
                registry.set_gauge("utilization", result.utilization)
        return registry

    # -- rendering ---------------------------------------------------------- #

    def to_dict(self) -> dict:
        return {
            "counters": {
                name: counter.value for name, counter in self.counters.items()
            },
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.to_dict()
                for name, histogram in self.histograms.items()
            },
        }

    def render_text(self, title: str = "metrics") -> str:
        """Aligned plain-text report (the CLI's ``--metrics`` output)."""
        lines = [f"=== {title} ==="]
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                value = self.counters[name].value
                text = f"{value:.6f}".rstrip("0").rstrip(".")
                lines.append(f"  {name:<28s} {text}")
        if self.gauges:
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name:<28s} {self.gauges[name]:.6g}")
        if self.histograms:
            lines.append(
                "histograms:                    count      mean       p50"
                "       p95       p99       max"
            )
            for name in sorted(self.histograms):
                histogram = self.histograms[name]
                if histogram.count == 0:
                    lines.append(f"  {name:<28s} (empty)")
                    continue
                row = histogram.to_dict()
                lines.append(
                    f"  {name:<28s} {row['count']:>6d} "
                    f"{_ms(row['mean'])} {_ms(row['p50'])} "
                    f"{_ms(row['p95'])} {_ms(row['p99'])} {_ms(row['max'])}"
                    + ("" if row["exact"] else "  ~sampled")
                )
        return "\n".join(lines)


def _ms(seconds: float) -> str:
    """Render a duration in milliseconds, aligned to 9 characters."""
    return f"{seconds * 1e3:>9.3f}"


class MetricsTracer:
    """A tracer sink that folds the event stream into a registry online.

    Captures what post-hoc aggregation cannot: queue-depth samples at
    arrival/dispatch and the scheduler's cumulative estimate-cache counters
    (taken from the final ``sched.dispatch`` event).
    """

    enabled = True

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def emit(self, event: dict) -> None:
        registry = self.registry
        kind = event["kind"]
        if kind == "sim.arrival":
            registry.counter("arrivals").inc()
            registry.histogram("queue_depth").observe(event["queue_depth"])
        elif kind == "sim.dispatch":
            registry.counter("dispatches").inc()
            registry.histogram("time_in_queue_s").observe(event["wait"])
        elif kind == "sim.complete":
            registry.counter("completions").inc()
            registry.histogram("response_time_s").observe(event["response"])
            registry.histogram("service_time_s").observe(event["service"])
        elif kind == "dev.access":
            for phase in ACCESS_PHASES:
                registry.counter(f"phase.{phase}_s").inc(event[phase])
            registry.counter("device_busy_s").inc(event["total"])
        elif kind == "sched.dispatch":
            if "candidates_priced" in event:
                # Per-dispatch pruning split: accumulate so the final
                # priced/(priced+pruned) ratio summarizes the whole run.
                registry.counter("sched.candidates_priced").inc(
                    event["candidates_priced"]
                )
                registry.counter("sched.candidates_pruned").inc(
                    event["candidates_pruned"]
                )
            fast_path = event.get("fast_path")
            if fast_path is not None:
                # Per-path dispatch counts: how often SPTF scanned and how
                # often it priced best-first over the run.
                registry.counter(f"sched.fast_path.{fast_path}").inc()
        elif kind == "sim.end":
            end_time = event["t"]
            registry.set_gauge("end_time_s", end_time)
            if end_time > 0:
                registry.set_gauge(
                    "utilization",
                    registry.counter("device_busy_s").value / end_time,
                )
                registry.set_gauge(
                    "throughput_rps",
                    registry.counter("completions").value / end_time,
                )

    def close(self) -> None:
        pass

    def __enter__(self) -> "MetricsTracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def replay_metrics(events: Sequence[dict]) -> MetricsRegistry:
    """Build a registry from an already-recorded event sequence (e.g. a
    trace file loaded with :func:`repro.obs.tracer.read_trace`)."""
    sink = MetricsTracer()
    for event in events:
        sink.emit(event)
    return sink.registry
