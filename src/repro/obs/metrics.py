"""Totals, gauges and exact distributions of a finished run.

:class:`MetricsRegistry.from_result` reduces a completed
:class:`~repro.sim.statistics.SimulationResult` to plain values: counters
(the request count and the per-phase service totals, each summed left to
right in completion order), gauges (end time, throughput, utilization) and
one distribution row per time column (count, mean, min, the exact
p50/p95/p99 and max of that column, sorted once).  Render it with
:meth:`MetricsRegistry.render_text` (the CLI's ``--metrics`` report) or
:meth:`MetricsRegistry.to_dict` (JSON-ready).

:func:`percentile` is the package's one percentile convention.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.statistics import SimulationResult

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

    The package's one percentile convention: ``SimulationResult``, the
    metrics registry and the trace analysis all interpolate here.
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


def _running_sum(values: List[float]) -> float:
    """``values`` added left to right with plain float additions."""
    total = 0.0
    for value in values:
        total += value
    return total


def _distribution(values: List[float]) -> Dict[str, float]:
    """One histogram row: count, mean, min, max and p50/p95/p99."""
    if not values:
        return {"count": 0}
    ordered = sorted(values)
    row: Dict[str, float] = {
        "count": len(values),
        "mean": _running_sum(values) / len(values),
        "min": ordered[0],
        "max": ordered[-1],
    }
    for pct in (50, 95, 99):
        row[f"p{pct}"] = percentile(ordered, pct)
    return row


class MetricsRegistry:
    """Named counters, gauges and histogram rows of one run, as plain
    values (build one with :meth:`from_result`)."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict[str, float]] = {}

    @classmethod
    def from_result(cls, result: "SimulationResult") -> "MetricsRegistry":
        """Reduce a completed run's columns to a registry.

        Every histogram row's percentiles are exact: :func:`percentile`
        over the whole sorted column, so they equal ``result.percentiles``.
        """
        registry = cls()
        count = len(result)
        registry.counters["requests"] = float(count)
        for name, values in (
            ("response_time_s", result.response_times),
            ("queue_time_s", result.queue_times),
            ("service_time_s", result.service_times),
        ):
            registry.histograms[name] = _distribution(values)
        for phase in ACCESS_PHASES:
            registry.counters[f"phase.{phase}_s"] = _running_sum(
                result.columns[phase].tolist()
            )
        if result.end_time > 0:
            registry.gauges["end_time_s"] = result.end_time
            if count:
                registry.gauges["throughput_rps"] = result.throughput
                registry.gauges["utilization"] = result.utilization
        return registry

    # -- rendering ---------------------------------------------------------- #

    def to_dict(self) -> dict:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: dict(row) for name, row in self.histograms.items()
            },
        }

    def render_text(self, title: str = "metrics") -> str:
        """Aligned plain-text report (the CLI's ``--metrics`` output)."""
        lines = [f"=== {title} ==="]
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                text = f"{self.counters[name]:.6f}".rstrip("0").rstrip(".")
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
                row = self.histograms[name]
                if row["count"] == 0:
                    lines.append(f"  {name:<28s} (empty)")
                    continue
                lines.append(
                    f"  {name:<28s} {row['count']:>6d} "
                    f"{_ms(row['mean'])} {_ms(row['p50'])} "
                    f"{_ms(row['p95'])} {_ms(row['p99'])} {_ms(row['max'])}"
                )
        return "\n".join(lines)


def _ms(seconds: float) -> str:
    """Render a duration in milliseconds, aligned to 9 characters."""
    return f"{seconds * 1e3:>9.3f}"
