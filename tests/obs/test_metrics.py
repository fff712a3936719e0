"""Unit tests for the run metrics registry (repro.obs.metrics)."""

import pathlib
import random

import pytest

from repro.obs.metrics import ACCESS_PHASES, MetricsRegistry, percentile
from repro.sim import SimConfig, SimulationResult
from repro.sim.statistics import COLUMNS


def result_of(responses, end_time=1.0):
    """A result whose requests arrive and dispatch at 0 and take
    ``responses[i]`` seconds of service, so response == service."""
    count = len(responses)
    columns = {name: [0] * count for name, _ in COLUMNS}
    columns["rid"] = list(range(count))
    columns["completion"] = list(responses)
    columns["total"] = list(responses)
    columns["seek_x"] = list(responses)
    return SimulationResult(columns if count else None, end_time=end_time)


def histogram(values, name="response_time_s"):
    return MetricsRegistry.from_result(result_of(values)).histograms[name]


class TestCounter:
    def test_inc(self):
        # A counter is its column added up left to right, one float add per
        # completion (not a compensated or pairwise sum).
        values = [0.1] * 10
        registry = MetricsRegistry.from_result(result_of(values))
        total = 0.0
        for value in values:
            total += value
        assert registry.counters["phase.seek_x_s"] == total
        assert total != 1.0  # fsum and Python 3.12's sum() give 1.0
        assert registry.counters["requests"] == 10


class TestHistogram:
    def test_exact_percentile_matches_sorted_interpolation(self):
        rng = random.Random(7)
        values = [rng.random() for _ in range(500)]
        row = histogram(values)
        ordered = sorted(values)
        # p50 with 500 samples: rank 0.5*499 = 249.5 -> midpoint
        expected = ordered[249] * 0.5 + ordered[250] * 0.5
        assert row["p50"] == expected
        assert row["p99"] == percentile(ordered, 99)
        assert row["max"] == max(values)

    def test_min_max_mean_count(self):
        row = histogram([3.0, 1.0, 2.0])
        assert row["count"] == 3
        assert row["min"] == 1.0
        assert row["max"] == 3.0
        assert row["mean"] == 2.0

    def test_empty_histogram_raises(self):
        # The one percentile raises on no values; the registry of an empty
        # run holds count-0 rows and renders them "(empty)".
        with pytest.raises(ValueError, match="no values"):
            percentile([], 50)
        registry = MetricsRegistry.from_result(result_of([]))
        assert registry.histograms["response_time_s"] == {"count": 0}
        assert "response_time_s              (empty)" in registry.render_text()

    def test_bad_percentile(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_to_dict(self):
        summary = MetricsRegistry.from_result(result_of([1.0])).to_dict()
        row = summary["histograms"]["response_time_s"]
        assert row["count"] == 1
        assert row["p50"] == 1.0
        assert summary["gauges"]["utilization"] == 1.0


class TestMetricsRegistry:
    def test_from_result_matches_result_percentiles(self):
        result = SimConfig(rate=500.0, num_requests=400, warmup=50).run()
        row = MetricsRegistry.from_result(result).histograms["response_time_s"]
        for pct in (50, 95, 99):
            assert row[f"p{pct}"] == result.response_time_percentile(pct)
        assert row["max"] == result.max_response_time
        assert row["count"] == len(result)

    def test_from_result_phase_totals(self):
        result = SimConfig(rate=500.0, num_requests=200).run()
        registry = MetricsRegistry.from_result(result)
        for phase in ACCESS_PHASES:
            total = sum(getattr(r.access, phase) for r in result.records)
            assert registry.counters[f"phase.{phase}_s"] == pytest.approx(
                total, rel=1e-12
            )
        assert registry.counters["requests"] == len(result.records)
        assert registry.gauges["utilization"] == result.utilization

    def test_render_text(self):
        result = SimConfig(rate=500.0, num_requests=200).run()
        text = MetricsRegistry.from_result(result).render_text(title="run")
        assert "=== run ===" in text
        assert "response_time_s" in text
        assert "phase.seek_x_s" in text
        assert "p95" in text


GOLDEN_METRICS = {
    "metrics-simulate-mems.txt": (
        "simulate", "--device", "mems", "--scheduler", "SPTF",
        "--rate", "1000", "--requests", "3000", "--seed", "7", "--metrics",
    ),
    "metrics-simulate-atlas10k.txt": (
        "simulate", "--device", "atlas10k", "--scheduler", "C-LOOK",
        "--rate", "150", "--requests", "2000", "--seed", "7", "--metrics",
    ),
    "metrics-fleet.txt": (
        "fleet", "--members", "4", "--rate", "3200", "--requests", "2000",
        "--seed", "7", "--jobs", "1", "--metrics",
    ),
}
"""Committed CLI output -> the command that printed it.  The files were
written by the reservoir-histogram registry this one replaced; the text
must not move by a byte."""


@pytest.mark.parametrize("name", sorted(GOLDEN_METRICS))
def test_cli_metrics_text_is_golden(name, capsys):
    from repro.__main__ import main

    assert main(list(GOLDEN_METRICS[name])) == 0
    golden = pathlib.Path(__file__).parent / "fixtures" / name
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
