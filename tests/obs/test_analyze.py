"""Trace analysis: the run read back from its trace, and the analyze CLI.

The analysis rebuilds the run's result columns from the trace, so its
summaries are the run's own.  The time series must *conserve*:
per-window completions sum to the run's completion count, and per-window
busy seconds sum to the run's total service time — the windowing only
redistributes, never loses.
"""

import json
import math
import time

import pytest

from repro.obs.analyze import (
    DEFAULT_BUCKET_S,
    analyze_events,
    analyze_trace,
    main,
    render_text,
)
from repro.obs.metrics import percentile
from repro.obs.tracer import RingBufferTracer
from repro.sim import SimConfig


@pytest.fixture(scope="module")
def traced_run():
    ring = RingBufferTracer()
    config = SimConfig(
        device="mems", scheduler="SPTF", rate=700.0, num_requests=800, seed=4
    )
    result = config.run(tracer=ring)
    return ring.events, result


@pytest.fixture(scope="module")
def analysis(traced_run):
    events, _ = traced_run
    return analyze_events(iter(events))


def bucket_widths(series):
    """Window ``k`` covers ``(k*W, (k+1)*W]``, the last one up to the end."""
    width = series.bucket_s
    return [
        min(width, series.end_time - index * width)
        for index in range(len(series))
    ]


def window_of(t, width):
    """The first window ``k`` whose boundary ``(k + 1) * width`` is >= t."""
    index = max(0, math.ceil(t / width) - 1)
    while (index + 1) * width < t:
        index += 1
    while index and index * width >= t:
        index -= 1
    return index


def run_response_line(result):
    """The response line ``render_text`` prints for ``result``'s digits."""
    pcts = result.percentiles()
    return (
        f"response (ms): mean {result.mean_response_time * 1e3:.3f}, "
        f"p50 {pcts['p50'] * 1e3:.3f}, p95 {pcts['p95'] * 1e3:.3f}, "
        f"p99 {pcts['p99'] * 1e3:.3f}, "
        f"max {result.max_response_time * 1e3:.3f}"
    )


class TestConservation:
    def test_completions_sum_to_run_total(self, traced_run, analysis):
        _, result = traced_run
        assert sum(analysis.timeseries.completions) == len(result)
        assert analysis.completed == len(result)
        assert len(analysis.result) == len(result)

    def test_busy_seconds_sum_to_total_service(self, traced_run, analysis):
        _, result = traced_run
        series = analysis.timeseries
        busy = math.fsum(
            u * w for u, w in zip(series.utilization, bucket_widths(series))
        )
        total_service = math.fsum(
            record.service_time for record in result.records
        )
        assert math.isclose(busy, total_service, rel_tol=1e-9)

    def test_throughput_is_completions_over_width(self, analysis):
        series = analysis.timeseries
        for iops, count, width in zip(
            series.throughput_iops, series.completions, bucket_widths(series)
        ):
            if width > 0:
                assert math.isclose(iops, count / width, rel_tol=1e-12)

    def test_bucket_responses_match_direct_computation(
        self, traced_run, analysis
    ):
        events, _ = traced_run
        series = analysis.timeseries
        by_bucket = {}
        for event in events:
            if event["kind"] == "sim.complete":
                bucket = window_of(event["t"], series.bucket_s)
                by_bucket.setdefault(bucket, []).append(event["response"])
        assert set(by_bucket) <= set(range(len(series)))
        for index in range(len(series)):
            responses = by_bucket.get(index)
            if responses is None:
                assert series.response_mean[index] is None
                assert series.response_p95[index] is None
            else:
                assert math.isclose(
                    series.response_mean[index],
                    math.fsum(responses) / len(responses),
                    rel_tol=1e-12,
                )
                assert series.response_p95[index] == percentile(
                    sorted(responses), 95
                )

    def test_queue_depth_time_weighted_mean(self, traced_run, analysis):
        """Independent replay of the depth step function, whole-run mean."""
        events, _ = traced_run
        series = analysis.timeseries
        depth = 0
        since = 0.0
        integral = 0.0
        for event in events:
            if event["kind"] == "sim.arrival":
                integral += depth * (event["t"] - since)
                depth, since = event["queue_depth"], event["t"]
            elif event["kind"] == "sim.dispatch":
                integral += depth * (event["t"] - since)
                depth, since = event["queue_depth"] - 1, event["t"]
        integral += depth * (series.end_time - since)
        bucketed = math.fsum(
            q * w for q, w in zip(series.queue_depth, bucket_widths(series))
        )
        assert math.isclose(bucketed, integral, rel_tol=1e-9)

    def test_cylinder_carries_forward(self, analysis):
        series = analysis.timeseries
        seen = False
        for value in series.cylinder:
            if value is not None:
                seen = True
            elif seen:
                pytest.fail("cylinder went back to None after first access")
        assert seen

    def test_percentiles_match_result(self, traced_run, analysis):
        _, result = traced_run
        rebuilt = analysis.result
        assert rebuilt.percentiles() == result.percentiles()
        assert rebuilt.mean_response_time == result.mean_response_time
        assert rebuilt.max_response_time == result.max_response_time

    def test_dispatch_stats_account_for_candidates(self, analysis):
        stats = analysis.dispatch["SPTF"]
        assert stats.dispatches == 800
        assert (
            stats.candidates_priced + stats.candidates_pruned
            == stats.candidates
        )

    def test_not_sampled_and_no_pending(self, analysis):
        assert analysis.sampled is False
        assert analysis.spans_pending == 0
        assert analysis.requests == 800

    def test_render_text_mentions_the_essentials(self, traced_run, analysis):
        _, result = traced_run
        text = render_text(analysis, source="run.jsonl")
        assert "spans: 800" in text
        assert run_response_line(result) in text.splitlines()
        assert "scheduler SPTF" in text
        assert "[sampled]" not in text


class TestBucketing:
    def test_rejects_non_positive_bucket(self):
        with pytest.raises(ValueError, match="bucket_s"):
            analyze_events(iter(()), bucket_s=0.0)

    def test_bucket_width_changes_bucket_count(self, traced_run):
        events, _ = traced_run
        coarse = analyze_events(iter(events), bucket_s=1.0).timeseries
        fine = analyze_events(iter(events), bucket_s=0.05).timeseries
        assert len(fine) > len(coarse) >= 1
        assert sum(fine.completions) == sum(coarse.completions)

    def test_empty_stream_yields_no_buckets(self):
        # A run that never advanced closes no window.
        analysis = analyze_events(iter(()))
        assert len(analysis.timeseries) == 0
        assert len(analysis.result) == 0
        with pytest.raises(ValueError, match="no completed requests"):
            analysis.attribution()


class TestAnalyzeCLI:
    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("traces") / "run.jsonl.gz"
        SimConfig(
            rate=600.0, num_requests=300, seed=8, trace_path=str(path)
        ).run()
        return str(path)

    def test_default_text_summary(self, trace_path, capsys):
        assert main([trace_path]) == 0
        out = capsys.readouterr().out
        assert "trace analysis" in out
        assert "spans: 300" in out

    def test_spans_jsonl(self, trace_path, capsys):
        assert main([trace_path, "--spans"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 300
        first = json.loads(lines[0])
        assert {"rid", "queue", "service", "response"} <= set(first)

    def test_timeseries_json(self, trace_path, capsys):
        assert main([trace_path, "--timeseries", "--bucket", "50"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bucket_s"] == 0.05
        assert sum(payload["completions"]) == 300

    def test_report_output(self, trace_path, tmp_path, capsys):
        out = tmp_path / "run.html"
        assert main([trace_path, "--report", str(out)]) == 0
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "latency attribution" in html

    def test_missing_file_exits_1(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_bucket_exits_2(self, trace_path):
        with pytest.raises(SystemExit) as exc:
            main([trace_path, "--bucket", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("width", ["nan", "inf", "-inf"])
    def test_non_finite_bucket_is_a_usage_error(self, trace_path, width,
                                                capsys):
        with pytest.raises(SystemExit) as exc:
            main([trace_path, "--timeseries", f"--bucket={width}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert errors == [
            f"python -m repro.obs.analyze: error: --bucket must be finite "
            f"and > 0: {float(width) / 1e3}"
        ]

    def test_too_fine_a_bucket_is_one_error_line(self, trace_path, capsys):
        # 0.1 us over a 0.5 s run: about five million windows, refused
        # before any is built.
        start = time.perf_counter()
        assert main([trace_path, "--bucket", "0.0001"]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: window 1e-07s is too narrow for a run")

    def test_analyze_trace_matches_in_memory(self, trace_path):
        from_file = analyze_trace(trace_path, bucket_s=DEFAULT_BUCKET_S)
        assert len(from_file.result) == 300
        assert from_file.meta["schema"] == "repro-trace/2"


class TestLongTrace:
    def test_analysis_is_the_run_past_65536_completions(self, tmp_path):
        """A 70,000-completion trace reads back into the run's own digits:
        the percentiles are over every completion, not a sample."""
        path = tmp_path / "long.jsonl"
        result = SimConfig(
            device="mems", scheduler="FCFS", rate=300.0,
            num_requests=70_000, warmup=0, trace_path=str(path),
        ).run()
        analysis = analyze_trace(str(path))
        path.unlink()  # 60 MB
        rebuilt = analysis.result
        assert len(rebuilt) == len(result) == 70_000
        assert rebuilt.mean_response_time == result.mean_response_time
        assert rebuilt.percentiles() == result.percentiles()
        assert rebuilt.max_response_time == result.max_response_time
        lines = render_text(analysis).splitlines()
        assert run_response_line(result) in lines
