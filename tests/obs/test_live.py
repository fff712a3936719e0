"""Tests for live observability (windows, SLOs, summaries).

The fold works on a finished run's completion columns, so most tests here
hand-build a :class:`SimulationResult` row by row; ``test_live_fold.py``
checks the fold against the per-event reference aggregator on real runs.
"""

import json
import pickle

import pytest

from repro.obs import live
from repro.obs.live import (
    DEFAULT_WINDOW_S,
    LiveAggregator,
    SLOSpec,
    merge_live_summaries,
    parse_slo,
)
from repro.obs.sketch import QuantileSketch
from repro.obs.tracer import iter_trace
from repro.obs.validate import validate_events, validate_file
from repro.sim import SimConfig
from repro.sim.statistics import COLUMNS, SimulationResult


def result_of(rows, end):
    """A result ending at ``end`` whose completions are ``rows`` of
    ``(arrival, dispatch, service, is_write)``, in completion order."""
    columns = {name: [] for name, _ in COLUMNS}
    for rid, (arrival, dispatch, service, is_write) in enumerate(rows):
        row = dict.fromkeys(columns, 0)
        row.update(
            arrival=arrival, is_write=is_write, rid=rid, sectors=1,
            dispatch=dispatch, completion=dispatch + service, total=service,
        )
        for name, value in row.items():
            columns[name].append(value)
    return SimulationResult(columns, end_time=end)


def completed_at(times, responses, is_write=False):
    """Rows completing at ``times`` with the given response times, each
    dispatched on arrival."""
    return [
        (t - response, t - response, response, is_write)
        for t, response in zip(times, responses)
    ]


def by_kind(events, kind):
    return [event for event in events if event["kind"] == kind]


class TestSLOSpec:
    def test_defaults(self):
        spec = SLOSpec()
        assert spec.cls == "all"
        assert 0 < spec.objective < 1
        assert spec.window_s == DEFAULT_WINDOW_S

    @pytest.mark.parametrize("bad", [
        dict(objective=0.0), dict(objective=1.0), dict(threshold_s=0.0),
        dict(window_s=0.0), dict(long_windows=0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            SLOSpec(**bad)

    @pytest.mark.parametrize("bad", [
        dict(threshold_s=float("nan")), dict(threshold_s=float("inf")),
        dict(window_s=float("nan")), dict(window_s=float("inf")),
        dict(objective=float("nan")),
    ])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite|objective"):
            SLOSpec(**bad)

    def test_unknown_class_suggests_the_closest(self):
        with pytest.raises(ValueError) as raised:
            SLOSpec(cls="reads")
        message = str(raised.value)
        assert "unknown SLO class 'reads'" in message
        assert "did you mean 'read'?" in message
        assert "all, read, write" in message

    def test_round_trip(self):
        spec = SLOSpec(cls="read", objective=0.95, threshold_s=0.01)
        assert SLOSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown SLOSpec field"):
            SLOSpec.from_dict({"cls": "all", "treshold_s": 0.01})

    def test_label(self):
        assert "p99" in SLOSpec().label()


class TestParseSlo:
    def test_three_fields(self):
        spec = parse_slo("all:p99:0.02")
        assert spec == SLOSpec(
            cls="all", objective=0.99, threshold_s=0.02,
            window_s=DEFAULT_WINDOW_S,
        )

    def test_four_fields(self):
        spec = parse_slo("read:p95:0.01:0.5")
        assert spec.cls == "read"
        assert spec.objective == 0.95
        assert spec.window_s == 0.5

    def test_fractional_quantile(self):
        assert parse_slo("all:p99.9:0.05").objective == pytest.approx(0.999)

    @pytest.mark.parametrize("bad", [
        "p99:0.02", "all:99:0.02", "all:p99:x", "all:p99:0.02:1.0:extra",
        "all:p200:0.02",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_slo(bad)

    @pytest.mark.parametrize("bad", [
        "all:p99:nan", "all:p99:inf", "all:p99:0.01:nan", "all:p99:0.01:inf",
        "all:pnan:0.01", "reads:p99:0.01",
    ])
    def test_rejects_non_finite_and_unknown_class(self, bad):
        with pytest.raises(ValueError):
            parse_slo(bad)


class TestLiveAggregatorWindows:
    def test_synthetic_window_accounting(self):
        """One hand-built request: every obs.window field is exact."""
        result = result_of([(0.1, 0.1, 0.2, False)], end=2.5)
        windows = by_kind(LiveAggregator(window_s=1.0).events(result),
                          "obs.window")
        # Two full windows; the partial [2.0, 2.5) closes only when it saw
        # activity, and here it did not.
        assert [w["window"] for w in windows] == [0, 1]
        first = windows[0]
        assert first["arrivals"] == 1
        assert first["completions"] == 1
        assert first["throughput_iops"] == pytest.approx(1.0)
        assert first["utilization"] == pytest.approx(0.2)
        assert first["response_mean"] == pytest.approx(0.2)
        assert first["queue_depth"] == 0.0
        second = windows[1]
        assert second["arrivals"] == 0
        assert second["completions"] == 0
        assert second["utilization"] == 0.0
        assert LiveAggregator(window_s=1.0).summary(result).windows == 2

    def test_busy_time_spreads_across_windows(self):
        # 0.4s of service straddling the first boundary: 0.8 -> 1.2.
        result = result_of([(0.8, 0.8, 0.4, False)], end=2.0)
        windows = by_kind(LiveAggregator(window_s=1.0).events(result),
                          "obs.window")
        assert windows[0]["utilization"] == pytest.approx(0.2)
        assert windows[1]["utilization"] == pytest.approx(0.2)

    def test_queue_depth_is_time_averaged(self):
        # Two arrivals at 0.0; the second waits 0.5s behind the first.
        result = result_of(
            [(0.0, 0.0, 0.5, False), (0.0, 0.5, 0.5, False)], end=1.0
        )
        (window,) = by_kind(LiveAggregator(window_s=1.0).events(result),
                            "obs.window")
        assert window["queue_depth"] == pytest.approx(0.5)
        assert window["utilization"] == pytest.approx(1.0)
        assert window["response_mean"] == pytest.approx(0.75)

    def test_output_time_monotone_and_events_forwarded(self, tmp_path):
        """A traced live run: the stream events are the untraced-live
        trace's, unchanged, with the window events spliced in order."""
        config = SimConfig(num_requests=400, rate=900.0, warmup=0)
        plain, live = tmp_path / "plain.jsonl", tmp_path / "live.jsonl"
        config.replace(trace_path=str(plain)).run()
        config.replace(
            trace_path=str(live), live_window=0.05,
            slos=(SLOSpec(threshold_s=0.001, window_s=0.1),),
        ).run()
        events = list(iter_trace(str(live)))
        times = [event["t"] for event in events]
        assert times == sorted(times)
        live_kinds = {"obs.window", "slo.violation"}
        assert {event["kind"] for event in events} >= live_kinds
        stream = [event for event in events if event["kind"] not in live_kinds]
        assert stream == list(iter_trace(str(plain)))
        assert events[-1]["kind"] == "sim.end"

    def test_window_completions_sum_to_total(self):
        times = [0.05 * i for i in range(1, 41)]
        result = result_of(completed_at(times, [0.002] * 40), end=2.0)
        aggregator = LiveAggregator(window_s=0.25)
        windows = by_kind(aggregator.events(result), "obs.window")
        assert sum(w["completions"] for w in windows) == 40
        assert sum(w["arrivals"] for w in windows) == 40
        assert aggregator.summary(result).completions == 40
        assert aggregator.summary(result).windows == len(windows) == 8

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            LiveAggregator(window_s=0.0)

    @pytest.mark.parametrize("width", [-1.0, float("nan"), float("inf")])
    def test_non_finite_or_negative_window_rejected(self, width):
        with pytest.raises(ValueError, match="finite and > 0"):
            LiveAggregator(window_s=width)

    def test_summary_cost_ignores_empty_windows(self):
        """A nanosecond grid over a 2 s run: 2e9 windows, counted, not
        walked."""
        result = result_of(completed_at([0.5, 2.0], [0.01, 0.01]), end=2.0)
        summary = LiveAggregator(window_s=1e-9).summary(result)
        assert summary.windows == pytest.approx(2e9, rel=1e-6)

    def test_too_narrow_window_is_an_error(self):
        result = result_of(completed_at([1.0], [0.01]), end=1.0)
        with pytest.raises(ValueError, match="too narrow"):
            LiveAggregator(window_s=1e-300).summary(result)


class TestWindowLimit:
    """``events`` builds at most ``MAX_WINDOWS`` windows; ``summary``
    takes any width."""

    @pytest.fixture
    def result(self):
        # The last completion ends the run, so a width of end / N makes a
        # grid of exactly N windows, the partial one included.
        times = [0.1 * k + 0.05 for k in range(20)] + [2.5]
        return result_of(completed_at(times, [0.01] * len(times)), end=2.5)

    def test_a_grid_of_exactly_the_limit_is_accepted(self, result, monkeypatch):
        monkeypatch.setattr(live, "MAX_WINDOWS", 40)
        events = by_kind(LiveAggregator(window_s=2.5 / 40).events(result),
                         "obs.window")
        assert len(events) == 40

    def test_one_window_more_names_the_narrowest_width(
        self, result, monkeypatch
    ):
        monkeypatch.setattr(live, "MAX_WINDOWS", 40)
        with pytest.raises(ValueError) as error:
            LiveAggregator(window_s=2.5 / 41).events(result)
        message = str(error.value)
        assert message.startswith(
            f"window {2.5 / 41:g}s is too narrow for a run of 2.5s: more "
            f"than 40 windows"
        )
        narrowest = float(message.rsplit("about ", 1)[1].rstrip("s"))
        assert 2.5 / 41 < narrowest < 2.5 / 38
        events = LiveAggregator(window_s=narrowest).events(result)
        assert len(by_kind(events, "obs.window")) <= 40

    @pytest.mark.parametrize("width", [1e-7, 1e-15])
    def test_a_fine_grid_fails_before_building_it(self, result, width):
        # 25 million windows, and 2.5e15: past the 2**53 check too.
        with pytest.raises(ValueError, match="more than 1,000,000 windows"):
            LiveAggregator(window_s=width).events(result)
        assert LiveAggregator(window_s=width).summary(result).completions == 21


class TestSLOTracking:
    def violating_run(self, count=20, response=0.05):
        times = [0.05 + 0.01 * (i + 1) for i in range(count)]
        return result_of(completed_at(times, [response] * count), end=1.5)

    def test_violation_emitted_with_burn_rate(self):
        spec = SLOSpec(cls="all", objective=0.9, threshold_s=0.01,
                       window_s=1.0)
        aggregator = LiveAggregator(window_s=1.0, slos=(spec,))
        violations = by_kind(
            aggregator.events(self.violating_run(response=0.05)),
            "slo.violation",
        )
        assert len(violations) == 1
        violation = violations[0]
        assert violation["class"] == "all"
        assert violation["observed"] > spec.threshold_s
        # Every completion breached: burn = 1.0 / (1 - 0.9) = 10x budget.
        assert violation["burn_rate"] == pytest.approx(10.0)
        assert violation["burn_rate_long"] == pytest.approx(10.0)
        stats = aggregator.summary(self.violating_run()).slo[0]
        assert stats["violations"] == 1
        assert stats["windows"] == 1

    def test_healthy_run_emits_no_violation(self):
        spec = SLOSpec(cls="all", objective=0.9, threshold_s=0.01)
        aggregator = LiveAggregator(window_s=1.0, slos=(spec,))
        run = self.violating_run(response=0.001)
        assert by_kind(aggregator.events(run), "slo.violation") == []
        stats = aggregator.summary(run).slo[0]
        assert stats["violations"] == 0
        assert stats["burn_rate"] == 0.0

    def test_class_filter_only_sees_its_class(self):
        spec = SLOSpec(cls="write", objective=0.5, threshold_s=0.01)
        aggregator = LiveAggregator(window_s=1.0, slos=(spec,))
        run = result_of([(0.1, 0.1, 0.05, False)], end=0.5)
        stats = aggregator.summary(run).slo[0]
        assert stats["completions"] == 0
        assert by_kind(aggregator.events(run), "slo.violation") == []

    def test_long_burn_counts_empty_windows(self):
        """Two violating windows two apart: the long burn of the second
        averages over both (the empty one between adds nothing)."""
        spec = SLOSpec(objective=0.5, threshold_s=0.01, window_s=1.0,
                       long_windows=3)
        rows = completed_at([0.5, 0.6], [0.05, 0.001])
        rows += completed_at([2.5, 2.6], [0.05, 0.05])
        run = result_of(rows, end=2.6)
        violations = by_kind(
            LiveAggregator(window_s=1.0, slos=(spec,)).events(run),
            "slo.violation",
        )
        assert [v["window"] for v in violations] == [0, 2]
        assert violations[1]["burn_rate"] == pytest.approx(2.0)
        assert violations[1]["burn_rate_long"] == pytest.approx(1.5)
        assert violations[1]["t"] == 2.6  # the partial window, at the end


class TestEndToEndWithSimulation:
    def run_config(self, tmp_path, **changes):
        trace = tmp_path / "live.jsonl"
        defaults = dict(
            num_requests=2000, rate=900.0, warmup=0,
            trace_path=str(trace), live_window=0.5,
            slos=(SLOSpec(cls="all", objective=0.95, threshold_s=0.002,
                          window_s=0.5),),
        )
        defaults.update(changes)
        config = SimConfig(**defaults)
        result, summary = config.run_live()
        return config, result, summary, trace

    def test_trace_validates_and_contains_live_events(self, tmp_path):
        _, _, _, trace = self.run_config(tmp_path)
        assert validate_file(str(trace)) == []
        kinds = {event["kind"] for event in iter_trace(str(trace))}
        assert "obs.window" in kinds
        assert "slo.violation" in kinds  # 2ms p95 is comfortably breached
        assert sorted(p.name for p in tmp_path.iterdir()) == ["live.jsonl"]

    def test_summary_matches_exact_result(self, tmp_path):
        _, result, summary, _ = self.run_config(tmp_path)
        assert summary.completions == len(result)
        exact = result.percentiles()
        sketched = summary.sketches["all"].percentiles()
        for key in ("p50", "p95", "p99"):
            assert sketched[key] == pytest.approx(exact[key], rel=0.01)

    def test_summary_pickles(self, tmp_path):
        _, _, summary, _ = self.run_config(tmp_path)
        clone = pickle.loads(pickle.dumps(summary))
        assert clone.to_dict() == summary.to_dict()

    def test_live_without_trace_path(self):
        config = SimConfig(num_requests=500, warmup=0, live_window=1.0)
        assert config.live_enabled
        result, summary = config.run_live()
        assert summary.completions == len(result)
        assert config.replace(live_window=None).run_live()[1] is None

    def test_validate_rejects_drifted_violation(self):
        events = [
            {"kind": "trace.meta", "t": 0.0, "schema": "repro-trace/2"},
            {"kind": "slo.violation", "t": 1.0, "class": "all",
             "objective": 0.99, "threshold": 0.01, "observed": 0.005,
             "burn_rate": 0.0, "window": 0},
        ]
        errors = validate_events(events)
        assert any("does not exceed threshold" in error for error in errors)


class TestMergeLiveSummaries:
    def split_run(self, chunks, window_s=1.0, slos=()):
        """The same stream summarized whole vs in per-shard folds."""
        aggregator = LiveAggregator(window_s=window_s, slos=slos)
        return [aggregator.summary(chunk) for chunk in chunks]

    def completions(self, responses):
        times = [0.1 + 0.01 * (i + 1) for i in range(len(responses))]
        return result_of(completed_at(times, responses), end=1.0)

    def test_merge_equals_union_sketch(self):
        shard_a = self.completions([0.001, 0.002, 0.008, 0.020])
        shard_b = self.completions([0.003, 0.015, 0.001])
        merged = merge_live_summaries(self.split_run([shard_a, shard_b]))
        union = QuantileSketch()
        union.extend(shard_a.response_times + shard_b.response_times)
        assert merged.sketches["all"].to_dict() == union.to_dict()
        assert merged.completions == 7

    def test_merge_order_invariant_bytes(self):
        summaries = self.split_run([
            self.completions([0.001, 0.004]),
            self.completions([0.009]),
            self.completions([0.002, 0.030]),
        ])
        forward = merge_live_summaries(summaries)
        backward = merge_live_summaries(list(reversed(summaries)))
        assert (
            json.dumps(forward.to_dict(), sort_keys=True)
            == json.dumps(backward.to_dict(), sort_keys=True)
        )

    def test_slo_stats_sum(self):
        spec = SLOSpec(cls="all", objective=0.5, threshold_s=0.005)
        summaries = self.split_run(
            [
                self.completions([0.001, 0.010]),
                self.completions([0.020, 0.030]),
            ],
            slos=(spec,),
        )
        merged = merge_live_summaries(summaries)
        stats = merged.slo[0]
        assert stats["completions"] == 4
        assert stats["bad"] == 3
        assert stats["burn_rate"] == pytest.approx((3 / 4) / 0.5)

    def test_none_members_skipped(self):
        summaries = self.split_run([self.completions([0.001])])
        assert merge_live_summaries([None] + summaries + [None]) is not None
        assert merge_live_summaries([None, None]) is None
        assert merge_live_summaries([]) is None
