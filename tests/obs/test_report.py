"""Report rendering: determinism, both formats, sparklines."""

import pytest

from repro.obs.analyze import analyze_events
from repro.obs.report import (
    Document,
    SPARK_WIDTH,
    fmt,
    fmt_ms,
    format_for_path,
    render_report,
    render_runner_report,
    sparkline,
    write_report,
)
from repro.obs.tracer import RingBufferTracer
from repro.sim import SimConfig


def run_events(seed=21, rate=650.0, num_requests=250):
    ring = RingBufferTracer()
    SimConfig(rate=rate, num_requests=num_requests, seed=seed).run(tracer=ring)
    return ring.events


@pytest.fixture(scope="module")
def analysis():
    return analyze_events(iter(run_events()))


class TestDeterminism:
    def test_same_seed_runs_render_identical_bytes(self):
        first = analyze_events(iter(run_events()))
        second = analyze_events(iter(run_events()))
        for fmt_name in ("html", "md"):
            assert render_report(first, fmt_name) == render_report(
                second, fmt_name
            )

    def test_different_seeds_render_differently(self, analysis):
        other = analyze_events(iter(run_events(seed=22)))
        assert render_report(analysis, "md") != render_report(other, "md")


class TestFormats:
    def test_html_is_self_contained(self, analysis):
        html = render_report(analysis, "html", source="run.jsonl")
        assert html.startswith("<!DOCTYPE html>")
        assert "<style>" in html
        assert "http://" not in html and "https://" not in html
        assert "run.jsonl" in html

    def test_markdown_has_tables_and_sparks(self, analysis):
        md = render_report(analysis, "md", source="run.jsonl")
        assert "| component | mean (ms) | share of response |" in md
        assert "**queue depth**" in md

    def test_unknown_format_rejected(self, analysis):
        with pytest.raises(ValueError, match="unknown report format"):
            render_report(analysis, "pdf")

    @pytest.mark.parametrize(
        "path,expected",
        [
            ("out.html", "html"),
            ("OUT.HTM", "html"),
            ("notes.md", "md"),
            ("notes.markdown", "md"),
        ],
    )
    def test_format_for_path(self, path, expected):
        assert format_for_path(path) == expected

    def test_format_for_path_rejects_unknown(self):
        with pytest.raises(ValueError, match="cannot infer"):
            format_for_path("report.txt")

    def test_write_report_roundtrip(self, analysis, tmp_path):
        out = tmp_path / "run.md"
        write_report(analysis, str(out), source="run.jsonl")
        assert out.read_text(encoding="utf-8") == render_report(
            analysis, "md", source="run.jsonl"
        )


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_low_bar(self):
        assert sparkline([2.0, 2.0, 2.0]) == "▁▁▁"

    def test_scales_min_to_max(self):
        line = sparkline([0.0, 1.0])
        assert line == "▁█"

    def test_none_renders_gap(self):
        assert sparkline([0.0, None, 1.0]) == "▁·█"

    def test_downsamples_to_width(self):
        line = sparkline(list(range(1000)))
        assert len(line) == SPARK_WIDTH
        assert line[0] == "▁" and line[-1] == "█"

    def test_all_none(self):
        assert sparkline([None, None]) == "··"


class TestFormatters:
    def test_fmt(self):
        assert fmt(None) == "—"
        assert fmt(True) == "yes"
        assert fmt(False) == "no"
        assert fmt(3) == "3"
        assert fmt(0.123456789) == "0.123457"

    def test_fmt_ms(self):
        assert fmt_ms(None) == "—"
        assert fmt_ms(0.0012345) == "1.2345"


class TestDocument:
    def test_html_escapes(self):
        doc = Document("a <b> title")
        doc.para("x < y & z")
        html = doc.to_html()
        assert "a &lt;b&gt; title" in html
        assert "x &lt; y &amp; z" in html

    def test_runner_report_renders(self):
        report = {
            "schema": "repro-report/1",
            "jobs": 2,
            "total_s": 1.5,
            "experiments": [{"name": "figure06", "duration_s": 1.5}],
        }
        md = render_runner_report(report, "md")
        assert "figure06" in md and "1.5" in md
        html = render_runner_report(report, "html")
        assert html.startswith("<!DOCTYPE html>")
