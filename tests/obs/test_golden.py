"""Golden-trace fixtures: regeneration, reconciliation, report bytes.

The fixtures under ``tests/obs/fixtures/`` are committed artifacts of
small deterministic runs (see ``fixtures/regen.py``).  Three properties
are pinned here:

* regenerating each trace produces **byte-identical** gzipped files (the
  simulator is deterministic and the gzip header carries no wall-clock);
* the spans folded from each fixture reconcile with a fresh run of the
  same config to 1e-9, and the time-series buckets conserve their sums;
* rendering the analysis reports reproduces the committed report bytes.
"""

import importlib.util
import math
import pathlib

import pytest

from repro.obs.analyze import analyze_trace
from repro.obs.report import format_for_path, render_report
from repro.obs.spans import iter_spans, reconcile
from repro.obs.tracer import iter_trace
from repro.sim import SimConfig

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"

_spec = importlib.util.spec_from_file_location(
    "obs_fixture_regen", FIXTURE_DIR / "regen.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


@pytest.mark.parametrize("name", sorted(regen.SPECS))
class TestTraceFixtures:
    def test_regeneration_is_byte_identical(self, name, tmp_path):
        fresh = tmp_path / name  # same basename: same gzip FNAME field
        SimConfig(trace_path=str(fresh), **regen.SPECS[name]).run()
        assert fresh.read_bytes() == (FIXTURE_DIR / name).read_bytes(), (
            f"{name} drifted — if the schema/numerics changed on purpose, "
            f"rerun tests/obs/fixtures/regen.py and commit"
        )

    def test_spans_reconcile_with_rerun(self, name):
        result = SimConfig(**regen.SPECS[name]).run()
        spans = list(iter_spans(iter_trace(str(FIXTURE_DIR / name))))
        assert len(spans) == len(result)
        reconcile(spans, result.mean_response_time, tolerance=1e-9)

    def test_bucket_sums_conserve(self, name):
        analysis = analyze_trace(str(FIXTURE_DIR / name))
        series = analysis.timeseries
        assert sum(series.completions) == analysis.completed
        widths = [
            min(series.bucket_s, series.end_time - index * series.bucket_s)
            for index in range(len(series))
        ]
        busy = math.fsum(
            u * w for u, w in zip(series.utilization, widths)
        )
        assert math.isclose(
            busy, math.fsum(analysis.result.service_times), rel_tol=1e-9
        )


@pytest.mark.parametrize("name", regen.REPORTS)
def test_report_bytes_are_golden(name):
    analysis = analyze_trace(str(FIXTURE_DIR / regen.REPORT_SOURCE))
    rendered = render_report(
        analysis, format_for_path(name), source=regen.REPORT_SOURCE
    )
    committed = (FIXTURE_DIR / name).read_text(encoding="utf-8")
    assert rendered == committed, (
        f"{name} drifted — if the report layout changed on purpose, rerun "
        f"tests/obs/fixtures/regen.py and commit"
    )
