"""The columnar live fold against the per-event reference aggregator.

:class:`repro.obs.live.LiveAggregator` folds a finished run's completion
columns; ``live_reference.StreamingLiveAggregator`` folded the event stream
as the run went.  On any run both must produce the same summary JSON bytes
and the same trace file bytes.  The rest of the file pins what the fold
buys and what a bad input does: a summary-only run never turns tracing
on, a window narrower than the event spacing costs nothing extra, a
non-finite or unknown-class setting is one ``error:`` line, and a run that
fails leaves no temporary file behind.
"""

import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro
from repro.obs.live import SLO_CLASSES, SLOSpec
from repro.obs.tracer import NULL_TRACER, read_trace
from repro.sim import QueueOverflowError, SimConfig
from repro.sim.engine import Simulation

from tests.obs.live_reference import StreamingLiveAggregator

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def streaming_reference(config: SimConfig, trace_path: str):
    """The run's summary and trace as the per-event aggregator made them:
    wrapped around the whole sink chain, outside any sampler."""
    aggregator = StreamingLiveAggregator(
        config.replace(trace_path=trace_path).build_tracer(),
        window_s=config.live_window or 1.0,
        slos=config.slos,
    )
    simulation = Simulation.from_config(config, tracer=aggregator)
    try:
        simulation.run(config.build_requests(simulation.device))
    finally:
        aggregator.close()
    return aggregator.summary()


def dumped(summary) -> str:
    return json.dumps(summary.to_dict(), sort_keys=True)


WINDOWS = st.one_of(
    st.sampled_from([1 / 3, 0.25, 1.0, 5.0, 0.0007, 0.0002]),
    st.floats(min_value=0.0005, max_value=3.0),
)
SPECS = st.builds(
    SLOSpec,
    cls=st.sampled_from(SLO_CLASSES),
    objective=st.sampled_from([0.5, 0.9, 0.95, 0.99]),
    threshold_s=st.sampled_from([0.0005, 0.002, 0.01, 0.05]),
    window_s=WINDOWS,
    long_windows=st.integers(min_value=1, max_value=12),
)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    device=st.sampled_from(["mems", "atlas10k"]),
    scheduler=st.sampled_from(["SPTF", "ASPTF", "FCFS", "C-LOOK", "SSTF_LBN"]),
    load=st.floats(min_value=0.05, max_value=1.0),
    requests=st.one_of(
        st.sampled_from([0, 1, 2]), st.integers(min_value=3, max_value=400)
    ),
    window=WINDOWS,
    slos=st.lists(SPECS, max_size=3),
    sample=st.sampled_from([None, 1, 3]),
    suffix=st.sampled_from([".jsonl", ".jsonl.gz"]),
    seed=st.integers(min_value=0, max_value=2**16),
    warmup=st.integers(min_value=0, max_value=10),
)
def test_fold_matches_streaming_reference(
    tmp_path_factory, device, scheduler, load, requests, window, slos,
    sample, suffix, seed, warmup,
):
    rate = load * (1500.0 if device == "mems" else 150.0)
    config = SimConfig(
        device=device, scheduler=scheduler, rate=rate,
        num_requests=requests, seed=seed, warmup=warmup,
        max_queue_depth=None, trace_sample=sample, live_window=window,
        slos=tuple(slos),
    )
    # Same file name in two directories: a gzip header records the name.
    reference_dir = tmp_path_factory.mktemp("reference")
    fold_dir = tmp_path_factory.mktemp("fold")
    expected = streaming_reference(config, str(reference_dir / f"t{suffix}"))
    _, traced = config.replace(trace_path=str(fold_dir / f"t{suffix}")).run_live()
    _, untraced = config.run_live()
    assert dumped(traced) == dumped(expected)
    assert dumped(untraced) == dumped(expected)
    assert (fold_dir / f"t{suffix}").read_bytes() == (
        reference_dir / f"t{suffix}"
    ).read_bytes()
    assert os.listdir(fold_dir) == [f"t{suffix}"]


def test_summary_only_run_keeps_the_null_tracer(monkeypatch):
    """No emission site is enabled when live runs without a trace."""
    seen = []
    drain = Simulation._drain

    def spy(self, arrivals):
        seen.append((self.tracer, self.device.tracer, self.scheduler.tracer))
        return drain(self, arrivals)

    monkeypatch.setattr(Simulation, "_drain", spy)
    config = SimConfig(
        num_requests=300, live_window=0.1, slos=(SLOSpec(cls="read"),)
    )
    _, summary = config.run_live()
    assert summary is not None and summary.windows > 0
    from repro.fleet import FleetConfig

    FleetConfig.uniform(2, num_requests=300, live_window=0.1).run(jobs=1)
    assert len(seen) == 3
    for tracers in seen:
        assert all(tracer is NULL_TRACER for tracer in tracers)
        assert not any(tracer.enabled for tracer in tracers)


def test_saturated_traced_run_keeps_the_stream_and_no_temporary(tmp_path):
    trace = tmp_path / "sat.jsonl.gz"
    config = SimConfig(
        rate=20000.0, num_requests=2000, max_queue_depth=50,
        trace_path=str(trace), live_window=0.001,
    )
    with pytest.raises(QueueOverflowError):
        config.run_live()
    assert os.listdir(tmp_path) == ["sat.jsonl.gz"]
    kinds = {event["kind"] for event in read_trace(str(trace))}
    assert "sim.arrival" in kinds and "obs.window" not in kinds


def test_interrupted_traced_run_leaves_no_temporary(tmp_path, monkeypatch):
    def interrupt(self, arrivals):
        raise KeyboardInterrupt

    monkeypatch.setattr(Simulation, "_drain", interrupt)
    trace = tmp_path / "cut.jsonl"
    config = SimConfig(num_requests=100, trace_path=str(trace), slos=(SLOSpec(),))
    with pytest.raises(KeyboardInterrupt):
        config.run_live()
    assert os.listdir(tmp_path) == ["cut.jsonl"]
    assert [event["kind"] for event in read_trace(str(trace))] == [
        "trace.meta", "sim.start",
    ]


def _cli(args, tmp_path, timeout=30.0):
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return done, time.monotonic() - start


BAD_LIVE_FLAGS = [
    ["simulate", "--requests", "200", "--live-window", "nan"],
    ["simulate", "--requests", "200", "--live-window", "inf"],
    ["simulate", "--requests", "200", "--slo", "all:p99:nan"],
    ["simulate", "--requests", "200", "--slo", "all:p99:0.01:nan"],
    ["simulate", "--requests", "200", "--slo", "reads:p99:0.01"],
    ["simulate", "--config", "sim.json"],
    ["fleet", "--members", "2", "--requests", "200", "--jobs", "1",
     "--live-window", "nan"],
    ["fleet", "--members", "2", "--requests", "200", "--jobs", "1",
     "--slo", "write:p99:inf"],
    ["fleet", "--config", "fleet.json"],
]


@pytest.mark.parametrize("args", BAD_LIVE_FLAGS, ids=" ".join)
def test_bad_live_setting_is_one_error_line(tmp_path, args):
    """Each of these hung, or ran and reported nonsense, before the
    settings were validated."""
    (tmp_path / "sim.json").write_text(
        '{"num_requests": 200, "live_window": NaN}'
    )
    member = SimConfig(max_queue_depth=10_000).to_dict()
    (tmp_path / "fleet.json").write_text(json.dumps(
        {"members": [member, member], "num_requests": 200,
         "live_window": float("inf")}
    ))
    done, _ = _cli(args, tmp_path)
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), done.stderr
    assert done.stdout == ""
    if "reads:p99:0.01" in args:
        assert "did you mean 'read'?" in lines[0]


def test_nanosecond_window_finishes(tmp_path):
    """2.5e9 windows are counted, not walked: the run ends promptly."""
    done, elapsed = _cli(
        ["simulate", "--requests", "2000", "--live-window", "1e-9"],
        tmp_path,
        timeout=10.0,
    )
    assert done.returncode == 0, done.stderr
    assert "live observability (window 1e-09s" in done.stdout
    assert elapsed < 10.0
