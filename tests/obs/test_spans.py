"""Span folding: exact per-request attribution reconciled with results.

The PR's acceptance gate lives here: on >= 1000-request traced runs of
both device models — and of all four data layouts — the spans folded from
the trace must reconcile with the ``SimulationResult`` the run produced
(mean response to 1e-9, per-request lifecycle invariants checked by the
builder itself).
"""

import math
import random

import pytest

from repro.core.layout import FileSet, make_layout
from repro.core.scheduling import make_scheduler
from repro.disk.atlas10k import atlas_10k
from repro.disk.device import DiskDevice
from repro.mems.device import MEMSDevice
from repro.obs.analyze import analyze_events
from repro.obs.spans import SpanBuilder, SpanError, iter_spans, reconcile
from repro.obs.tracer import RingBufferTracer
from repro.sim import SimConfig, Simulation
from repro.sim.request import IOKind, Request

RECONCILE_TOL = 1e-9


def traced_config_run(device, rate, num_requests, scheduler="SPTF", seed=42):
    ring = RingBufferTracer()
    config = SimConfig(
        device=device,
        scheduler=scheduler,
        rate=rate,
        num_requests=num_requests,
        seed=seed,
    )
    result = config.run(tracer=ring)
    return ring.events, result


def layout_requests(layout_name, device, num_requests, rate, seed):
    """A placement-driven open-arrival stream (the Fig. 11 population)."""
    fileset = FileSet(small_blocks=200, large_files=6)
    layout = make_layout(layout_name, device)
    placement = layout.place(fileset, device.capacity_sectors)
    rng = random.Random(seed)
    now = 0.0
    requests = []
    for index in range(num_requests):
        now += rng.expovariate(rate)
        if rng.random() < 0.9:
            lbn = placement.small_lbns[rng.randrange(fileset.small_blocks)]
            sectors = fileset.small_sectors
        else:
            lbn = placement.large_lbns[rng.randrange(fileset.large_files)]
            sectors = fileset.large_sectors
        requests.append(Request(now, lbn, sectors, IOKind.READ, index))
    return requests


class TestReconciliationRandomWorkload:
    @pytest.mark.parametrize(
        "device,rate", [("mems", 700.0), ("atlas10k", 250.0)]
    )
    def test_spans_reconcile_with_result(self, device, rate):
        events, result = traced_config_run(device, rate, 1200)
        spans = list(iter_spans(events))
        assert len(spans) == len(result) == 1200
        reconcile(
            spans, result.mean_response_time, tolerance=RECONCILE_TOL
        )
        by_rid = {span.rid: span for span in spans}
        for record in result.records:
            span = by_rid[record.request.request_id]
            assert math.isclose(
                span.response, record.response_time, rel_tol=1e-12
            )
            assert math.isclose(
                span.service, record.service_time, rel_tol=1e-12
            )
            assert span.lbn == record.request.lbn

    def test_attribution_sums_to_mean_response(self):
        events, result = traced_config_run("mems", 700.0, 1200)
        analysis = analyze_events(iter(events))
        attribution = analysis.attribution()
        lifecycle = (
            attribution["queue"]
            + attribution["positioning"]
            + attribution["transfer"]
            + attribution["turnarounds"]
        )
        mean_response = analysis.result.mean_response_time
        assert math.isclose(lifecycle, mean_response, rel_tol=RECONCILE_TOL)
        assert mean_response == result.mean_response_time

    def test_spans_carry_scheduler_and_device(self):
        events, _ = traced_config_run("mems", 700.0, 1200)
        spans = list(iter_spans(events))
        assert all(span.scheduler == "SPTF" for span in spans)
        assert all(span.device == "mems" for span in spans)
        assert all(span.candidates >= 1 for span in spans)


class TestReconciliationLayouts:
    """All four layouts on MEMS, the geometry-free three on the disk."""

    @pytest.mark.parametrize(
        "device_kind,layout_name",
        [("mems", name) for name in
         ("simple", "organ-pipe", "columnar", "subregioned")]
        + [("disk", name) for name in ("simple", "organ-pipe", "columnar")],
    )
    def test_layout_run_reconciles(self, device_kind, layout_name):
        if device_kind == "mems":
            device = MEMSDevice()
            rate = 300.0
        else:
            device = DiskDevice(atlas_10k())
            rate = 120.0
        requests = layout_requests(layout_name, device, 1000, rate, seed=5)
        ring = RingBufferTracer()
        sim = Simulation(
            device, make_scheduler("SPTF", device), tracer=ring
        )
        result = sim.run(requests)
        spans = list(iter_spans(ring.events))
        assert len(spans) == len(result) == 1000
        reconcile(
            spans, result.mean_response_time, tolerance=RECONCILE_TOL
        )


class TestSpanBuilder:
    def _events_for_one_request(self):
        events, _ = traced_config_run("mems", 500.0, 3)
        return events

    def test_duplicate_arrival_raises(self):
        builder = SpanBuilder()
        arrival = {
            "kind": "sim.arrival", "t": 0.1, "rid": 0, "lbn": 10,
            "sectors": 8, "io": "read", "queue_depth": 1,
        }
        builder.feed(arrival)
        with pytest.raises(SpanError, match="duplicate sim.arrival"):
            builder.feed(arrival)

    def test_complete_without_history_raises(self):
        builder = SpanBuilder()
        with pytest.raises(SpanError, match="sim.complete without"):
            builder.feed({
                "kind": "sim.complete", "t": 1.0, "rid": 7,
                "queue": 0.1, "service": 0.2, "response": 0.3,
            })

    def test_inconsistent_service_raises(self):
        events = self._events_for_one_request()
        builder = SpanBuilder()
        with pytest.raises(SpanError, match="!= dev.access total"):
            for event in events:
                if event["kind"] == "dev.access":
                    event = dict(event, total=event["total"] * 2.0)
                builder.feed(event)

    def test_truncated_trace_counts_pending(self):
        events, _ = traced_config_run("mems", 500.0, 50)
        cut = events[: len(events) - 10]
        builder = SpanBuilder()
        finished = [
            span for event in cut if (span := builder.feed(event)) is not None
        ]
        assert builder.pending > 0
        assert builder.spans_built == len(finished) < 50
        # iter_spans silently drops the in-flight tail.
        assert len(list(iter_spans(cut))) == len(finished)

    def test_reconcile_rejects_drift(self):
        events, result = traced_config_run("mems", 500.0, 100)
        spans = list(iter_spans(events))
        with pytest.raises(SpanError, match="!= result mean"):
            reconcile(spans, result.mean_response_time * 1.01)

    def test_summary_empty_raises(self):
        analysis = analyze_events(iter(()))
        with pytest.raises(ValueError, match="no completed requests"):
            analysis.attribution()
        with pytest.raises(ValueError, match="no completed requests"):
            analysis.result.mean_response_time
