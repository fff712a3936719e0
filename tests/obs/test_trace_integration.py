"""End-to-end tracing invariants on full simulation runs.

The PR's acceptance checks live here: a traced MEMS run of >= 1000
requests where every ``dev.access`` phase breakdown sums to the recorded
service time, the disk equivalent, and the SPTF estimate-cache telemetry
under a deep queue.
"""

import math

import pytest

from repro.obs.tracer import RingBufferTracer
from repro.sim import SimConfig


def run_traced(device, rate, num_requests, scheduler="SPTF"):
    ring = RingBufferTracer()
    config = SimConfig(
        device=device,
        scheduler=scheduler,
        rate=rate,
        num_requests=num_requests,
    )
    result = config.run(tracer=ring)
    return ring, result


def assert_phase_sums(ring):
    accesses = ring.by_kind("dev.access")
    assert accesses, "no dev.access events traced"
    for event in accesses:
        serialized = (
            event["positioning"] + event["transfer"] + event["turnarounds"]
        )
        assert math.isclose(
            serialized, event["total"], rel_tol=1e-9, abs_tol=1e-12
        ), event
    return accesses


class TestMEMSTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        return run_traced("mems", rate=800.0, num_requests=1200)

    def test_run_is_big_enough(self, traced):
        ring, result = traced
        assert len(result) == 1200

    def test_phase_sums_equal_total(self, traced):
        ring, _ = traced
        accesses = assert_phase_sums(ring)
        assert len(accesses) == 1200

    def test_access_totals_match_recorded_service_times(self, traced):
        ring, result = traced
        totals = [event["total"] for event in ring.by_kind("dev.access")]
        services = [record.service_time for record in result.records]
        assert len(totals) == len(services)
        for total, service in zip(totals, services):
            assert math.isclose(total, service, rel_tol=1e-12)

    def test_complete_events_match_records(self, traced):
        ring, result = traced
        completes = ring.by_kind("sim.complete")
        assert len(completes) == len(result.records)
        for event, record in zip(completes, result.records):
            assert event["rid"] == record.request.request_id
            assert math.isclose(event["response"], record.response_time)

    def test_mems_has_no_rotational_latency(self, traced):
        ring, _ = traced
        assert all(
            event["rotational_latency"] == 0.0
            for event in ring.by_kind("dev.access")
        )

    def test_arrival_dispatch_complete_counts_balance(self, traced):
        ring, _ = traced
        assert (
            len(ring.by_kind("sim.arrival"))
            == len(ring.by_kind("sim.dispatch"))
            == len(ring.by_kind("sim.complete"))
            == 1200
        )


class TestDiskTrace:
    def test_phase_sums_equal_total(self):
        ring, result = run_traced("atlas10k", rate=80.0, num_requests=1000)
        accesses = assert_phase_sums(ring)
        assert len(accesses) == len(result) == 1000
        # disk positioning = seek + rotational latency, no settle/Y-seek
        assert all(event["seek_y"] == 0.0 for event in accesses)
        assert all(event["settle"] == 0.0 for event in accesses)
        assert any(event["rotational_latency"] > 0.0 for event in accesses)
        for event, record in zip(accesses, result.records):
            assert math.isclose(
                event["total"], record.service_time, rel_tol=1e-12
            )


class TestSchedulerTelemetry:
    def test_sptf_cache_counters_under_deep_queue(self):
        # Near saturation the queue is deep.  SPTF keeps no estimate cache
        # (the engine never re-prices a candidate between two dispatches),
        # so its events carry only the per-dispatch pricing split: deep
        # dispatches price best-first and leave most candidates unpriced.
        ring, _ = run_traced("mems", rate=1400.0, num_requests=1500)
        dispatches = ring.by_kind("sched.dispatch")
        assert dispatches
        assert all(event["scheduler"] == "SPTF" for event in dispatches)
        assert not any(
            "cache_hits" in event or "cache_misses" in event
            for event in dispatches
        )
        deep = [event for event in dispatches if event["candidates"] > 8]
        assert deep
        assert all(event["fast_path"] == "pruned" for event in deep)
        assert sum(event["candidates_priced"] for event in deep) < sum(
            event["candidates"] for event in deep
        )

    def test_candidate_counts_match_queue_depth(self):
        ring, _ = run_traced("mems", rate=1000.0, num_requests=400)
        for dispatch, sched in zip(
            ring.by_kind("sim.dispatch"), ring.by_kind("sched.dispatch")
        ):
            assert sched["candidates"] == dispatch["queue_depth"]
            assert (
                sched["candidates_priced"] + sched["candidates_pruned"]
                == sched["candidates"]
            )

    def test_fcfs_emits_dispatch_telemetry(self):
        ring, _ = run_traced(
            "mems", rate=800.0, num_requests=300, scheduler="FCFS"
        )
        dispatches = ring.by_kind("sched.dispatch")
        assert len(dispatches) == 300
        assert all("cache_hits" not in event for event in dispatches)
