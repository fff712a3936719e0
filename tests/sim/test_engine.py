"""Unit tests for the discrete-event engine, using a deterministic stub
device so timings are exactly predictable."""

import gc

import pytest

from repro.core.scheduling import FCFSScheduler
from repro.obs.tracer import RingBufferTracer
from repro.sim import engine as engine_module
from repro.sim import (
    AccessResult,
    IOKind,
    QueueOverflowError,
    Request,
    RequestBatch,
    Simulation,
    StorageDevice,
    simulate,
)


class ConstantDevice(StorageDevice):
    """Serves every request in a fixed time; records service order."""

    def __init__(self, service_time=1.0, capacity=1000):
        self.service_time = service_time
        self.capacity = capacity
        self.served = []
        self._last_lbn = 0

    @property
    def capacity_sectors(self):
        return self.capacity

    @property
    def last_lbn(self):
        return self._last_lbn

    def service(self, request, now=0.0):
        self.served.append(request.lbn)
        self._last_lbn = request.last_lbn
        return AccessResult(total=self.service_time)

    def estimate_positioning(self, request, now=0.0):
        return self.service_time / 2


def req(arrival, lbn=0, rid=0):
    return Request(arrival, lbn=lbn, sectors=1, kind=IOKind.READ, request_id=rid)


class TestSimulation:
    def test_single_request_timing(self):
        device = ConstantDevice(service_time=0.5)
        result = simulate(device, FCFSScheduler(), [req(1.0)])
        assert len(result) == 1
        record = result.records[0]
        assert record.dispatch_time == pytest.approx(1.0)
        assert record.completion_time == pytest.approx(1.5)
        assert record.response_time == pytest.approx(0.5)

    def test_queueing_delay(self):
        device = ConstantDevice(service_time=1.0)
        requests = [req(0.0, rid=0), req(0.1, lbn=1, rid=1)]
        result = simulate(device, FCFSScheduler(), requests)
        second = result.records[1]
        assert second.dispatch_time == pytest.approx(1.0)
        assert second.queue_time == pytest.approx(0.9)

    def test_idle_gap_between_requests(self):
        device = ConstantDevice(service_time=0.5)
        requests = [req(0.0, rid=0), req(10.0, lbn=1, rid=1)]
        result = simulate(device, FCFSScheduler(), requests)
        assert result.records[1].dispatch_time == pytest.approx(10.0)

    def test_unsorted_input_is_sorted(self):
        device = ConstantDevice()
        requests = [req(5.0, lbn=2, rid=1), req(0.0, lbn=1, rid=0)]
        result = simulate(device, FCFSScheduler(), requests)
        assert device.served == [1, 2]

    def test_out_of_capacity_request_rejected(self):
        device = ConstantDevice(capacity=10)
        with pytest.raises(ValueError):
            simulate(device, FCFSScheduler(), [req(0.0, lbn=10)])

    def test_queue_overflow_raises(self):
        device = ConstantDevice(service_time=100.0)
        requests = [req(i * 0.001, lbn=i, rid=i) for i in range(10)]
        with pytest.raises(QueueOverflowError):
            simulate(device, FCFSScheduler(), requests, max_queue_depth=4)

    def test_arrival_at_completion_instant_dispatches_immediately(self):
        device = ConstantDevice(service_time=1.0)
        requests = [req(0.0, rid=0), req(1.0, lbn=1, rid=1)]
        result = simulate(device, FCFSScheduler(), requests)
        assert result.records[1].dispatch_time == pytest.approx(1.0)
        assert result.records[1].queue_time == pytest.approx(0.0)

    def test_negative_arrival_rejected(self):
        batch = RequestBatch(
            arrival=[0.0, -1.0], lbn=[0, 1], sectors=[1, 1],
            is_write=[False, False], rid=[0, 1],
        )
        with pytest.raises(ValueError, match="negative arrival_time"):
            simulate(ConstantDevice(), FCFSScheduler(), batch)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, arrival):
        # Both passed an ``arrival < 0`` check; an inf arrival ran to a NaN
        # mean response with only a RuntimeWarning.
        batch = RequestBatch(
            arrival=[0.0, arrival, 2.0], lbn=[0, 1, 2], sectors=[1, 1, 1],
            is_write=[False, False, False], rid=[0, 1, 2],
        )
        with pytest.raises(
            ValueError, match=f"non-finite arrival_time: {arrival}"
        ):
            Simulation(ConstantDevice(), FCFSScheduler()).run(batch)
        with pytest.raises(ValueError, match="non-finite arrival_time"):
            batch.to_requests()

    def test_to_requests_checks_request_invariants(self):
        # The one place rows become Requests refuses what the validating
        # constructor refuses, without a device capacity to check against.
        batch = RequestBatch(
            arrival=[0.0, 1.0], lbn=[0, -3], sectors=[1, 1],
            is_write=[False, True], rid=[0, 1],
        )
        with pytest.raises(ValueError, match="negative lbn: -3"):
            batch.to_requests()

    def test_batch_and_list_streams_agree(self):
        requests = [req(i * 0.3, lbn=i, rid=i) for i in range(6)]
        from_list = simulate(ConstantDevice(), FCFSScheduler(), requests)
        from_batch = simulate(
            ConstantDevice(),
            FCFSScheduler(),
            RequestBatch.from_requests(requests),
        )
        assert from_list.records == from_batch.records

    def test_untraced_run_detaches_previous_tracer(self):
        # A device and scheduler reused from a traced run must stop
        # emitting into that run's sink once an untraced run takes over.
        device = ConstantDevice()
        scheduler = FCFSScheduler()
        tracer = RingBufferTracer()
        Simulation(device, scheduler, tracer=tracer).run([req(0.0)])
        emitted = len(tracer)
        Simulation(device, scheduler).run([req(0.0)])
        assert len(tracer) == emitted
        assert not device.tracer.enabled
        assert not scheduler.tracer.enabled

    def test_end_time_is_last_completion(self):
        device = ConstantDevice(service_time=0.25)
        result = simulate(device, FCFSScheduler(), [req(0.0), ])
        assert result.end_time == pytest.approx(0.25)


def sim_events(tracer):
    """The ``sim.*`` events of a traced run as compact comparable tuples."""
    shaped = []
    for event in tracer.events:
        kind = event["kind"]
        if kind == "sim.start":
            shaped.append(("start", event["t"], event["requests"]))
        elif kind == "sim.end":
            shaped.append(("end", event["t"], event["completed"]))
        elif kind in ("sim.arrival", "sim.dispatch"):
            shaped.append(
                (kind[4:], event["t"], event["rid"], event["queue_depth"])
            )
        elif kind == "sim.complete":
            shaped.append(("complete", event["t"], event["rid"]))
    return shaped


def run_both(requests, service_time=1.0, max_queue_depth=None):
    """Run ``requests`` untraced and traced on fresh stub stacks.

    Asserts the two runs agree on every record, the end time, and the
    service order; returns the untraced result and the traced ``sim.*``
    event sequence.
    """
    plain_device = ConstantDevice(service_time)
    plain = Simulation(
        plain_device, FCFSScheduler(), max_queue_depth=max_queue_depth
    ).run(list(requests))
    tracer = RingBufferTracer()
    traced_device = ConstantDevice(service_time)
    traced = Simulation(
        traced_device,
        FCFSScheduler(),
        max_queue_depth=max_queue_depth,
        tracer=tracer,
    ).run(list(requests))
    assert traced.records == plain.records
    assert traced.end_time == plain.end_time
    assert traced_device.served == plain_device.served
    return plain, sim_events(tracer)


class TestEventOrdering:
    """Adversarial streams, pinned through the engine's trace events.

    Every case runs untraced and traced and must agree on the records; the
    traced ``sim.*`` sequence pins the arrival/dispatch/complete order, the
    clock at each event, and the queue depths (an idle device shows up as
    a ``complete`` not followed by a ``dispatch`` at the same instant).
    """

    def test_equal_arrival_times_break_ties_by_rid(self):
        requests = [
            req(0.0, lbn=3, rid=2),
            req(0.0, lbn=1, rid=0),
            req(0.0, lbn=2, rid=1),
        ]
        result, events = run_both(requests)
        assert [r.request.request_id for r in result.records] == [0, 1, 2]
        assert events == [
            ("start", 0.0, 3),
            ("arrival", 0.0, 0, 1),
            ("dispatch", 0.0, 0, 1),
            ("arrival", 0.0, 1, 1),
            ("arrival", 0.0, 2, 2),
            ("complete", 1.0, 0),
            ("dispatch", 1.0, 1, 2),
            ("complete", 2.0, 1),
            ("dispatch", 2.0, 2, 1),
            ("complete", 3.0, 2),
            ("end", 3.0, 3),
        ]

    def test_arrival_at_completion_instant_of_idle_device(self):
        # The completion at t=1 is handled first: the device goes idle,
        # then the arrival at t=1 dispatches with zero wait.
        result, events = run_both([req(0.0, rid=0), req(1.0, lbn=1, rid=1)])
        assert result.records[1].dispatch_time == 1.0
        assert events == [
            ("start", 0.0, 2),
            ("arrival", 0.0, 0, 1),
            ("dispatch", 0.0, 0, 1),
            ("complete", 1.0, 0),
            ("arrival", 1.0, 1, 1),
            ("dispatch", 1.0, 1, 1),
            ("complete", 2.0, 1),
            ("end", 2.0, 2),
        ]

    def test_arrival_at_completion_instant_with_queue(self):
        # The queued request is dispatched at the completion instant
        # before the simultaneous arrival joins the queue.
        result, events = run_both(
            [req(0.0, rid=0), req(0.5, lbn=1, rid=1), req(1.0, lbn=2, rid=2)]
        )
        assert [r.dispatch_time for r in result.records] == [0.0, 1.0, 2.0]
        assert events == [
            ("start", 0.0, 3),
            ("arrival", 0.0, 0, 1),
            ("dispatch", 0.0, 0, 1),
            ("arrival", 0.5, 1, 1),
            ("complete", 1.0, 0),
            ("dispatch", 1.0, 1, 1),
            ("arrival", 1.0, 2, 1),
            ("complete", 2.0, 1),
            ("dispatch", 2.0, 2, 1),
            ("complete", 3.0, 2),
            ("end", 3.0, 3),
        ]

    def test_zero_interarrival_bursts(self):
        requests = [req(0.0, lbn=i, rid=i) for i in range(4)] + [
            req(2.0, lbn=i, rid=i) for i in range(4, 7)
        ]
        result, events = run_both(requests, service_time=0.5)
        assert len(result) == 7
        assert events == [
            ("start", 0.0, 7),
            ("arrival", 0.0, 0, 1),
            ("dispatch", 0.0, 0, 1),
            ("arrival", 0.0, 1, 1),
            ("arrival", 0.0, 2, 2),
            ("arrival", 0.0, 3, 3),
            ("complete", 0.5, 0),
            ("dispatch", 0.5, 1, 3),
            ("complete", 1.0, 1),
            ("dispatch", 1.0, 2, 2),
            ("complete", 1.5, 2),
            ("dispatch", 1.5, 3, 1),
            ("complete", 2.0, 3),
            ("arrival", 2.0, 4, 1),
            ("dispatch", 2.0, 4, 1),
            ("arrival", 2.0, 5, 1),
            ("arrival", 2.0, 6, 2),
            ("complete", 2.5, 4),
            ("dispatch", 2.5, 5, 2),
            ("complete", 3.0, 5),
            ("dispatch", 3.0, 6, 1),
            ("complete", 3.5, 6),
            ("end", 3.5, 7),
        ]

    def test_empty_stream(self):
        result, events = run_both([])
        assert len(result) == 0
        assert result.end_time == 0.0
        assert events == [("start", 0.0, 0), ("end", 0.0, 0)]

    def test_single_request_stream(self):
        result, events = run_both([req(0.25, lbn=7, rid=0)], service_time=0.5)
        assert result.records[0].completion_time == 0.75
        assert events == [
            ("start", 0.0, 1),
            ("arrival", 0.25, 0, 1),
            ("dispatch", 0.25, 0, 1),
            ("complete", 0.75, 0),
            ("end", 0.75, 1),
        ]

    def test_unsorted_list(self):
        requests = [
            req(2.0, lbn=5, rid=3),
            req(0.5, lbn=4, rid=2),
            req(0.0, lbn=3, rid=1),
            req(0.0, lbn=2, rid=0),
        ]
        result, events = run_both(requests)
        assert [r.request.request_id for r in result.records] == [0, 1, 2, 3]
        assert events == [
            ("start", 0.0, 4),
            ("arrival", 0.0, 0, 1),
            ("dispatch", 0.0, 0, 1),
            ("arrival", 0.0, 1, 1),
            ("arrival", 0.5, 2, 2),
            ("complete", 1.0, 0),
            ("dispatch", 1.0, 1, 2),
            ("complete", 2.0, 1),
            ("dispatch", 2.0, 2, 1),
            ("arrival", 2.0, 3, 1),
            ("complete", 3.0, 2),
            ("dispatch", 3.0, 3, 1),
            ("complete", 4.0, 3),
            ("end", 4.0, 4),
        ]

    def test_overflow_exactly_at_max_queue_depth(self):
        # Five back-to-back arrivals on a slow device: the first dispatches
        # at once, so the pending queue peaks at exactly four requests.
        requests = [req(i * 0.25, lbn=i, rid=i) for i in range(5)]
        result, events = run_both(
            requests, service_time=100.0, max_queue_depth=4
        )
        assert len(result) == 5
        assert max(e[3] for e in events if e[0] == "arrival") == 4
        for tracer in (None, RingBufferTracer()):
            sim = Simulation(
                ConstantDevice(100.0),
                FCFSScheduler(),
                max_queue_depth=3,
                tracer=tracer,
            )
            with pytest.raises(
                QueueOverflowError,
                match=r"exceeded 3 requests at t=1\.0000s",
            ):
                sim.run(list(requests))


class TestCollectorPause:
    """``run`` pauses the cyclic collector and restores the caller's setting."""

    @pytest.fixture
    def collector(self):
        was_enabled = gc.isenabled()
        yield
        if was_enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_leaves_the_setting_as_it_found_it(self, collector, enabled):
        if enabled:
            gc.enable()
        else:
            gc.disable()
        simulate(ConstantDevice(), FCFSScheduler(), [req(0.0), req(0.5, 1, 1)])
        assert gc.isenabled() is enabled
        with pytest.raises(QueueOverflowError):
            simulate(
                ConstantDevice(service_time=100.0),
                FCFSScheduler(),
                [req(i * 0.001, lbn=i, rid=i) for i in range(10)],
                max_queue_depth=4,
            )
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            # An LBN past the device's capacity fails ingest validation.
            simulate(ConstantDevice(capacity=10), FCFSScheduler(), [req(0.0, 10)])
        assert gc.isenabled() is enabled

    def test_collection_stays_paused_while_the_batch_is_validated(
        self, collector
    ):
        seen = []

        class ProbedDevice(ConstantDevice):
            @property
            def capacity_sectors(self):
                # Ingest reads the capacity to bounds-check the batch.
                seen.append(gc.isenabled())
                return self.capacity

        gc.enable()
        simulate(ProbedDevice(), FCFSScheduler(), [req(0.0), req(0.5, 1, 1)])
        assert seen == [False]
        assert gc.isenabled()

    def test_collection_stays_paused_while_the_result_is_built(
        self, collector, monkeypatch
    ):
        seen = []
        build = engine_module.SimulationResult

        def result(*args, **kwargs):
            seen.append(gc.isenabled())
            return build(*args, **kwargs)

        monkeypatch.setattr(engine_module, "SimulationResult", result)
        gc.enable()
        simulate(ConstantDevice(), FCFSScheduler(), [req(0.0), req(0.5, 1, 1)])
        assert seen == [False]
        assert gc.isenabled()
