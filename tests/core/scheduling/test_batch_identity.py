"""SPTF's depth-switched selection must dispatch what a plain scan does.

Up to ``SCAN_DEPTH`` pending requests SPTF scans; deeper, it prices
candidates in lower-bound order, walking a cylinder index
(:mod:`repro.core.scheduling.sptf`).
These tests pin the switch itself: the pick and the reported
``fast_path`` at the depths around ``SCAN_DEPTH`` and around the 64-deep
queues the pricing tests use, whole drains that cross the switch both
ways, traced against untraced runs, and the lazy build of the bound
table and the index.  Picks are compared with
:class:`~tests.core.scheduling.sptf_reference.ReferenceSPTF`.
"""

import random

import pytest

from repro.core.scheduling.sptf import (
    SCAN_DEPTH,
    AgedSPTFScheduler,
    SPTFScheduler,
)
from repro.disk.atlas10k import atlas_10k
from repro.disk.device import DiskDevice
from repro.mems.device import MEMSDevice
from repro.mems.parameters import MEMSParameters
from repro.obs.tracer import RingBufferTracer
from repro.sim.request import IOKind, Request
from tests.core.scheduling.sptf_reference import ReferenceSPTF, drain_order


def _make_device(kind):
    if kind == "mems":
        return MEMSDevice()
    if kind == "mems-nospring":
        return MEMSDevice(MEMSParameters(spring_factor=0.0))
    return DiskDevice(atlas_10k())


DEVICE_KINDS = ("mems", "mems-nospring", "disk")


def _random_stream(capacity, count, seed):
    rng = random.Random(seed)
    requests = []
    for index in range(count):
        sectors = rng.choice((1, 2, 4, 8, 16, 64))
        requests.append(
            Request(
                index * 2e-4,
                lbn=rng.randrange(0, capacity - sectors),
                sectors=sectors,
                kind=rng.choice((IOKind.READ, IOKind.WRITE)),
                request_id=index,
            )
        )
    return requests


class TestAdaptiveModeEquivalence:
    @pytest.mark.parametrize("device_kind", DEVICE_KINDS)
    @pytest.mark.parametrize("scheduler_cls", [SPTFScheduler, AgedSPTFScheduler])
    def test_all_modes_dispatch_identically(self, device_kind, scheduler_cls):
        # 128 requests preloaded: the drain starts deep on the best-first
        # path and finishes on the scan, crossing SCAN_DEPTH both ways as
        # refills arrive.
        capacity = _make_device(device_kind).capacity_sectors
        requests = _random_stream(capacity, 256, seed=41)
        age_weight = 0.01 if scheduler_cls is AgedSPTFScheduler else 0.0
        reference_dev = _make_device(device_kind)
        expected = drain_order(
            reference_dev,
            ReferenceSPTF(reference_dev, age_weight=age_weight),
            requests,
        )
        device = _make_device(device_kind)
        scheduler = scheduler_cls(device)
        scheduler.tracer = RingBufferTracer()
        assert drain_order(device, scheduler, requests) == expected
        paths = {event["fast_path"] for event in scheduler.tracer.events}
        assert paths == {"scan", "pruned"}

    @pytest.mark.parametrize("device_kind", ["mems", "disk"])
    @pytest.mark.parametrize(
        "depth",
        [0, 1, SCAN_DEPTH - 1, SCAN_DEPTH, SCAN_DEPTH + 1, 63, 64, 65],
    )
    def test_threshold_crossovers(self, device_kind, depth):
        # Pin the path chosen exactly at each boundary depth, and that the
        # pick agrees with the reference scan at that same depth.
        capacity = _make_device(device_kind).capacity_sectors
        requests = _random_stream(capacity, depth + 1, seed=depth + 7)
        device = _make_device(device_kind)
        scheduler = SPTFScheduler(device)
        reference = ReferenceSPTF(device)
        for request in requests:
            scheduler.add(request)
            reference.add(request)
        picked = scheduler.pop_next(0.0)
        assert picked.request_id == reference.pop_next(0.0).request_id
        candidates = depth + 1
        expected = "pruned" if candidates > SCAN_DEPTH else "scan"
        assert scheduler.last_fast_path == expected
        assert scheduler.last_candidates == candidates
        if candidates > 1 and expected == "scan":
            assert scheduler.last_priced == candidates

    @pytest.mark.parametrize("traced", [False, True])
    def test_traced_runs_identical_and_fast_path_valid(self, traced):
        from repro.obs.tracer import TRACE_SCHEMA
        from repro.obs.validate import FAST_PATHS, validate_events
        from repro.sim import Simulation
        from repro.sim.config import SimConfig

        config = SimConfig(
            device="mems",
            scheduler="SPTF",
            rate=1800.0,
            num_requests=400,
            seed=9,
        )

        def run(tracer):
            sim = Simulation.from_config(config, tracer=tracer)
            return sim.run(config.build_requests(sim.device))

        untraced = run(None)
        tracer = RingBufferTracer() if traced else None
        result = run(tracer)
        assert result.records == untraced.records
        assert result.end_time == untraced.end_time
        if traced:
            dispatches = tracer.by_kind("sched.dispatch")
            paths = {event["fast_path"] for event in dispatches}
            assert paths == FAST_PATHS == {"scan", "pruned"}
            for event in dispatches:
                assert (event["fast_path"] == "pruned") == (
                    event["candidates"] > SCAN_DEPTH
                )
                assert "cache_hits" not in event
            meta = {"kind": "trace.meta", "t": 0.0, "schema": TRACE_SCHEMA}
            assert validate_events([meta] + tracer.events) == []

    def test_lazy_index_build_on_first_deep_selection(self):
        for scheduler_class in (SPTFScheduler, AgedSPTFScheduler):
            device = MEMSDevice()
            scheduler = scheduler_class(device)
            assert device._lower_bounds is None  # nothing built yet
            requests = _random_stream(device.capacity_sectors, 400, seed=3)
            # Arrivals out of order, so the arrival index has to sort.
            random.Random(4).shuffle(requests)
            scheduler.add(requests[0])
            scheduler.pop_next(0.0)
            # A single pending request is dispatched without pricing.
            assert scheduler.last_priced == 0
            assert scheduler.last_pruned == 1
            for request in requests[1 : SCAN_DEPTH + 1]:
                scheduler.add(request)
            scheduler.pop_next(0.0)
            # Shallow scans never touch the bound table or the index.
            assert scheduler.last_fast_path == "scan"
            assert scheduler._index is None
            assert device._lower_bounds is None
            for request in requests[SCAN_DEPTH + 1 : 80]:
                scheduler.add(request)
            scheduler.pop_next(0.0)
            # The first deep selection builds both, and from then on the
            # index follows every add and pop.
            assert scheduler.last_fast_path == "pruned"
            assert device._lower_bounds is not None
            for request in requests[80:]:
                scheduler.add(request)
            for _ in range(50):
                scheduler.pop_next(0.0)
            pending = scheduler.pending()
            assert len(pending) == 400 - 53
            entries = [
                (device.request_cylinder(request), seq, request)
                for seq, request in zip(scheduler._queue, pending)
            ]
            assert scheduler._index == sorted(entries)
            if scheduler_class is AgedSPTFScheduler:
                assert scheduler._by_arrival == sorted(
                    (request.arrival_time, seq, cylinder, request)
                    for cylinder, seq, request in entries
                )
