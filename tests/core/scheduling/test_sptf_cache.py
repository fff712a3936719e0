"""The device caches must never change which request SPTF dispatches.

``MEMSDevice(memoize=True)`` and ``DiskDevice(memoize=True)`` cache the
geometry, the seek planner's maneuvers and the per-request profiles —
pure functions of the request address or the maneuver endpoints.  Each
test replays an identical seeded request stream through a memoizing and
an unmemoized stack and asserts the *dispatch order* — the only thing the
simulation can observe — is identical, including tie-breaking, or that
the oracle returns bitwise-equal estimates.
"""

import random

import pytest

from repro.core.scheduling.sptf import AgedSPTFScheduler, SPTFScheduler
from repro.disk.atlas10k import atlas_10k
from repro.disk.device import DiskDevice
from repro.mems.device import MEMSDevice
from repro.sim.request import IOKind, Request


def _request_stream(capacity, count, seed):
    rng = random.Random(seed)
    requests = []
    for index in range(count):
        sectors = rng.choice((1, 2, 4, 8, 16, 64))
        lbn = rng.randrange(0, capacity - sectors)
        requests.append(
            Request(float(index), lbn=lbn, sectors=sectors, kind=IOKind.READ)
        )
    return requests


def _drain_order(device, scheduler, requests, refill_every=None):
    """Dispatch order of a queue drained (with optional mid-drain refills,
    exercising estimates computed against a half-drained queue)."""
    pending = list(requests)
    preload = len(pending) // 2
    for request in pending[:preload]:
        scheduler.add(request)
    refill = iter(pending[preload:])
    order = []
    now = 0.0
    while len(scheduler):
        request = scheduler.pop_next(now)
        order.append((request.lbn, request.sectors))
        now += device.service(request, now).total
        if refill_every and len(order) % refill_every == 0:
            extra = next(refill, None)
            if extra is not None:
                scheduler.add(extra)
    return order


def _make_stack(device_kind, scheduler_kind, optimized):
    if device_kind == "mems":
        device = MEMSDevice(memoize=optimized)
    else:
        device = DiskDevice(atlas_10k(), memoize=optimized)
    if scheduler_kind == "sptf":
        scheduler = SPTFScheduler(device)
    else:
        scheduler = AgedSPTFScheduler(device)
    return device, scheduler


@pytest.mark.parametrize("device_kind", ["mems", "disk"])
@pytest.mark.parametrize("scheduler_kind", ["sptf", "asptf"])
def test_caches_do_not_change_selection(device_kind, scheduler_kind):
    capacity = (
        MEMSDevice().capacity_sectors
        if device_kind == "mems"
        else DiskDevice(atlas_10k()).capacity_sectors
    )
    requests = _request_stream(capacity, 120, seed=99)

    device, scheduler = _make_stack(device_kind, scheduler_kind, True)
    cached = _drain_order(device, scheduler, requests, refill_every=3)
    device, scheduler = _make_stack(device_kind, scheduler_kind, False)
    uncached = _drain_order(device, scheduler, requests, refill_every=3)

    assert cached == uncached


def test_mems_estimates_bitwise_equal():
    cached = MEMSDevice()
    uncached = MEMSDevice(memoize=False)
    requests = _request_stream(cached.capacity_sectors, 200, seed=3)
    for request in requests:
        assert cached.estimate_positioning(request, 0.0) == (
            uncached.estimate_positioning(request, 0.0)
        )
        # Advance both sleds identically so estimates cover many states.
        assert cached.service(request, 0.0) == uncached.service(request, 0.0)


def test_out_of_range_request_still_raises_with_caches_on():
    device = MEMSDevice()
    bad = Request(0.0, lbn=device.capacity_sectors, sectors=4, kind=IOKind.READ)
    with pytest.raises(ValueError):
        device.estimate_positioning(bad, 0.0)
