"""The memoized disk model must compute exactly what the plain one does.

:class:`~tests.disk.disk_reference.ReferenceDisk` re-derives every request's
geometry and seeks per call.  Driven through hypothesis-drawn request
sequences that cross track, cylinder and zone boundaries, mix reads and
writes, switch surfaces on one cylinder and run at arbitrary times, the
production :class:`DiskDevice` (with its shared profile memo, and without)
must return bit-equal estimates and ``AccessResult`` fields.  SPTF and
ASPTF over the production device must dispatch in the order the plain
full-scan SPTF does over the reference disk.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduling.sptf import AgedSPTFScheduler, SPTFScheduler
from repro.disk import DiskDevice, atlas_10k
from repro.sim.request import IOKind, Request
from tests.core.scheduling.sptf_reference import ReferenceSPTF, drain_order
from tests.disk.disk_reference import ReferenceDisk

PARAMS = atlas_10k()
REF = ReferenceDisk(PARAMS)
CAPACITY = REF.capacity_sectors
MAX_SECTORS = 1400  # up to five tracks of the outer zone
MODES = ("zone", "cylinder", "track", "same-cylinder", "anywhere")

times = st.floats(min_value=0.0, max_value=1e7, allow_nan=False)


def draw_request(data, reference, request_id):
    """One request placed by a drawn mode; all but ``anywhere`` start at
    most ``MAX_SECTORS`` before a boundary, so most of them cross it."""
    mode = data.draw(st.sampled_from(MODES))
    integers = st.integers
    if mode == "zone":
        base = REF.zone_start[data.draw(integers(1, len(PARAMS.zones) - 1))]
    elif mode == "cylinder":
        base = REF.lbn_of(data.draw(integers(1, PARAMS.cylinders - 1)), 0, 0)
    elif mode == "track":
        base = REF.lbn_of(
            data.draw(integers(0, PARAMS.cylinders - 1)),
            data.draw(integers(1, PARAMS.surfaces - 1)),
            0,
        )
    elif mode == "same-cylinder":
        # Where the head rests, on another surface: a head switch.
        surface = (
            reference.surface + data.draw(integers(1, PARAMS.surfaces - 1))
        ) % PARAMS.surfaces
        base = REF.lbn_of(reference.cylinder, surface, 0)
    else:
        base = data.draw(integers(0, CAPACITY - 1))
    lbn = min(max(0, base - data.draw(integers(0, MAX_SECTORS))), CAPACITY - 1)
    sectors = min(data.draw(integers(1, MAX_SECTORS)), CAPACITY - lbn)
    kind = data.draw(st.sampled_from((IOKind.READ, IOKind.WRITE)))
    return Request(0.0, lbn=lbn, sectors=sectors, kind=kind,
                   request_id=request_id)


@pytest.mark.parametrize("memoize", [True, False])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_service_and_estimates_are_bit_equal(memoize, data):
    device = DiskDevice(PARAMS, memoize=memoize)
    reference = ReferenceDisk(PARAMS)
    for request_id in range(data.draw(st.integers(1, 12))):
        request = draw_request(data, reference, request_id)
        now = data.draw(times)
        assert device.estimate_positioning(request, now) == (
            reference.estimate_positioning(request, now)
        )
        access = device.service(request, now)
        expected = reference.service(request, now)
        for field in access._fields:
            assert getattr(access, field) == getattr(expected, field), field
        assert device.current_cylinder == reference.cylinder
        assert device.last_lbn == reference.last_lbn


def stream(data, count):
    """Boundary-crossing reads and writes arriving 1 ms apart; a
    ``same-cylinder`` request starts on the cylinder where the one before
    it ends."""
    previous = ReferenceDisk(PARAMS)
    requests = []
    for index in range(count):
        request = draw_request(data, previous, index)
        requests.append(request._replace(arrival_time=index * 1e-3))
        previous.cylinder, previous.surface, _, _ = REF.segments(
            request.lbn, request.sectors
        )[-1]
    return requests


@pytest.mark.parametrize("variant", ["SPTF", "ASPTF"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_sptf_dispatch_order_matches_the_reference(variant, data):
    requests = stream(data, data.draw(st.integers(2, 48)))
    reference = ReferenceDisk(PARAMS)
    device = DiskDevice(PARAMS)
    if variant == "SPTF":
        production = SPTFScheduler(device)
        oracle = ReferenceSPTF(reference)
    else:
        production = AgedSPTFScheduler(device, age_weight=0.01)
        oracle = ReferenceSPTF(reference, age_weight=0.01, name="ASPTF")
    assert drain_order(device, production, requests) == (
        drain_order(reference, oracle, requests)
    )
