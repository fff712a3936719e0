"""Unit tests for the disk mechanical model."""

import dataclasses
import gc
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import DiskAddress, DiskDevice, DiskGeometry, atlas_10k
from repro.disk import device as disk_device
from repro.sim import IOKind, Request


def read(lbn, sectors=8, rid=0):
    return Request(0.0, lbn=lbn, sectors=sectors, kind=IOKind.READ, request_id=rid)


def write(lbn, sectors=8, rid=0):
    return Request(0.0, lbn=lbn, sectors=sectors, kind=IOKind.WRITE, request_id=rid)


class TestServiceComponents:
    def test_rotational_latency_bounded_by_revolution(self, atlas_device):
        rev = atlas_device.params.revolution_time
        rng = random.Random(2)
        clock = 0.0
        for index in range(200):
            lbn = rng.randrange(0, atlas_device.capacity_sectors - 8)
            access = atlas_device.service(read(lbn, rid=index), now=clock)
            assert 0.0 <= access.rotational_latency < rev + 1e-9
            clock += access.total

    def test_same_cylinder_has_no_seek(self, atlas_device):
        atlas_device.service(read(0), now=0.0)
        access = atlas_device.service(read(16), now=0.1)
        assert access.seek_x == 0.0

    def test_seek_grows_with_distance(self, atlas_params):
        geometry = DiskGeometry(atlas_params)
        base = geometry.lbn(DiskAddress(0, 0, 0))
        results = []
        for cylinder in (10, 100, 5000):
            device = DiskDevice(atlas_params)
            device.service(read(base), now=0.0)
            target = geometry.lbn(DiskAddress(cylinder, 0, 0))
            access = device.service(read(target), now=0.1)
            results.append(access.seek_x)
        assert results[0] < results[1] < results[2]

    def test_average_random_4kb_service(self, atlas_device):
        """~5 ms seek + ~3 ms latency + transfer: about 8 ms."""
        rng = random.Random(3)
        clock = 0.0
        total = 0.0
        n = 300
        for index in range(n):
            lbn = rng.randrange(0, atlas_device.capacity_sectors - 8)
            access = atlas_device.service(read(lbn, rid=index), now=clock)
            clock += access.total
            total += access.total
        assert 7e-3 < total / n < 9.5e-3

    def test_full_track_rmw_has_zero_reposition(self, atlas_params):
        """Table 2: reading a full track leaves the head exactly at the
        track start, so the rewrite begins immediately."""
        geometry = DiskGeometry(atlas_params)
        device = DiskDevice(atlas_params)
        start = geometry.lbn(DiskAddress(50, 0, 0))
        first = device.service(read(start, sectors=334), now=0.0)
        second = device.service(write(start, sectors=334), now=first.total)
        assert second.rotational_latency == pytest.approx(0.0, abs=1e-9)

    def test_small_rmw_waits_most_of_a_revolution(self, atlas_params):
        geometry = DiskGeometry(atlas_params)
        device = DiskDevice(atlas_params)
        start = geometry.lbn(DiskAddress(50, 0, 0))
        first = device.service(read(start, sectors=8), now=0.0)
        second = device.service(write(start, sectors=8), now=first.total)
        rev = atlas_params.revolution_time
        assert second.rotational_latency > 0.9 * (rev - first.transfer)

    def test_sequential_streaming_rate(self, atlas_device):
        clock = 0.0
        total = 0.0
        lbn = 0
        sectors = 334
        for index in range(30):
            access = atlas_device.service(read(lbn, sectors=sectors, rid=index), now=clock)
            clock += access.total
            total += access.total
            lbn += sectors
        bandwidth = 30 * sectors * 512 / total
        assert bandwidth > 22e6  # near the 28.6 MB/s outer media rate

    def test_head_switch_charged_within_cylinder(self, atlas_device):
        spt = atlas_device.geometry.sectors_per_track(0)
        atlas_device.service(read(0), now=0.0)
        access = atlas_device.service(read(spt, rid=1), now=0.1)
        assert access.seek_x == pytest.approx(
            atlas_device.params.head_switch_time
        )


class TestEstimate:
    def test_estimate_does_not_mutate(self, atlas_device):
        before = atlas_device.current_cylinder
        atlas_device.estimate_positioning(read(10**7), now=0.0)
        assert atlas_device.current_cylinder == before

    def test_estimate_matches_service_positioning(self, atlas_device):
        rng = random.Random(5)
        clock = 0.0
        for index in range(100):
            # Single-sector requests never cross a track boundary, so the
            # whole rotational latency is the positioning latency.
            lbn = rng.randrange(0, atlas_device.capacity_sectors - 1)
            request = read(lbn, sectors=1, rid=index)
            estimate = atlas_device.estimate_positioning(request, now=clock)
            access = atlas_device.service(request, now=clock)
            assert estimate == pytest.approx(
                access.seek_x + access.rotational_latency, rel=1e-9
            )
            clock += access.total

    def test_estimate_time_dependence(self, atlas_device):
        """The platter turns while the device waits: the same request has
        different rotational latency at different times."""
        request = read(10**6)
        rev = atlas_device.params.revolution_time
        e0 = atlas_device.estimate_positioning(request, now=0.0)
        e1 = atlas_device.estimate_positioning(request, now=rev / 3)
        assert e0 != pytest.approx(e1, abs=1e-6)


class TestEstimateLimit:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), warmup=st.integers(0, 4))
    def test_limit_is_accepted_and_the_answer_stays_exact(self, seed, warmup):
        # The oracle contract allows any value in (limit, exact] above the
        # limit; the disk always answers exactly.
        rng = random.Random(seed)
        device = DiskDevice(atlas_10k())
        clock = rng.uniform(0.0, 1.0)

        def random_request():
            sectors = rng.choice((1, 8, 64))
            lbn = rng.randrange(0, device.capacity_sectors - sectors)
            kind = rng.choice((IOKind.READ, IOKind.WRITE))
            return Request(0.0, lbn=lbn, sectors=sectors, kind=kind)

        for _ in range(warmup):
            clock += device.service(random_request(), now=clock).total
        for _ in range(20):
            request = random_request()
            now = clock + rng.uniform(0.0, 0.02)
            exact = device.estimate_positioning(request, now)
            assert device.estimate_positioning(request, now, math.inf) == exact
            for limit in (
                0.0,
                exact / 2,
                math.nextafter(exact, -math.inf),
                exact,
                math.nextafter(exact, math.inf),
                2 * exact,
            ):
                assert device.estimate_positioning(request, now, limit) == exact


class TestState:
    def test_last_lbn_updates(self, atlas_device):
        atlas_device.service(read(1000, sectors=4))
        assert atlas_device.last_lbn == 1003

    def test_validation(self, atlas_device):
        with pytest.raises(ValueError):
            atlas_device.service(read(atlas_device.capacity_sectors, sectors=1))


class TestProfileMemo:
    """The ``(lbn, sectors)`` profile memo shared by memoizing devices."""

    def test_devices_with_equal_parameters_share_one_memo(self):
        first = DiskDevice(atlas_10k())
        first.service(read(1000))
        second = DiskDevice(atlas_10k())
        assert second.geometry is first.geometry
        assert (1000, 8) in second._profiles

    def test_dropped_device_and_geometry_die_by_reference_counting(self):
        """Nothing on a device or its geometry refers back to it, so both
        are freed with the collector off, the geometry once another
        parameter set takes the memo's one slot."""
        params = dataclasses.replace(atlas_10k(), write_settle_time=1e-4)
        gc.disable()
        try:
            device = DiskDevice(params)
            device.service(write(1000, sectors=700))
            device.estimate_positioning(read(10**6), now=0.1)
            device_alive = weakref.ref(device)
            geometry_alive = weakref.ref(device.geometry)
            del device
            assert device_alive() is None
            DiskDevice(atlas_10k())
            assert geometry_alive() is None

            private = DiskDevice(params, memoize=False)
            private.service(read(1000, sectors=700))
            geometry_alive = weakref.ref(private.geometry)
            del private
            assert geometry_alive() is None
        finally:
            gc.enable()

    def test_memo_is_cleared_when_full(self, monkeypatch):
        monkeypatch.setattr(disk_device, "_PROFILE_CACHE_LIMIT", 8)
        device = DiskDevice(atlas_10k())
        device._profiles.clear()
        sizes = []
        for index in range(20):
            device.service(read(index * 1000), now=index * 0.01)
            sizes.append(len(device._profiles))
        assert sizes == [index % 8 + 1 for index in range(20)]

    @pytest.mark.parametrize("memoize", [True, False])
    def test_service_repeats_the_explicit_message(self, memoize):
        device = DiskDevice(atlas_10k(), memoize=memoize)
        bad = read(device.capacity_sectors - 4, sectors=8)
        expected = (
            f"request [{bad.lbn}, {bad.last_lbn}] exceeds device capacity of "
            f"{device.capacity_sectors} sectors"
        )
        for _ in range(2):
            with pytest.raises(ValueError) as raised:
                device.service(bad)
            assert str(raised.value) == expected

    @pytest.mark.parametrize("memoize", [True, False])
    def test_validates_only_when_deriving_a_profile(self, memoize, monkeypatch):
        device = DiskDevice(atlas_10k(), memoize=memoize)
        checked = []
        monkeypatch.setattr(device, "validate", checked.append)
        if memoize:
            device._profiles.pop((5000, 8), None)
        for now in (0.0, 0.01, 0.02):
            device.service(read(5000), now=now)
        device.estimate_positioning(read(5000), now=0.03)
        assert len(checked) == (1 if memoize else 4)

    @pytest.mark.parametrize("memoize", [True, False])
    def test_out_of_range_request_raises(self, memoize):
        device = DiskDevice(atlas_10k(), memoize=memoize)
        for bad in (
            read(device.capacity_sectors - 4, sectors=8),
            read(device.capacity_sectors, sectors=1),
        ):
            for _ in range(2):  # a failed derivation leaves nothing behind
                with pytest.raises(ValueError):
                    device.service(bad)
                with pytest.raises(ValueError):
                    device.estimate_positioning(bad)
