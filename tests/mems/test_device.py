"""Unit tests for the full MEMS device model, anchored to the paper's
derived numbers."""

import math
import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mems import MEMSDevice, MEMSParameters
from repro.sim import IOKind, Request


def read(lbn, sectors=8, rid=0):
    return Request(0.0, lbn=lbn, sectors=sectors, kind=IOKind.READ, request_id=rid)


def write(lbn, sectors=8, rid=0):
    return Request(0.0, lbn=lbn, sectors=sectors, kind=IOKind.WRITE, request_id=rid)


class TestPaperNumbers:
    """Derived quantities the paper states for the Table 1 device."""

    def test_capacity(self, mems_device):
        assert mems_device.capacity_sectors == 6_750_000

    def test_8_sector_transfer_is_one_row_pass(self, mems_device):
        """Table 2: a row-aligned 4 KB transfer takes ~0.13 ms."""
        access = mems_device.service(read(1_000_000 - 1_000_000 % 540))
        assert access.transfer == pytest.approx(90 / 700e3, rel=1e-6)

    def test_334_sector_transfer_2_19_ms(self, mems_device):
        """Table 2: a track-aligned 334-sector read transfers in 2.19 ms."""
        access = mems_device.service(read(540 * 1000, sectors=334))
        assert access.transfer == pytest.approx(17 * 90 / 700e3, rel=1e-6)
        assert access.transfer == pytest.approx(2.19e-3, rel=0.01)

    def test_average_random_4kb_access_sub_millisecond(self, mems_device):
        """Section 2.1 quotes ~0.5 ms; our model (consistent with the
        paper's own Fig. 9 numbers) lands at 0.7-0.85 ms — same order,
        an order of magnitude below the disk's ~8 ms."""
        import random

        rng = random.Random(9)
        total = 0.0
        n = 400
        for index in range(n):
            lbn = rng.randrange(0, mems_device.capacity_sectors - 8)
            total += mems_device.service(read(lbn, rid=index)).total
        average = total / n
        assert 0.4e-3 < average < 1.0e-3

    def test_streaming_near_79_mb_per_s(self, mems_device):
        total = 0.0
        lbn = 0
        for index in range(40):
            access = mems_device.service(read(lbn, sectors=540, rid=index))
            total += access.total
            lbn += 540
        bandwidth = 40 * 540 * 512 / total
        assert bandwidth > 70e6  # 79.6 MB/s media rate minus turnarounds


class TestPositioningStructure:
    def test_settle_charged_on_cylinder_change(self, mems_device):
        params = mems_device.params
        mems_device.service(read(0))
        access = mems_device.service(read(mems_device.geometry.sectors_per_cylinder))
        assert access.settle == pytest.approx(params.settle_time)

    def test_no_settle_within_cylinder(self, mems_device):
        mems_device.service(read(0))
        access = mems_device.service(read(40))  # row 2 of the same cylinder
        assert access.settle == 0.0
        assert access.seek_x == 0.0

    def test_sequential_requests_stream_without_positioning(self, mems_device):
        mems_device.service(read(0, sectors=20))
        access = mems_device.service(read(20, sectors=20))
        # The sled exits the first access at access velocity right at the
        # next row boundary: positioning is (near) zero.
        assert access.positioning < 1e-6

    def test_no_settle_device(self, no_settle_device):
        no_settle_device.service(read(0))
        access = no_settle_device.service(
            read(no_settle_device.geometry.sectors_per_cylinder * 100)
        )
        assert access.settle == 0.0
        assert access.seek_x > 0.0

    def test_bidirectional_choice_reduces_rmw(self, mems_device):
        """Writing just-read sectors should cost about a turnaround, not a
        full reposition to the row start (section 6.2)."""
        geometry = mems_device.geometry
        mid_row = geometry.rows_per_track // 2
        lbn = 540 * 1000 + mid_row * geometry.sectors_per_row
        first = mems_device.service(read(lbn))
        second = mems_device.service(write(lbn, rid=1))
        assert second.total - second.transfer < 0.12e-3

    def test_larger_x_seeks_take_longer(self, mems_device):
        spc = mems_device.geometry.sectors_per_cylinder
        times = []
        for distance in (10, 100, 1000):
            device = MEMSDevice()
            device.service(read(0))
            access = device.service(read(distance * spc, rid=1))
            times.append(access.seek_x)
        assert times[0] < times[1] < times[2]


class TestEstimateOracle:
    def test_estimate_does_not_mutate(self, mems_device):
        state_before = mems_device.sled_state
        mems_device.estimate_positioning(read(3_000_000))
        assert mems_device.sled_state == state_before
        assert mems_device.last_lbn == 0

    def test_estimate_close_to_served_positioning(self, mems_device):
        """The fast oracle must agree with the full plan's positioning."""
        import random

        rng = random.Random(4)
        for index in range(100):
            lbn = rng.randrange(0, mems_device.capacity_sectors - 16)
            request = read(lbn, sectors=rng.choice((1, 8, 16)), rid=index)
            estimate = mems_device.estimate_positioning(request)
            access = mems_device.service(request)
            assert estimate == pytest.approx(
                access.positioning, rel=1e-6, abs=1e-9
            ) or estimate <= access.positioning + 1e-9

    def test_estimate_prefers_near_requests(self, mems_device):
        mems_device.service(read(1_000_000))
        near = mems_device.estimate_positioning(read(1_000_500))
        far = mems_device.estimate_positioning(read(6_000_000))
        assert near < far


def _limits(exact, rng):
    """Limits below, at and above ``exact``."""
    return (
        0.0,
        exact / 2,
        math.nextafter(exact, -math.inf),
        exact,
        math.nextafter(exact, math.inf),
        2 * exact,
        rng.uniform(0.0, 2 * exact),
    )


class TestEstimateLimit:
    """``estimate_positioning(request, now, limit)`` is exact at or below
    ``limit`` and anything in ``(limit, exact]`` above it."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        state=st.sampled_from(["+y", "-y", "rest"]),
        bidirectional=st.booleans(),
        memoize=st.booleans(),
    )
    def test_limit_contract(self, seed, state, bidirectional, memoize):
        # A unidirectional sled always leaves an access moving +y.
        assume(bidirectional or state != "-y")
        rng = random.Random(seed)
        device = MEMSDevice(
            MEMSParameters(bidirectional_access=bidirectional), memoize=memoize
        )

        def random_request():
            sectors = rng.choice((1, 8, 64, 334))
            lbn = rng.randrange(0, device.capacity_sectors - sectors)
            return read(lbn, sectors)

        for _ in range(rng.randint(1, 4)):
            device.service(random_request())
        if state == "rest":
            device.stop_sled()
            assert device.sled_state.vy == 0.0
        else:
            sign = 1.0 if state == "+y" else -1.0
            for _ in range(200):
                if device.sled_state.vy * sign > 0:
                    break
                device.service(random_request())
            assert device.sled_state.vy * sign > 0
        before = device.sled_state
        for _ in range(20):
            request = random_request()
            exact = device.estimate_positioning(request)
            assert device.estimate_positioning(request, 0.0, math.inf) == exact
            for limit in _limits(exact, rng):
                value = device.estimate_positioning(request, 0.0, limit)
                if exact <= limit:
                    assert value == exact
                else:
                    assert limit < value <= exact
        assert device.sled_state == before

    def test_limit_below_the_y_floor_skips_the_x_seek(self, mems_device):
        # Far in X and near in Y: the Y floor is below the X seek, so a
        # limit under the floor comes back as the floor, not the exact
        # max(X seek + settle, Y seek).
        mems_device.service(read(0))
        far = read(mems_device.capacity_sectors - 2700)
        exact = mems_device.estimate_positioning(far)
        floor = mems_device.estimate_positioning(far, 0.0, 0.0)
        assert 0.0 < floor < exact


class TestStateTracking:
    def test_last_lbn_updates(self, mems_device):
        mems_device.service(read(100, sectors=8))
        assert mems_device.last_lbn == 107

    def test_sled_exits_at_access_velocity(self, mems_device):
        mems_device.service(read(0))
        assert abs(mems_device.sled_state.vy) == pytest.approx(
            mems_device.params.access_velocity
        )

    def test_stop_sled(self, mems_device):
        mems_device.service(read(0))
        elapsed = mems_device.stop_sled()
        assert elapsed > 0
        assert mems_device.sled_state.vy == 0.0

    def test_stop_idle_sled_is_free(self, mems_device):
        assert mems_device.stop_sled() == 0.0

    def test_bits_accessed(self, mems_device):
        access = mems_device.service(read(0, sectors=8))
        assert access.bits_accessed == 8 * 64 * 90


class TestMultiSegment:
    def test_track_crossing_adds_turnaround(self, mems_device):
        spt = mems_device.geometry.sectors_per_track
        access = mems_device.service(read(spt - 20, sectors=40))
        assert access.turnarounds > 0

    def test_400kb_request(self, mems_device):
        access = mems_device.service(read(0, sectors=800))
        assert access.transfer == pytest.approx(
            40 * 90 / 700e3, rel=1e-6
        )
        assert access.total < 7e-3

    def test_cylinder_crossing(self, mems_device):
        spc = mems_device.geometry.sectors_per_cylinder
        access = mems_device.service(read(spc - 40, sectors=80))
        assert access.turnarounds > 0
        assert access.total < 3e-3


class TestValidation:
    def test_request_beyond_capacity(self, mems_device):
        with pytest.raises(ValueError):
            mems_device.service(read(mems_device.capacity_sectors - 4, sectors=8))

    @pytest.mark.parametrize("memoize", [True, False])
    @pytest.mark.parametrize(
        "lbn, sectors",
        [(6_750_000, 1), (6_749_999, 2), (6_749_000, 5_000), (-1, 8), (0, 0)],
    )
    def test_out_of_range_raises_the_validate_message_every_time(
        self, memoize, lbn, sectors
    ):
        device = MEMSDevice(memoize=memoize)
        # Request._make skips the constructor's own checks, as ingest does.
        request = Request._make((0.0, lbn, sectors, IOKind.READ, 0))
        with pytest.raises(ValueError) as expected:
            device.validate(request)
        message = re.escape(str(expected.value))
        before = device.sled_state
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                device.estimate_positioning(request)
            with pytest.raises(ValueError, match=message):
                device.service(request)
        assert device.sled_state == before
        assert (device.current_cylinder, device.last_lbn) == (0, 0)


class TestScaledDevice:
    def test_small_parameter_set_works(self, small_mems_params):
        device = MEMSDevice(small_mems_params)
        assert device.capacity_sectors > 0
        access = device.service(read(device.capacity_sectors // 2, sectors=4))
        assert access.total > 0


class TestBidirectionalAblation:
    def test_unidirectional_rmw_slower(self):
        from repro.mems import MEMSParameters

        bi = MEMSDevice()
        uni = MEMSDevice(MEMSParameters().with_unidirectional_access())
        geometry = bi.geometry
        lbn = 540 * 1000 + 13 * geometry.sectors_per_row + 8
        for device in (bi, uni):
            device.service(read(lbn))
        rewrite_bi = bi.service(write(lbn, rid=1))
        rewrite_uni = uni.service(write(lbn, rid=1))
        assert rewrite_uni.total > rewrite_bi.total

    def test_unidirectional_multi_track_never_flips(self):
        from repro.mems import MEMSParameters

        uni = MEMSDevice(MEMSParameters().with_unidirectional_access())
        access = uni.service(read(540 * 100, sectors=1080))
        assert access.total > 0
        assert uni.sled_state.vy > 0  # exits moving +Y
