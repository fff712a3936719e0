"""Unit tests for the request lifecycle types."""

import pytest

from repro.sim import SECTOR_BYTES, AccessResult, IOKind, Request, RequestRecord


class TestRequest:
    def test_basic_fields(self):
        request = Request(1.5, lbn=100, sectors=8, kind=IOKind.READ, request_id=3)
        assert request.arrival_time == 1.5
        assert request.lbn == 100
        assert request.sectors == 8
        assert request.kind.is_read

    def test_bytes(self):
        request = Request(0.0, lbn=0, sectors=8, kind=IOKind.WRITE)
        assert request.bytes == 8 * SECTOR_BYTES

    def test_last_lbn(self):
        request = Request(0.0, lbn=10, sectors=5, kind=IOKind.READ)
        assert request.last_lbn == 14

    def test_single_sector_last_lbn(self):
        request = Request(0.0, lbn=7, sectors=1, kind=IOKind.READ)
        assert request.last_lbn == 7

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError, match="negative arrival_time: -0.1"):
            Request(-0.1, lbn=0, sectors=1, kind=IOKind.READ)

    @pytest.mark.parametrize("arrival", [float("nan"), float("inf")])
    def test_non_finite_arrival_rejected(self, arrival):
        with pytest.raises(
            ValueError, match=f"non-finite arrival_time: {arrival}"
        ):
            Request(arrival, lbn=0, sectors=1, kind=IOKind.READ)

    def test_negative_lbn_rejected(self):
        with pytest.raises(ValueError):
            Request(0.0, lbn=-1, sectors=1, kind=IOKind.READ)

    def test_zero_sectors_rejected(self):
        with pytest.raises(ValueError):
            Request(0.0, lbn=0, sectors=0, kind=IOKind.READ)

    def test_write_is_not_read(self):
        assert not IOKind.WRITE.is_read


class TestAccessResult:
    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            AccessResult(total=-1e-6)

    def test_positioning_overlaps_x_and_y(self):
        access = AccessResult(
            total=1e-3, seek_x=0.3e-3, seek_y=0.6e-3, settle=0.2e-3
        )
        # X + settle = 0.5 ms < Y = 0.6 ms: the Y seek hides the X seek.
        assert access.positioning == pytest.approx(0.6e-3)

    def test_positioning_includes_rotation(self):
        access = AccessResult(
            total=9e-3, seek_x=5e-3, rotational_latency=3e-3
        )
        assert access.positioning == pytest.approx(8e-3)


class TestRequestRecord:
    def test_derived_times(self):
        request = Request(1.0, lbn=0, sectors=1, kind=IOKind.READ)
        record = RequestRecord(
            request=request, dispatch_time=1.5, completion_time=1.8
        )
        assert record.queue_time == pytest.approx(0.5)
        assert record.service_time == pytest.approx(0.3)
        assert record.response_time == pytest.approx(0.8)
