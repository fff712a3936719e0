"""Unit and property tests for simulation metrics."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import (
    AccessResult,
    IOKind,
    Request,
    RequestRecord,
    SimulationResult,
    squared_coefficient_of_variation,
)
from tests.sim.result_reference import columnar


def make_result(response_times):
    records = []
    for index, rt in enumerate(response_times):
        request = Request(float(index), lbn=0, sectors=1, kind=IOKind.READ,
                          request_id=index)
        records.append(
            RequestRecord(
                request=request,
                dispatch_time=float(index),
                completion_time=float(index) + rt,
                access=AccessResult(total=rt),
            )
        )
    end = max(r.completion_time for r in records) if records else 0.0
    return columnar(records, end)


class TestResponseTimeStats:
    def test_mean(self):
        result = make_result([1.0, 2.0, 3.0])
        assert result.mean_response_time == pytest.approx(2.0)

    def test_cv2_constant_is_zero(self):
        result = make_result([5.0] * 10)
        assert result.response_time_cv2 == pytest.approx(0.0)

    def test_cv2_known_value(self):
        # values 1 and 3: mean 2, population variance 1 -> cv2 = 0.25
        result = make_result([1.0, 3.0])
        assert result.response_time_cv2 == pytest.approx(0.25)

    def test_empty_result_raises(self):
        result = SimulationResult()
        with pytest.raises(ValueError):
            _ = result.mean_response_time

    def test_max_response_time(self):
        result = make_result([1.0, 9.0, 4.0])
        assert result.max_response_time == pytest.approx(9.0)

    def test_percentiles(self):
        result = make_result([1.0, 2.0, 3.0, 4.0])
        assert result.response_time_percentile(100) == pytest.approx(4.0)
        assert result.response_time_percentile(50) == pytest.approx(2.5)

    def test_percentile_out_of_range(self):
        result = make_result([1.0])
        with pytest.raises(ValueError):
            result.response_time_percentile(0)
        with pytest.raises(ValueError):
            result.response_time_percentile(101)

    def test_throughput(self):
        result = make_result([1.0, 1.0])
        assert result.throughput == pytest.approx(2 / result.end_time)

    def test_drop_warmup(self):
        result = make_result([100.0, 1.0, 1.0])
        trimmed = result.drop_warmup(1)
        assert len(trimmed) == 2
        assert trimmed.mean_response_time == pytest.approx(1.0)

    def test_drop_warmup_negative_raises(self):
        with pytest.raises(ValueError):
            make_result([1.0]).drop_warmup(-1)


class TestCV2Properties:
    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=2, max_size=50),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_scale_invariance(self, values, scale):
        """cv² is dimensionless: scaling all values leaves it unchanged."""
        base = squared_coefficient_of_variation(values)
        scaled = squared_coefficient_of_variation([v * scale for v in values])
        assert scaled == pytest.approx(base, rel=1e-6, abs=1e-9)

    @given(st.lists(st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=50))
    def test_non_negative(self, values):
        assert squared_coefficient_of_variation(values) >= 0.0

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            squared_coefficient_of_variation([1.0, -1.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            squared_coefficient_of_variation([])


class TestPhaseBreakdown:
    def test_phase_means(self):
        from repro.sim import AccessResult

        records = []
        for index in range(3):
            request = Request(0.0, lbn=0, sectors=1, kind=IOKind.READ,
                              request_id=index)
            records.append(
                RequestRecord(
                    request=request,
                    dispatch_time=0.0,
                    completion_time=1.0,
                    access=AccessResult(
                        total=1.0, seek_x=0.1 * (index + 1), transfer=0.5
                    ),
                )
            )
        result = columnar(records, 1.0)
        breakdown = result.mean_phase_breakdown()
        assert breakdown["seek_x"] == pytest.approx(0.2)
        assert breakdown["transfer"] == pytest.approx(0.5)
        assert breakdown["settle"] == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            SimulationResult().mean_phase_breakdown()


class TestUtilization:
    def test_sums_service_times_left_to_right(self):
        # Ten 0.1 s services over 1.0 s.  Plain left-to-right additions give
        # 0.9999999999999999 on every Python; the built-in sum() gives 1.0
        # from 3.12 on, which would make --json dumps version-dependent.
        records = [
            RequestRecord(
                request=Request(0.0, lbn=0, sectors=1, kind=IOKind.READ,
                                request_id=index),
                dispatch_time=0.0,
                completion_time=0.1,
                access=AccessResult(total=0.1),
            )
            for index in range(10)
        ]
        assert columnar(records, 1.0).utilization == 0.9999999999999999
