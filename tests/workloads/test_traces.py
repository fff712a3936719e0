"""Unit tests for trace replay on a request stream: arrival-time scaling
(``RequestBatch.scale_arrivals``, paper footnote 2) and the ASCII trace
format (``read_trace``/``write_trace``)."""

import io

import pytest

from repro.sim.batch import RequestBatch
from repro.workloads import read_trace, write_trace


def make_trace(times=(0.0, 1.0, 3.0)):
    count = len(times)
    return RequestBatch(
        arrival=times,
        lbn=[i * 100 for i in range(count)],
        sectors=[8] * count,
        is_write=[False] * count,
        rid=range(count),
    )


class TestTrace:
    def test_unsorted_rejected(self):
        with pytest.raises(ValueError, match="line 3: .*not sorted"):
            read_trace(io.StringIO("# unsorted\n1.0 0 1 R\n0.5 0 1 R\n"))

    def test_scale_arrivals_halves_interarrivals(self):
        scaled = make_trace().scale_arrivals(2.0)
        assert scaled.arrival.tolist() == [0.0, 0.5, 1.5]

    def test_scale_factor_one_is_identity(self):
        scaled = make_trace().scale_arrivals(1.0)
        assert scaled.arrival.tolist() == [0.0, 1.0, 3.0]

    def test_scale_preserves_everything_else(self):
        trace = make_trace()
        scaled = trace.scale_arrivals(4.0)
        for name in ("lbn", "sectors", "is_write", "rid"):
            assert getattr(scaled, name).tolist() == getattr(trace, name).tolist()
        assert trace.arrival.tolist() == [0.0, 1.0, 3.0]  # not scaled in place

    def test_scale_rate_doubles(self):
        def rate(batch):
            return (len(batch) - 1) / float(batch.arrival[-1] - batch.arrival[0])

        trace = make_trace(times=tuple(float(i) for i in range(100)))
        assert rate(trace.scale_arrivals(2.0)) == pytest.approx(2 * rate(trace))

    def test_invalid_scale_rejected(self):
        for factor in (0.0, -2.0, float("nan")):
            with pytest.raises(ValueError, match="scale factor"):
                make_trace().scale_arrivals(factor)


class TestTraceIO:
    def test_roundtrip(self):
        trace = RequestBatch(
            arrival=[0.0, 0.25, 1.000000001],
            lbn=[0, 100, 200],
            sectors=[8, 1, 64],
            is_write=[False, True, False],
            rid=range(3),
        )
        buffer = io.StringIO()
        write_trace(trace, buffer)
        assert buffer.getvalue().splitlines() == [
            "# arrival_time lbn sectors R|W",
            "0.000000000 0 8 R",
            "0.250000000 100 1 W",
            "1.000000001 200 64 R",
        ]
        buffer.seek(0)
        loaded = read_trace(buffer)
        assert loaded.to_requests() == trace.to_requests()

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n0.5 100 8 W\n"
        trace = read_trace(io.StringIO(text))
        assert len(trace) == 1
        assert trace.is_write.tolist() == [True]
        assert trace.rid.tolist() == [0]

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            read_trace(io.StringIO("0.5 100 8\n"))

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            read_trace(io.StringIO("0.5 100 8 X\n"))

    @pytest.mark.parametrize("arrival", ["nan", "inf", "-inf"])
    def test_non_finite_arrival_rejected(self, arrival):
        text = f"0.5 100 8 R\n{arrival} 200 8 R\n"
        with pytest.raises(ValueError, match=f"line 2: .*arrival_time: {arrival}"):
            read_trace(io.StringIO(text))

    def test_bad_request_names_its_line(self):
        with pytest.raises(ValueError, match="line 2: negative lbn: -4"):
            read_trace(io.StringIO("0.5 100 8 R\n0.6 -4 8 R\n"))
