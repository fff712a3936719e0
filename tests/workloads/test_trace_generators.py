"""Unit tests for the synthetic Cello-like and TPC-C-like generators,
asserting the first-order characteristics the substitutions promise."""

import statistics

import pytest

from repro.workloads import CelloLikeWorkload, TPCCLikeWorkload

CAPACITY = 6_750_000  # the default MEMS device


class TestCelloLike:
    def test_deterministic(self):
        a = CelloLikeWorkload(CAPACITY, seed=1).generate(500)
        b = CelloLikeWorkload(CAPACITY, seed=1).generate(500)
        assert [r.lbn for r in a] == [r.lbn for r in b]

    def test_write_heavy(self):
        trace = CelloLikeWorkload(CAPACITY, seed=2).generate(3000)
        assert trace.read_fraction < 0.5

    def test_small_requests(self):
        trace = CelloLikeWorkload(CAPACITY, seed=3).generate(3000)
        assert trace.mean_size_sectors < 16

    def test_bursty_arrivals(self):
        """Inter-arrival cv² must exceed a Poisson process's 1.0."""
        trace = CelloLikeWorkload(CAPACITY, seed=4).generate(4000)
        gaps = [
            b.arrival_time - a.arrival_time
            for a, b in zip(trace.requests, trace.requests[1:])
        ]
        mean = statistics.fmean(gaps)
        var = statistics.fmean((g - mean) ** 2 for g in gaps)
        assert var / mean**2 > 1.5

    def test_limited_footprint(self):
        trace = CelloLikeWorkload(CAPACITY, seed=5).generate(3000)
        assert trace.footprint_sectors < CAPACITY * 0.5

    def test_hot_region_concentration(self):
        workload = CelloLikeWorkload(CAPACITY, seed=6)
        trace = workload.generate(4000)
        hot = sum(
            1 for r in trace if r.lbn < workload.hot_region_sectors
        )
        assert hot / len(trace) > 0.25

    def test_requests_fit(self):
        trace = CelloLikeWorkload(CAPACITY, seed=7).generate(2000)
        assert all(r.last_lbn < CAPACITY for r in trace)

    def test_validation(self):
        with pytest.raises(ValueError):
            CelloLikeWorkload(100)
        with pytest.raises(ValueError):
            CelloLikeWorkload(CAPACITY, burst_rate=0)
        with pytest.raises(ValueError):
            CelloLikeWorkload(CAPACITY, write_fraction=2.0)


class TestTPCCLike:
    def test_deterministic(self):
        a = TPCCLikeWorkload(CAPACITY, seed=1).generate(500)
        b = TPCCLikeWorkload(CAPACITY, seed=1).generate(500)
        assert [r.lbn for r in a] == [r.lbn for r in b]

    def test_page_sized_requests(self):
        trace = TPCCLikeWorkload(CAPACITY, seed=2).generate(2000)
        assert all(r.sectors == 16 for r in trace)

    def test_database_footprint(self):
        workload = TPCCLikeWorkload(CAPACITY, seed=3)
        trace = workload.generate(2000)
        assert all(r.last_lbn <= workload.database_sectors for r in trace)

    def test_small_interlbn_distances_among_pending(self):
        """The Fig. 7(b) property: many near-simultaneous requests land
        very close together in LBN space."""
        trace = TPCCLikeWorkload(CAPACITY, seed=4).generate(4000)
        close_pairs = 0
        window = []
        for request in trace:
            window = [
                r for r in window
                if request.arrival_time - r.arrival_time < 0.005
            ]
            for other in window:
                if abs(other.lbn - request.lbn) <= 16 * 40:
                    close_pairs += 1
                    break
            window.append(request)
        assert close_pairs > len(trace.requests) * 0.1

    def test_mixed_read_write(self):
        trace = TPCCLikeWorkload(CAPACITY, seed=5).generate(3000)
        assert 0.35 < trace.read_fraction < 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            TPCCLikeWorkload(100)
        with pytest.raises(ValueError):
            TPCCLikeWorkload(CAPACITY, transaction_rate=0)
        with pytest.raises(ValueError):
            TPCCLikeWorkload(CAPACITY, hot_clusters=0)


@pytest.mark.parametrize("generator", [CelloLikeWorkload, TPCCLikeWorkload])
class TestScale:
    """``scale`` replays the scale-1 stream with inter-arrival times divided
    by the factor (paper footnote 2), through config data alone."""

    @pytest.mark.parametrize("scale", [0.5, 2.0, 16.0])
    def test_equals_scale_arrivals_bit_for_bit(self, generator, scale):
        unscaled = generator(CAPACITY, seed=3).generate(800)
        scaled = generator(CAPACITY, seed=3, scale=scale).generate(800)
        assert scaled.requests == unscaled.scale_arrivals(scale).requests
        batch = generator(CAPACITY, seed=3, scale=scale).generate_batch(800)
        assert batch.to_requests() == scaled.requests

    def test_reaches_the_workload_through_config(self, generator):
        from repro.sim import SimConfig

        name = "cello" if generator is CelloLikeWorkload else "tpcc"
        config = SimConfig(
            workload=name, rate=20.0, num_requests=300, workload_params={"scale": 4.0}
        )
        batch = config.build_requests(config.build_device())
        rate = {"cello": "burst_rate", "tpcc": "transaction_rate"}[name]
        expected = generator(CAPACITY, seed=42, **{rate: 20.0}).generate(300)
        assert batch.to_requests() == expected.scale_arrivals(4.0).requests

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_non_positive_scale_rejected(self, generator, scale):
        with pytest.raises(ValueError, match="scale factor"):
            generator(CAPACITY, scale=scale)
