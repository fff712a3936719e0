"""Unit tests for the synthetic Cello-like and TPC-C-like generators,
asserting the first-order characteristics the substitutions promise on the
columns of the ``RequestBatch`` they return."""

import math

import pytest

from repro.nputil import get_numpy
from repro.workloads import CelloLikeWorkload, TPCCLikeWorkload

CAPACITY = 6_750_000  # the default MEMS device


def read_fraction(batch) -> float:
    return float((~batch.is_write).mean())


class TestCelloLike:
    def test_deterministic(self):
        a = CelloLikeWorkload(CAPACITY, seed=1).generate(500)
        b = CelloLikeWorkload(CAPACITY, seed=1).generate(500)
        assert a.lbn.tolist() == b.lbn.tolist()

    def test_write_heavy(self):
        batch = CelloLikeWorkload(CAPACITY, seed=2).generate(3000)
        assert read_fraction(batch) < 0.5

    def test_small_requests(self):
        batch = CelloLikeWorkload(CAPACITY, seed=3).generate(3000)
        assert float(batch.sectors.mean()) < 16

    def test_bursty_arrivals(self):
        """Inter-arrival cv² must exceed a Poisson process's 1.0."""
        batch = CelloLikeWorkload(CAPACITY, seed=4).generate(4000)
        gaps = get_numpy().diff(batch.arrival)
        mean = gaps.mean()
        var = ((gaps - mean) ** 2).mean()
        assert var / mean**2 > 1.5

    def test_limited_footprint(self):
        batch = CelloLikeWorkload(CAPACITY, seed=5).generate(3000)
        low = int(batch.lbn.min())
        high = int((batch.lbn + batch.sectors - 1).max())
        assert high - low + 1 < CAPACITY * 0.5

    def test_hot_region_concentration(self):
        workload = CelloLikeWorkload(CAPACITY, seed=6)
        batch = workload.generate(4000)
        hot = int((batch.lbn < workload.hot_region_sectors).sum())
        assert hot / len(batch) > 0.25

    def test_requests_fit(self):
        batch = CelloLikeWorkload(CAPACITY, seed=7).generate(2000)
        assert int((batch.lbn + batch.sectors).max()) <= CAPACITY
        batch.validate(CAPACITY)

    def test_validation(self):
        with pytest.raises(ValueError):
            CelloLikeWorkload(100)
        with pytest.raises(ValueError):
            CelloLikeWorkload(CAPACITY, burst_rate=0)
        with pytest.raises(ValueError):
            CelloLikeWorkload(CAPACITY, write_fraction=2.0)
        with pytest.raises(ValueError, match="burst parameters"):
            CelloLikeWorkload(CAPACITY, mean_burst_length=math.nan)

    def test_nan_burst_rate_rejected(self):
        with pytest.raises(ValueError, match="burst parameters"):
            CelloLikeWorkload(CAPACITY, burst_rate=math.nan)


class TestTPCCLike:
    def test_deterministic(self):
        a = TPCCLikeWorkload(CAPACITY, seed=1).generate(500)
        b = TPCCLikeWorkload(CAPACITY, seed=1).generate(500)
        assert a.lbn.tolist() == b.lbn.tolist()

    def test_page_sized_requests(self):
        batch = TPCCLikeWorkload(CAPACITY, seed=2).generate(2000)
        assert batch.sectors.tolist() == [16] * 2000

    def test_database_footprint(self):
        workload = TPCCLikeWorkload(CAPACITY, seed=3)
        batch = workload.generate(2000)
        last_lbn = batch.lbn + batch.sectors - 1
        assert int(last_lbn.max()) <= workload.database_sectors

    def test_small_interlbn_distances_among_pending(self):
        """The Fig. 7(b) property: many near-simultaneous requests land
        very close together in LBN space."""
        batch = TPCCLikeWorkload(CAPACITY, seed=4).generate(4000)
        close_pairs = 0
        window = []
        for arrival, lbn in zip(batch.arrival.tolist(), batch.lbn.tolist()):
            window = [
                (time, other) for time, other in window
                if arrival - time < 0.005
            ]
            for _, other in window:
                if abs(other - lbn) <= 16 * 40:
                    close_pairs += 1
                    break
            window.append((arrival, lbn))
        assert close_pairs > len(batch) * 0.1

    def test_mixed_read_write(self):
        batch = TPCCLikeWorkload(CAPACITY, seed=5).generate(3000)
        assert 0.35 < read_fraction(batch) < 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            TPCCLikeWorkload(100)
        with pytest.raises(ValueError):
            TPCCLikeWorkload(CAPACITY, transaction_rate=0)
        with pytest.raises(ValueError):
            TPCCLikeWorkload(CAPACITY, hot_clusters=0)
        with pytest.raises(ValueError, match="transaction parameters"):
            TPCCLikeWorkload(CAPACITY, pages_per_transaction=math.nan)

    def test_nan_transaction_rate_rejected(self):
        with pytest.raises(ValueError, match="transaction parameters"):
            TPCCLikeWorkload(CAPACITY, transaction_rate=math.nan)


@pytest.mark.parametrize("generator", [CelloLikeWorkload, TPCCLikeWorkload])
class TestScale:
    """``scale`` replays the scale-1 stream with inter-arrival times divided
    by the factor (paper footnote 2), through config data alone."""

    @pytest.mark.parametrize("scale", [0.5, 2.0, 3.0, 16.0])
    def test_equals_scale_arrivals_bit_for_bit(self, generator, scale):
        unscaled = generator(CAPACITY, seed=3).generate(800)
        scaled = generator(CAPACITY, seed=3, scale=scale).generate(800)
        assert scaled.to_requests() == (
            unscaled.scale_arrivals(scale).to_requests()
        )
        assert scaled.arrival.tolist() == [
            arrival / scale for arrival in unscaled.arrival.tolist()
        ]

    def test_reaches_the_workload_through_config(self, generator):
        from repro.sim import SimConfig

        name = "cello" if generator is CelloLikeWorkload else "tpcc"
        config = SimConfig(
            workload=name, rate=20.0, num_requests=300, workload_params={"scale": 4.0}
        )
        batch = config.build_requests(config.build_device())
        rate = {"cello": "burst_rate", "tpcc": "transaction_rate"}[name]
        expected = generator(CAPACITY, seed=42, **{rate: 20.0}).generate(300)
        assert batch.to_requests() == (
            expected.scale_arrivals(4.0).to_requests()
        )

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_non_positive_scale_rejected(self, generator, scale):
        with pytest.raises(ValueError, match="scale factor"):
            generator(CAPACITY, scale=scale)
