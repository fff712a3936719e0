"""Unit tests for the paper's random workload generator (§3), on the
columns of the ``RequestBatch`` every generator returns."""

import math

import pytest

from repro.sim import IOKind
from repro.workloads import (
    RandomWorkload,
    SequentialWorkload,
    UniformFixedWorkload,
)

CAPACITY = 1_000_000


class TestRandomWorkload:
    def test_deterministic_given_seed(self):
        a = RandomWorkload(CAPACITY, rate=100, seed=7).generate(100)
        b = RandomWorkload(CAPACITY, rate=100, seed=7).generate(100)
        assert a.to_requests() == b.to_requests()

    def test_different_seeds_differ(self):
        a = RandomWorkload(CAPACITY, rate=100, seed=7).generate(100)
        b = RandomWorkload(CAPACITY, rate=100, seed=8).generate(100)
        assert a.to_requests() != b.to_requests()

    def test_arrival_rate(self):
        batch = RandomWorkload(CAPACITY, rate=200, seed=1).generate(5000)
        duration = float(batch.arrival[-1])
        assert 5000 / duration == pytest.approx(200, rel=0.1)

    def test_read_fraction_67_percent(self):
        batch = RandomWorkload(CAPACITY, rate=100, seed=2).generate(5000)
        reads = int((~batch.is_write).sum())
        assert reads / 5000 == pytest.approx(0.67, abs=0.03)

    def test_mean_size_4kb(self):
        batch = RandomWorkload(CAPACITY, rate=100, seed=3).generate(5000)
        assert float(batch.sectors.mean()) == pytest.approx(8.0, rel=0.1)

    def test_locations_cover_device(self):
        batch = RandomWorkload(CAPACITY, rate=100, seed=4).generate(2000)
        assert int(batch.lbn.min()) < CAPACITY * 0.05
        assert int(batch.lbn.max()) > CAPACITY * 0.9

    def test_requests_fit_device(self):
        batch = RandomWorkload(CAPACITY, rate=100, seed=5).generate(5000)
        assert int((batch.lbn + batch.sectors).max()) <= CAPACITY
        batch.validate(CAPACITY)

    def test_arrivals_sorted(self):
        batch = RandomWorkload(CAPACITY, rate=100, seed=6).generate(1000)
        times = batch.arrival.tolist()
        assert times == sorted(times)
        assert batch.is_sorted()

    def test_request_ids_sequential(self):
        batch = RandomWorkload(CAPACITY, rate=100, seed=6).generate(100)
        assert batch.rid.tolist() == list(range(100))

    def test_size_truncation(self):
        workload = RandomWorkload(
            CAPACITY, rate=100, mean_size_sectors=100, max_size_sectors=64,
            seed=7,
        )
        assert int(workload.generate(2000).sectors.max()) <= 64

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomWorkload(0, rate=1)
        with pytest.raises(ValueError):
            RandomWorkload(CAPACITY, rate=0)
        with pytest.raises(ValueError):
            RandomWorkload(CAPACITY, rate=1, read_fraction=1.5)
        with pytest.raises(ValueError):
            RandomWorkload(CAPACITY, rate=1, max_size_sectors=CAPACITY + 1)
        with pytest.raises(ValueError):
            RandomWorkload(CAPACITY, rate=1).generate(-1)

    @pytest.mark.parametrize("rate", [math.nan, -math.inf, -1.0])
    def test_rate_that_is_not_positive_rejected(self, rate):
        # NaN passes a ``rate <= 0`` test and used to run to a NaN answer.
        with pytest.raises(ValueError, match="arrival rate must be > 0"):
            RandomWorkload(CAPACITY, rate=rate)

    def test_nan_mean_size_rejected(self):
        with pytest.raises(ValueError, match="mean size must be > 0"):
            RandomWorkload(CAPACITY, rate=1, mean_size_sectors=math.nan)


class TestUniformFixedWorkload:
    def test_all_arrive_at_zero(self):
        batch = UniformFixedWorkload(CAPACITY, sectors=8, seed=1).generate(50)
        assert batch.arrival.tolist() == [0.0] * 50

    def test_fixed_size(self):
        batch = UniformFixedWorkload(CAPACITY, sectors=16, seed=1).generate(50)
        assert batch.sectors.tolist() == [16] * 50

    def test_pool_restriction(self):
        pool = [0, 800, 1600]
        batch = UniformFixedWorkload(
            CAPACITY, sectors=8, lbn_pool=pool, seed=2
        ).generate(100)
        assert set(batch.lbn.tolist()) <= set(pool)

    def test_read_fraction(self):
        batch = UniformFixedWorkload(
            CAPACITY, sectors=8, read_fraction=0.0, seed=3
        ).generate(50)
        assert bool(batch.is_write.all())

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            UniformFixedWorkload(CAPACITY, sectors=8, lbn_pool=[])


class TestSequentialWorkload:
    def test_lbns_march_in_order(self):
        workload = SequentialWorkload(CAPACITY, rate=100, request_sectors=16,
                                      seed=1)
        batch = workload.generate(10)
        assert batch.lbn.tolist() == [i * 16 for i in range(10)]

    def test_wraps_at_extent_end(self):
        workload = SequentialWorkload(
            CAPACITY, rate=100, request_sectors=16, extent_sectors=48, seed=1
        )
        assert workload.generate(5).lbn.tolist() == [0, 16, 32, 0, 16]

    def test_write_stream(self):
        workload = SequentialWorkload(
            CAPACITY, rate=100, kind=IOKind.WRITE, seed=2
        )
        assert bool(workload.generate(5).is_write.all())

    def test_validation(self):
        with pytest.raises(ValueError):
            SequentialWorkload(CAPACITY, rate=0)
        with pytest.raises(ValueError):
            SequentialWorkload(CAPACITY, rate=1, request_sectors=16,
                               extent_sectors=8)
        with pytest.raises(ValueError):
            SequentialWorkload(100, rate=1, start_lbn=90, extent_sectors=20)

    def test_nan_rate_rejected(self):
        with pytest.raises(ValueError, match="arrival rate must be > 0"):
            SequentialWorkload(CAPACITY, rate=math.nan)
