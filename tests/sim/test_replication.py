"""Tests for replication and confidence intervals."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.sim import ReplicationResult, replicate
from repro.sim.replication import _t_quantile

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.999)


class TestReplicate:
    def test_deterministic_experiment(self):
        result = replicate(lambda seed: 5.0, seeds=range(4))
        assert result.mean == 5.0
        assert result.stdev == 0.0
        assert result.half_width == 0.0
        assert result.contains(5.0)

    def test_known_interval(self):
        # Samples 1..5: mean 3, stdev sqrt(2.5); t(0.975, 4) = 2.776.
        result = replicate(lambda seed: float(seed), seeds=range(1, 6))
        assert result.mean == pytest.approx(3.0)
        assert result.half_width == pytest.approx(
            2.776 * (2.5 ** 0.5) / (5 ** 0.5), rel=1e-3
        )
        low, high = result.interval
        assert low < 3.0 < high

    def test_wider_confidence_wider_interval(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        narrow = replicate(lambda s: samples[s], seeds=range(4),
                           confidence=0.90)
        wide = replicate(lambda s: samples[s], seeds=range(4),
                         confidence=0.99)
        assert wide.half_width > narrow.half_width

    def test_single_run_has_no_interval(self):
        result = replicate(lambda seed: 1.0, seeds=[0])
        assert result.mean == 1.0
        with pytest.raises(ValueError):
            _ = result.half_width
        assert "single run" in str(result)

    def test_str_formats(self):
        result = replicate(lambda seed: float(seed), seeds=range(3))
        assert "95% CI" in str(result)

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate(lambda s: 1.0, seeds=[])
        with pytest.raises(ValueError):
            replicate(lambda s: 1.0, seeds=[1], confidence=1.5)

    @pytest.mark.parametrize("confidence", [1.5, -0.2, 0.0, 1.0, math.nan])
    def test_result_rejects_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(ValueError, match="confidence"):
            ReplicationResult((1.0, 2.0, 3.0), confidence=confidence)

    def test_interval_is_plain_floats(self):
        result = ReplicationResult((1.0, 2.0, 3.0), confidence=0.95)
        assert type(result.half_width) is float
        assert [type(bound) for bound in result.interval] == [float, float]
        assert result.contains(2.0)
        assert str(result) == "2 ± 2.5 (95% CI, n=3)"

    def test_with_real_simulation(self):
        from repro import MEMSDevice, RandomWorkload, Simulation
        from repro.core.scheduling import FCFSScheduler

        def run(seed):
            device = MEMSDevice()
            workload = RandomWorkload(
                device.capacity_sectors, rate=300.0, seed=seed
            )
            result = Simulation(device, FCFSScheduler()).run(
                workload.generate(200)
            )
            return result.mean_response_time

        summary = replicate(run, seeds=range(4))
        assert 0.3e-3 < summary.mean < 3e-3
        assert summary.half_width < summary.mean  # reasonably tight


class TestTQuantile:
    """The standard-library Student-t quantile behind ``half_width``."""

    @pytest.mark.parametrize(
        "p, df, expected",
        [
            (0.975, 1, 12.706204736174694),
            (0.975, 4, 2.7764451051977934),
            (0.975, 10, 2.228138851986274),
            (0.995, 30, 2.7499956535672254),
            (0.95, 2, 2.9199855803537242),
        ],
    )
    def test_pinned_values(self, p, df, expected):
        assert _t_quantile(p, df) == pytest.approx(expected, rel=1e-14)

    def test_matches_scipy_reference(self):
        stats = pytest.importorskip("scipy.stats")
        dfs = list(range(1, 201)) + sorted(
            {round(200 * 50 ** (k / 16)) for k in range(1, 17)}
        )
        assert dfs[-1] == 10_000
        for confidence in CONFIDENCES:
            p = 0.5 + confidence / 2.0
            reference = stats.t.ppf(p, dfs)
            for df, expected in zip(dfs, reference):
                assert _t_quantile(p, df) == pytest.approx(
                    float(expected), rel=1e-10
                ), (confidence, df)

    def test_tails_of_zero_and_one(self):
        assert _t_quantile(0.5, 7) == 0.0
        assert _t_quantile(1.0, 7) == math.inf
        assert _t_quantile(0.0, 7) == -math.inf

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(min_value=0.5, max_value=1.0, exclude_max=True),
        df=st.integers(min_value=1, max_value=10_000),
    )
    def test_odd_symmetric_about_one_half(self, p, df):
        assert _t_quantile(1.0 - p, df) == -_t_quantile(p, df)

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
        gap=st.floats(min_value=1e-6, max_value=0.5),
        df=st.integers(min_value=1, max_value=10_000),
    )
    def test_strictly_increasing_in_p(self, p, gap, df):
        higher = p + gap
        assume(higher <= 1.0 - 1e-9)
        assert _t_quantile(p, df) < _t_quantile(higher, df)


class TestUtilization:
    def test_utilization_between_zero_and_one(self):
        from repro import MEMSDevice, RandomWorkload, Simulation
        from repro.core.scheduling import FCFSScheduler

        device = MEMSDevice()
        workload = RandomWorkload(device.capacity_sectors, rate=500.0, seed=1)
        result = Simulation(device, FCFSScheduler()).run(
            workload.generate(300)
        )
        assert 0.0 < result.utilization < 1.0

    def test_utilization_grows_with_load(self):
        from repro import MEMSDevice, RandomWorkload, Simulation
        from repro.core.scheduling import FCFSScheduler

        def utilization(rate):
            device = MEMSDevice()
            workload = RandomWorkload(
                device.capacity_sectors, rate=rate, seed=2
            )
            result = Simulation(device, FCFSScheduler()).run(
                workload.generate(300)
            )
            return result.utilization

        assert utilization(800.0) > utilization(100.0)
