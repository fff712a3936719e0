"""Unit tests for the shared sweep harness."""

import pytest

from repro.experiments.common import (
    SweepPoint,
    random_workload_sweep,
    run_sim_config,
    scheduling_sweep,
    sweep_sim_configs,
)
from repro.sim import QueueOverflowError, SimConfig


class TestRunWorkload:
    """One workload run through ``run_sim_config``, the unit every sweep
    point is made of.  ``TestSimConfigSweep`` checks that it returns
    ``None`` on overflow and a result otherwise; these check that it is
    ``SimConfig.run`` in every other respect."""

    def test_returns_result(self):
        config = SimConfig(scheduler="FCFS", rate=200, num_requests=100, seed=1)
        assert run_sim_config(config).records == config.run().records

    def test_saturation_returns_none(self):
        # The None stands for the overflow SimConfig.run raises, nothing else.
        config = SimConfig(
            scheduler="FCFS",
            rate=100_000,
            num_requests=300,
            seed=1,
            max_queue_depth=50,
        )
        with pytest.raises(QueueOverflowError):
            config.run()
        assert run_sim_config(config) is None

    def test_warmup_dropped(self):
        config = SimConfig(
            scheduler="FCFS", rate=200, num_requests=100, seed=1, warmup=40
        )
        assert len(run_sim_config(config)) == 60


class TestSweeps:
    def test_sweep_structure(self):
        sweep = random_workload_sweep(
            device="mems",
            algorithms=("FCFS", "SPTF"),
            rates=(100.0, 300.0),
            num_requests=80,
            seed=1,
            warmup=10,
        )
        assert sweep.algorithms() == ["FCFS", "SPTF"]
        assert sweep.xs() == [100.0, 300.0]
        for algorithm in sweep.algorithms():
            for point in sweep.series[algorithm]:
                assert isinstance(point, SweepPoint)
                assert not point.saturated
                assert point.mean_response_time > 0

    def test_saturated_point_marked(self):
        sweep = random_workload_sweep(
            device="mems",
            algorithms=("FCFS",),
            rates=(100_000.0,),
            num_requests=300,
            seed=1,
            warmup=0,
            max_queue_depth=50,
        )
        assert sweep.series["FCFS"][0].saturated

    def test_points_plot_at_the_callers_xs(self):
        base = SimConfig(workload="cello", rate=10.0, num_requests=120)
        configs = [
            base.replace(workload_params={"scale": scale}) for scale in (1, 4)
        ]
        sweep = scheduling_sweep(
            configs, ("FCFS", "SPTF"), (1.0, 4.0), x_label="trace scale factor"
        )
        assert sweep.x_label == "trace scale factor"
        assert sweep.xs() == [1.0, 4.0]
        by_config = sweep_sim_configs(
            [config.replace(scheduler="SPTF") for config in configs]
        )
        assert [point.x for point in by_config] == [10.0, 10.0]  # the rates
        assert [point.mean_response_time for point in sweep.series["SPTF"]] == [
            point.mean_response_time for point in by_config
        ]

    def test_xs_must_match_configs(self):
        with pytest.raises(ValueError):
            scheduling_sweep(
                [SimConfig(num_requests=10)], ("FCFS",), (1.0, 2.0), "x"
            )


class TestSimConfigSweep:
    def test_device_params_reach_the_device(self):
        kwargs = dict(
            algorithms=("FCFS", "SPTF"),
            rates=(300.0, 600.0),
            num_requests=250,
            warmup=25,
        )
        stock = random_workload_sweep(device="mems", **kwargs)
        same = random_workload_sweep(
            device="mems", device_params={"settle_constants": 1.0}, **kwargs
        )
        damped = random_workload_sweep(
            device="mems", device_params={"settle_constants": 0.0}, **kwargs
        )
        assert stock.series == same.series
        assert damped.series != stock.series

    def test_run_sim_config_maps_overflow_to_none(self):
        saturating = SimConfig(
            scheduler="FCFS",
            rate=1e6,
            num_requests=20_000,
            max_queue_depth=300,
        )
        assert run_sim_config(saturating) is None
        assert run_sim_config(SimConfig(num_requests=50)) is not None

    def test_sweep_sim_configs(self):
        base = SimConfig(num_requests=150, warmup=10)
        points = sweep_sim_configs(
            [base.replace(rate=rate) for rate in (200.0, 400.0)]
        )
        assert [point.x for point in points] == [200.0, 400.0]
        assert all(not point.saturated for point in points)
