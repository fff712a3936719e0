"""Tests for SimConfig and the device/workload registries."""

import pickle

import pytest

from repro.core.scheduling import make_scheduler
from repro.obs.tracer import (
    NULL_TRACER,
    JsonlTracer,
    SamplingTracer,
    read_trace,
)
from repro.sim import (
    DEVICES,
    QueueOverflowError,
    SimConfig,
    Simulation,
    WORKLOADS,
    make_device,
)
from repro.workloads import RandomWorkload


class TestDeviceRegistry:
    def test_names(self):
        assert DEVICES.names() == ["mems", "atlas10k"]

    def test_make_mems(self):
        device = make_device("mems")
        assert device.capacity_sectors == 6_750_000

    def test_aliases(self):
        assert type(make_device("disk")) is type(make_device("atlas10k"))
        assert type(make_device("Atlas-10K")) is type(make_device("atlas10k"))

    def test_unknown_device(self):
        with pytest.raises(ValueError, match="unknown device"):
            make_device("floppy")

    def test_fresh_instance_per_call(self):
        assert make_device("mems") is not make_device("mems")

    def test_params_override_the_parameter_set(self):
        from repro.disk import atlas_10k
        from repro.mems import MEMSParameters

        mems = make_device("mems", {"settle_constants": 2.0})
        assert mems.params == MEMSParameters(settle_constants=2.0)
        disk = make_device("atlas10k", {"rpm": 7200.0})
        assert disk.params.rpm == 7200.0
        assert disk.params.zones == atlas_10k().zones

    @pytest.mark.parametrize("name", ["mems", "atlas10k"])
    def test_unknown_param_names_device_and_field(self, name):
        with pytest.raises(ValueError) as caught:
            make_device(name, {"warp_factor": 9})
        message = str(caught.value)
        assert message.startswith(
            f"unknown {name} device_params field: 'warp_factor'"
        )


class TestWorkloadRegistry:
    def test_names(self):
        assert set(WORKLOADS.names()) == {"random", "uniform", "cello", "tpcc"}

    @pytest.mark.parametrize("name", ["random", "cello", "tpcc"])
    def test_builders_generate(self, name):
        config = SimConfig(workload=name, rate=100.0, num_requests=10)
        device = config.build_device()
        requests = config.build_requests(device)
        assert len(requests) == 10

    def test_uniform_takes_params(self):
        config = SimConfig(
            workload="uniform",
            num_requests=5,
            workload_params={"sectors": 8},
        )
        requests = config.build_requests(config.build_device())
        assert all(r.sectors == 8 for r in requests)


class TestSimConfig:
    def test_defaults_run(self):
        result = SimConfig(num_requests=100).run()
        assert len(result) == 100

    def test_matches_manual_construction(self):
        config = SimConfig(rate=600.0, num_requests=300, warmup=50)
        via_config = config.run()

        device = make_device("mems")
        scheduler = make_scheduler("SPTF", device)
        workload = RandomWorkload(device.capacity_sectors, rate=600.0, seed=42)
        manual = (
            Simulation(device, scheduler, max_queue_depth=4000)
            .run(workload.generate(300))
            .drop_warmup(50)
        )
        assert via_config.mean_response_time == manual.mean_response_time
        assert via_config.end_time == manual.end_time

    def test_picklable(self):
        config = SimConfig(
            scheduler="ASPTF",
            scheduler_params={"age_weight": 0.02},
            workload_params={"read_fraction": 0.5},
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config

    def test_replace(self):
        config = SimConfig()
        faster = config.replace(rate=2000.0)
        assert faster.rate == 2000.0
        assert config.rate == 800.0
        assert faster.device == config.device

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SimConfig().rate = 1.0

    def test_to_dict_round_trip(self):
        config = SimConfig(rate=123.0, seed=7)
        assert SimConfig(**config.to_dict()) == config

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(num_requests=-1)
        with pytest.raises(ValueError):
            SimConfig(warmup=-1)
        # A run takes its worker count from the sweep or fleet call, not
        # from the config, so ``jobs`` is not a field.
        with pytest.raises(TypeError, match="jobs"):
            SimConfig(jobs=0)
        with pytest.raises(ValueError, match="unknown SimConfig field: 'jobs'"):
            SimConfig.from_dict({"jobs": 2})

    def test_warmup_applied(self):
        config = SimConfig(rate=500.0, num_requests=200)
        assert len(config.replace(warmup=50).run()) == len(config.run()) - 50

    def test_saturation_propagates(self):
        config = SimConfig(
            scheduler="FCFS",
            rate=1e6,
            num_requests=20_000,
            max_queue_depth=500,
        )
        with pytest.raises(QueueOverflowError):
            config.run()

    def test_scheduler_params_forwarded(self):
        config = SimConfig(
            scheduler="ASPTF", scheduler_params={"age_weight": 0.05}
        )
        scheduler = config.build_scheduler(config.build_device())
        assert scheduler.age_weight == 0.05

    def test_trace_path_writes_valid_trace(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = SimConfig(rate=600.0, num_requests=50, trace_path=str(path))
        config.run()
        events = read_trace(path)
        assert events[-1]["kind"] == "sim.end"
        assert events[-1]["completed"] == 50

    def test_trace_sample_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trace_sample=0)
        with pytest.raises(ValueError):
            SimConfig(trace_sample=-4)
        assert SimConfig(trace_sample=None).trace_sample is None
        assert SimConfig(trace_sample=8).trace_sample == 8

    def test_build_tracer_types(self, tmp_path):
        assert SimConfig().build_tracer() is NULL_TRACER
        path = str(tmp_path / "t.jsonl")
        plain = SimConfig(trace_path=path).build_tracer()
        assert isinstance(plain, JsonlTracer)
        plain.close()
        unsampled = SimConfig(trace_path=path, trace_sample=1).build_tracer()
        assert isinstance(unsampled, JsonlTracer)
        unsampled.close()
        sampled = SimConfig(trace_path=path, trace_sample=4).build_tracer()
        assert isinstance(sampled, SamplingTracer)
        assert sampled.every == 4
        sampled.sink.close()

    def test_trace_sample_one_is_event_identical(self, tmp_path):
        full, one = tmp_path / "full.jsonl", tmp_path / "one.jsonl"
        config = SimConfig(rate=600.0, num_requests=80)
        config.replace(trace_path=str(full)).run()
        config.replace(trace_path=str(one), trace_sample=1).run()
        assert read_trace(full) == read_trace(one)

    def test_sampled_trace_annotated_and_thinner(self, tmp_path):
        full, sampled = tmp_path / "full.jsonl", tmp_path / "s.jsonl"
        config = SimConfig(rate=600.0, num_requests=200)
        config.replace(trace_path=str(full)).run()
        config.replace(trace_path=str(sampled), trace_sample=5).run()
        full_events = read_trace(full)
        sampled_events = read_trace(sampled)
        meta = sampled_events[0]
        assert meta["sample_every"] == 5
        assert meta["sample_head"] == 16 and meta["sample_tail"] == 16
        assert "sample_every" not in full_events[0]
        assert len(sampled_events) < len(full_events)
        kept = {e["rid"] for e in sampled_events if "rid" in e}
        assert kept == {
            rid for rid in range(200)
            if rid % 5 == 0 or rid < 16 or rid >= 200 - 16
        }

    def test_from_config(self):
        config = SimConfig(device="atlas10k", scheduler="C-LOOK")
        sim = Simulation.from_config(config)
        assert sim.device.capacity_sectors == make_device("atlas10k").capacity_sectors
        assert sim.scheduler.name == "C-LOOK"
        assert sim.max_queue_depth == 4000
        assert not sim.tracer.enabled


class TestFromDict:
    def test_round_trip(self):
        config = SimConfig(
            device="atlas10k",
            scheduler="C-LOOK",
            workload="cello",
            rate=640.0,
            num_requests=123,
            seed=9,
            warmup=10,
            trace_sample=4,
            scheduler_params={"sectors_per_cylinder": 100},
            workload_params={"burstiness": 2.0},
        )
        assert SimConfig.from_dict(config.to_dict()) == config

    def test_round_trip_through_json(self):
        import json

        config = SimConfig(rate=1600.0, max_queue_depth=None)
        restored = SimConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert restored == config

    def test_device_params_round_trip(self):
        import json

        config = SimConfig(
            device_params={"settle_constants": 0.0, "active_tips": 640},
            num_requests=200,
        )
        data = json.loads(json.dumps(config.to_dict()))
        assert data["device_params"] == {
            "settle_constants": 0.0, "active_tips": 640
        }
        restored = SimConfig.from_dict(data)
        assert restored == config
        assert restored.build_device().params == config.build_device().params
        assert restored.run().columns["completion"].tolist() == (
            config.run().columns["completion"].tolist()
        )

    def test_unknown_key_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'scheduler'"):
            SimConfig.from_dict({"schedular": "SPTF"})

    def test_unknown_key_lists_fields(self):
        with pytest.raises(ValueError, match="known fields: device, scheduler"):
            SimConfig.from_dict({"bogus": 1})

    def test_not_a_mapping(self):
        with pytest.raises(TypeError, match="takes a mapping"):
            SimConfig.from_dict(["device", "mems"])

    def test_values_still_validated(self):
        with pytest.raises(ValueError, match="negative num_requests"):
            SimConfig.from_dict({"num_requests": -5})
