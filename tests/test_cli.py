"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.device == "mems"
        assert args.scheduler == "SPTF"
        assert args.rate == 800.0

    def test_bad_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--device", "floppy"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "6,750,000 sectors" in out
        assert "Quantum Atlas 10K" in out
        assert "79.6 MB/s" in out

    def test_simulate_runs(self, capsys):
        code = main(
            [
                "simulate",
                "--device", "mems",
                "--scheduler", "FCFS",
                "--rate", "200",
                "--requests", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean response" in out

    def test_simulate_sxtf_on_disk(self, capsys):
        code = main(
            [
                "simulate",
                "--device", "atlas10k",
                "--scheduler", "SXTF",
                "--rate", "40",
                "--requests", "150",
            ]
        )
        assert code == 0
        assert "SXTF" in capsys.readouterr().out

    def test_simulate_saturation_exit_code(self, capsys):
        code = main(
            [
                "simulate",
                "--device", "mems",
                "--scheduler", "FCFS",
                "--rate", "1000000",
                "--requests", "25000",
            ]
        )
        assert code == 1
        assert "saturated" in capsys.readouterr().out

    def test_simulate_with_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs.validate import validate_file

        trace = tmp_path / "run.jsonl"
        code = main(
            [
                "simulate",
                "--scheduler", "SPTF",
                "--rate", "600",
                "--requests", "200",
                "--trace", str(trace),
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert str(trace) in out
        assert "=== metrics ===" in out
        assert "response_time_s" in out
        assert validate_file(str(trace)) == []

    def test_simulate_trace_sample_flag(self, tmp_path, capsys):
        from repro.obs.tracer import read_trace
        from repro.obs.validate import validate_file

        trace = tmp_path / "sampled.jsonl.gz"
        code = main(
            [
                "simulate",
                "--rate", "600",
                "--requests", "200",
                "--trace", str(trace),
                "--trace-sample", "10",
            ]
        )
        assert code == 0
        assert validate_file(str(trace)) == []
        events = read_trace(str(trace))
        assert events[0]["sample_every"] == 10
        kept = {e["rid"] for e in events if "rid" in e}
        assert all(
            rid % 10 == 0 or rid < 16 or rid >= 200 - 16 for rid in kept
        )

    def test_simulate_metrics_match_percentiles(self, capsys):
        from repro.sim import SimConfig

        code = main(
            [
                "simulate",
                "--rate", "600",
                "--requests", "300",
                "--metrics",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        config = SimConfig(
            rate=600.0, num_requests=300, warmup=30, max_queue_depth=10_000
        )
        expected = config.run().percentiles(50, 95, 99)
        # the metrics table renders times in ms with 3 decimals
        for value in expected.values():
            assert f"{value * 1e3:.3f}" in out

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure05", "table02", "ablations"):
            assert name in out

    def test_experiments_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["experiments", "figure99"])

    def test_experiments_single(self, capsys):
        assert main(["experiments", "table02"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out


class TestUnknownComponentNames:
    """Unknown component names surface registry did-you-mean messages."""

    def test_unknown_scheduler_exits_two_with_suggestion(self, capsys):
        code = main(["simulate", "--scheduler", "SPFT", "--requests", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scheduler: 'SPFT'" in err
        assert "did you mean 'SPTF'?" in err
        assert "Traceback" not in err

    def test_unknown_scheduler_without_suggestion_lists_registered(
        self, capsys
    ):
        code = main(
            ["simulate", "--scheduler", "elevator9000", "--requests", "10"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown scheduler" in err
        assert "registered:" in err

    def test_make_scheduler_error_message(self):
        from repro.core.scheduling import make_scheduler

        with pytest.raises(ValueError, match="did you mean 'SPTF'"):
            make_scheduler("SPFT", device=None)

    def test_make_layout_error_message(self):
        from repro.core.layout import make_layout

        with pytest.raises(ValueError, match="unknown layout"):
            make_layout("zigzag", device=None)

    def test_make_device_error_message(self):
        from repro.sim.config import make_device

        with pytest.raises(ValueError, match="unknown device: 'floppy'"):
            make_device("floppy")


class TestConfigFlag:
    def test_simulate_from_config_file(self, tmp_path, capsys):
        import json

        from repro.sim import SimConfig

        path = tmp_path / "sim.json"
        config = SimConfig(scheduler="FCFS", rate=400.0, num_requests=200)
        path.write_text(json.dumps(config.to_dict()))
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mems + FCFS @ 400 req/s, 200 requests" in out

    def test_simulate_config_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text('{"schedular": "SPTF"}')
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "did you mean 'scheduler'" in err
        assert "Traceback" not in err

    def test_simulate_config_missing_file(self, capsys):
        assert main(["simulate", "--config", "/nonexistent/sim.json"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scheduler, params",
        [("FCFS", {"prune": "never"}), ("SPTF", {"age_weight": 0.5})],
    )
    def test_simulate_config_unknown_scheduler_option(
        self, tmp_path, capsys, scheduler, params
    ):
        import json

        from repro.sim import SimConfig

        path = tmp_path / "sim.json"
        config = SimConfig(
            scheduler=scheduler, scheduler_params=params, num_requests=50
        )
        path.write_text(json.dumps(config.to_dict()))
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (option,) = params
        assert captured.err == (
            f"error: scheduler {scheduler} does not accept option "
            f"{option!r}; accepted: none\n"
        )


    def test_simulate_config_device_params(self, tmp_path, capsys):
        import json

        from repro.sim import SimConfig

        path = tmp_path / "sim.json"
        config = SimConfig(
            device_params={"settle_constants": 0.0},
            rate=900.0,
            num_requests=300,
            warmup=30,
        )
        path.write_text(json.dumps(config.to_dict()))
        assert main(["simulate", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        mean = config.run().mean_response_time
        assert f"  mean response : {mean * 1e3:9.3f} ms" in out
        stock = config.replace(device_params={}).run().mean_response_time
        assert f"{stock * 1e3:9.3f}" != f"{mean * 1e3:9.3f}"

    def test_simulate_config_unknown_device_param(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text('{"device_params": {"settle_constnts": 0.0}}')
        assert main(["simulate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(
            "error: unknown mems device_params field: 'settle_constnts' "
            "(did you mean 'settle_constants'?)"
        )


class TestFleetCommand:
    def test_uniform_fleet_from_flags(self, capsys):
        code = main([
            "fleet", "--members", "2", "--requests", "400",
            "--rate", "1600", "--jobs", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet of 2 members, router lbn-range" in out
        assert "m00 mems+SPTF" in out
        assert "m01 mems+SPTF" in out

    def test_fleet_from_config_file(self, tmp_path, capsys):
        import json

        from repro.fleet import FleetConfig

        path = tmp_path / "fleet.json"
        fleet = FleetConfig.uniform(
            3, router="round-robin", rate=1200.0, num_requests=300
        )
        path.write_text(json.dumps(fleet.to_dict()))
        assert main(["fleet", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "fleet of 3 members, router round-robin" in out

    def test_fleet_trace_and_report(self, tmp_path, capsys):
        from repro.obs.validate import validate_file

        trace = tmp_path / "fleet.jsonl"
        report = tmp_path / "fleet.md"
        code = main([
            "fleet", "--members", "2", "--requests", "300",
            "--rate", "1600", "--trace", str(trace),
            "--report", str(report),
        ])
        assert code == 0
        assert validate_file(str(trace)) == []
        text = report.read_text()
        assert "per-member breakdown" in text
        assert "merged trace" in text

    def test_fleet_unknown_router(self, capsys):
        code = main(["fleet", "--router", "zorp", "--requests", "10"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown router" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_fleet_config_unknown_scheduler_option(
        self, tmp_path, capsys, jobs
    ):
        import json

        from repro.fleet import FleetConfig
        from repro.sim import SimConfig

        path = tmp_path / "fleet.json"
        member = SimConfig(
            scheduler="ASPTF", scheduler_params={"prune": "never"}
        )
        fleet = FleetConfig.uniform(
            2, member=member, rate=1200.0, num_requests=200
        )
        path.write_text(json.dumps(fleet.to_dict()))
        assert main(["fleet", "--config", str(path), "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: scheduler ASPTF does not accept option 'prune'; "
            "accepted: 'age_weight'\n"
        )

    def test_fleet_config_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        path.write_text('{"members": [{}], "routr": "hash"}')
        assert main(["fleet", "--config", str(path)]) == 2
        assert "did you mean 'router'" in capsys.readouterr().err


class TestEmptyAndMalformedInputs:
    """Runs with nothing to report and unreadable configs exit 2 cleanly."""

    def _error(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    def test_simulate_zero_requests(self, capsys):
        line = self._error(capsys, ["simulate", "--requests", "0"])
        assert "no completed requests" in line
        assert "0 requests" in line

    def test_simulate_warmup_drops_everything(self, tmp_path, capsys):
        path = tmp_path / "sim.json"
        path.write_text('{"num_requests": 50, "warmup": 50}')
        line = self._error(capsys, ["simulate", "--config", str(path)])
        assert "warmup 50 drops all 50 requests" in line

    def test_fleet_zero_requests(self, capsys):
        line = self._error(
            capsys, ["fleet", "--members", "2", "--requests", "0"]
        )
        assert "no completed requests" in line

    def test_fleet_member_warmup_drops_everything(self, tmp_path, capsys):
        import json

        from repro.fleet import FleetConfig
        from repro.sim import SimConfig

        path = tmp_path / "fleet.json"
        fleet = FleetConfig.uniform(
            2, member=SimConfig(warmup=100), rate=800.0, num_requests=60
        )
        path.write_text(json.dumps(fleet.to_dict()))
        line = self._error(capsys, ["fleet", "--config", str(path)])
        assert "drops all 60 routed requests" in line

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_experiments_bad_repro_jobs(self, capsys, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        line = self._error(capsys, ["experiments", "table02"])
        assert f"REPRO_JOBS must be an integer >= 1, got '{value}'" in line
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["simulate", "fleet"])
    def test_malformed_json_names_file_line_col(
        self, tmp_path, capsys, command
    ):
        path = tmp_path / "bad.json"
        path.write_text('{"rate": 800,\n  oops\n}\n')
        line = self._error(capsys, [command, "--config", str(path)])
        assert f"{path}:2:3: invalid JSON" in line
