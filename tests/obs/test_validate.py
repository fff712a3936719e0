"""Tests for trace validation and diffing (repro.obs.validate)."""

import json

import pytest

from repro.obs.tracer import TRACE_SCHEMA
from repro.obs.validate import (
    diff_traces,
    main,
    validate_events,
    validate_file,
)
from repro.sim import SimConfig


def meta():
    return {"kind": "trace.meta", "t": 0.0, "schema": TRACE_SCHEMA}


def write_trace(path, events):
    path.write_text(
        "".join(json.dumps(event, sort_keys=True) + "\n" for event in events)
    )


class TestValidateEvents:
    def test_empty(self):
        assert validate_events([]) == ["<trace>: empty trace"]

    def test_valid_minimal(self):
        events = [
            meta(),
            {"kind": "sim.start", "t": 0.0, "requests": 1},
            {"kind": "sim.end", "t": 1.0, "completed": 1},
        ]
        assert validate_events(events) == []

    def test_missing_header(self):
        errors = validate_events([{"kind": "sim.start", "t": 0.0, "requests": 1}])
        assert any("trace.meta" in error for error in errors)

    def test_wrong_schema(self):
        bad = dict(meta(), schema="other/1")
        errors = validate_events([bad])
        assert any("schema" in error for error in errors)

    def test_time_backwards(self):
        events = [
            meta(),
            {"kind": "sim.start", "t": 5.0, "requests": 1},
            {"kind": "sim.end", "t": 1.0, "completed": 1},
        ]
        errors = validate_events(events)
        assert any("backwards" in error for error in errors)

    def test_unknown_kind(self):
        errors = validate_events([meta(), {"kind": "weird", "t": 0.0}])
        assert any("unknown event kind" in error for error in errors)

    def test_missing_required_field(self):
        errors = validate_events([meta(), {"kind": "sim.start", "t": 0.0}])
        assert any("missing fields requests" in error for error in errors)

    def test_phase_sum_violation(self):
        access = {
            "kind": "dev.access",
            "t": 0.0,
            "rid": 0,
            "lbn": 0,
            "sectors": 1,
            "io": "R",
            "seek_x": 0.0,
            "seek_y": 0.0,
            "settle": 0.0,
            "rotational_latency": 0.0,
            "transfer": 1.0,
            "turnarounds": 0.0,
            "positioning": 0.5,
            "total": 1.0,  # but positioning+transfer+turnarounds == 1.5
        }
        errors = validate_events([meta(), access])
        assert any("phases sum" in error for error in errors)


class TestValidateFile:
    def test_real_trace_is_valid(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        SimConfig(
            rate=600.0, num_requests=150, trace_path=str(path)
        ).run()
        assert validate_file(str(path)) == []

    def test_missing_file(self, tmp_path):
        errors = validate_file(str(tmp_path / "nope.jsonl"))
        assert errors and "nope.jsonl" in errors[0]


class TestDiffTraces:
    def test_identical_runs_diff_clean(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        config = SimConfig(rate=600.0, num_requests=100)
        config.replace(trace_path=str(a)).run()
        config.replace(trace_path=str(b)).run()
        assert diff_traces(str(a), str(b)) == []

    def test_different_schedulers_diverge(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        config = SimConfig(rate=900.0, num_requests=100)
        config.replace(trace_path=str(a)).run()
        config.replace(trace_path=str(b), scheduler="FCFS").run()
        differences = diff_traces(str(a), str(b))
        assert any("first divergence" in d for d in differences)

    def test_count_delta_reported(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, [meta(), {"kind": "sim.start", "t": 0.0, "requests": 1}])
        write_trace(b, [meta()])
        differences = diff_traces(str(a), str(b))
        assert any("event count: sim.start" in d for d in differences)


class TestLineNumbers:
    def test_errors_carry_one_based_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_trace(
            path,
            [
                meta(),
                {"kind": "sim.start", "t": 0.0, "requests": 1},
                {"kind": "sim.start", "t": 0.1},  # line 3: missing fields
                {"kind": "weird", "t": 0.2},  # line 4: unknown kind
            ],
        )
        errors = validate_file(str(path))
        assert any(error.startswith(f"{path}:3:") for error in errors)
        assert any(error.startswith(f"{path}:4:") for error in errors)
        # no in-memory [index] locations leak into file mode
        assert not any("[" in error.split(":")[0] for error in errors)

    def test_gz_trace_validates_with_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        SimConfig(
            rate=600.0, num_requests=100, trace_path=str(path)
        ).run()
        assert validate_file(str(path)) == []


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        SimConfig(rate=600.0, num_requests=50, trace_path=str(path)).run()
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        write_trace(path, [{"kind": "sim.start", "t": 0.0, "requests": 1}])
        assert main([str(path)]) == 1

    def test_diff_mode(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, [meta()])
        write_trace(b, [meta()])
        assert main(["--diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_validate_gz_ok(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl.gz"
        SimConfig(rate=600.0, num_requests=50, trace_path=str(path)).run()
        assert main([str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_unreadable_file_exits_one(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.jsonl")]) == 1

    def test_diff_unreadable_exits_one(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        write_trace(a, [meta()])
        missing = tmp_path / "missing.jsonl"
        assert main(["--diff", str(a), str(missing)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_diff_divergent_exits_one(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(a, [meta(), {"kind": "sim.start", "t": 0.0, "requests": 1}])
        write_trace(b, [meta()])
        assert main(["--diff", str(a), str(b)]) == 1

    def test_usage_errors_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([])  # no paths at all
        assert excinfo.value.code == 2
        a = tmp_path / "a.jsonl"
        write_trace(a, [meta()])
        with pytest.raises(SystemExit) as excinfo:
            main(["--diff", str(a)])  # --diff needs exactly two
        assert excinfo.value.code == 2


class TestDamagedTraces:
    """A damaged ``.jsonl.gz`` ends both trace CLIs with one located line."""

    @pytest.fixture
    def trace(self, tmp_path):
        path = tmp_path / "fresh.jsonl.gz"
        SimConfig(rate=700.0, num_requests=600, trace_path=str(path)).run()
        return path

    @staticmethod
    def _clis(path, capsys):
        """(validate exit, output, analyze exit, output) for ``path``."""
        from repro.obs.analyze import main as analyze_main

        validate_code = main([str(path)])
        validated = capsys.readouterr()
        analyze_code = analyze_main([str(path)])
        analyzed = capsys.readouterr()
        assert validated.err == "" and analyzed.out == ""
        return validate_code, validated.out, analyze_code, analyzed.err

    def test_truncated_trace_is_located(self, trace, tmp_path, capsys):
        import zlib

        data = trace.read_bytes()
        cut = data[: len(data) // 2]
        path = tmp_path / "cut.jsonl.gz"
        path.write_bytes(cut)
        # Every complete line of the readable prefix is read; the line the
        # cut runs through is the first that cannot be.
        readable = zlib.decompressobj(31).decompress(cut)
        line = readable.count(b"\n") + 1
        prefix = f"{path}:{line}: damaged trace: "
        v_code, v_out, a_code, a_err = self._clis(path, capsys)
        assert (v_code, a_code) == (1, 1)
        assert v_out.startswith(prefix) and v_out.count("\n") == 1
        assert a_err.startswith("error: " + prefix)
        assert a_err.count("\n") == 1

    def test_corrupt_deflate_stream_is_located(self, trace, tmp_path, capsys):
        import gzip
        import zlib

        lines = gzip.decompress(trace.read_bytes()).splitlines(keepends=True)
        keep = len(lines) // 2
        deflate = zlib.compressobj(9, zlib.DEFLATED, -15)
        body = deflate.compress(b"".join(lines[:keep]))
        body += deflate.flush(zlib.Z_FULL_FLUSH)
        # A stored block whose length check fails: zlib.error mid-stream.
        bad_block = b"\x00" + (16).to_bytes(2, "little") * 2
        path = tmp_path / "corrupt.jsonl.gz"
        path.write_bytes(
            b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xff" + body + bad_block
        )
        v_code, v_out, a_code, a_err = self._clis(path, capsys)
        assert (v_code, a_code) == (1, 1)
        location, message = v_out.split(": ", 1)
        name, line = location.rsplit(":", 1)
        assert name == str(path) and 1 <= int(line) <= keep + 1
        assert message.startswith("damaged trace: ")
        assert "invalid stored block lengths" in message
        assert a_err == "error: " + v_out
