"""End-to-end fleet tests: determinism across jobs, merge, equivalence."""

import json
import math

import pytest

from repro.fleet import FleetConfig, shard_requests, shard_trace_path
from repro.fleet.merge import merge_results
from repro.obs.analyze import analyze_trace
from repro.obs.report import render_fleet_report
from repro.obs.tracer import read_trace
from repro.obs.validate import validate_file
from repro.sim import SimConfig
from repro.sim.statistics import SimulationResult


def small_fleet(**changes):
    defaults = dict(rate=3200.0, num_requests=2000)
    defaults.update(changes)
    return FleetConfig.uniform(4, **defaults)


class TestDeterminismAcrossJobs:
    def test_merged_outputs_bit_identical(self, tmp_path):
        """jobs=1 and jobs=4 produce byte-identical trace/dict/report."""
        trace = tmp_path / "fleet.jsonl"
        fleet = small_fleet(trace_path=str(trace))

        sequential = fleet.run(jobs=1)
        seq_dict = json.dumps(sequential.to_dict(), sort_keys=True)
        seq_trace = trace.read_bytes()
        seq_report = render_fleet_report(
            sequential, "md", analysis=analyze_trace(str(trace))
        )

        parallel = fleet.run(jobs=4)
        par_dict = json.dumps(parallel.to_dict(), sort_keys=True)
        par_trace = trace.read_bytes()
        par_report = render_fleet_report(
            parallel, "md", analysis=analyze_trace(str(trace))
        )

        assert seq_dict == par_dict
        assert seq_trace == par_trace
        assert seq_report == par_report

    def test_per_member_percentiles_identical(self):
        fleet = small_fleet()
        seq = fleet.run(jobs=1)
        par = fleet.run(jobs=3)
        for a, b in zip(seq.members, par.members):
            assert a.percentiles() == b.percentiles()

    def test_forked_workers_match_sequential(self, monkeypatch, tmp_path):
        """Real fork workers, even on a 1-CPU host, match sequential bytes.

        ``parallel_map`` caps workers at the host's CPU count, so on a
        single-core runner the jobs=4 leg above never actually forks.
        Pretend to have 4 CPUs so the pool genuinely spawns workers and the
        merge has to reassemble shard results crossing process boundaries.
        """
        from repro.experiments import parallel

        monkeypatch.setattr(parallel, "available_parallelism", lambda: 4)
        trace = tmp_path / "fleet.jsonl"
        fleet = small_fleet(num_requests=600, trace_path=str(trace))
        sequential = fleet.run(jobs=1)
        seq_trace = trace.read_bytes()
        forked = fleet.run(jobs=4)
        assert json.dumps(forked.to_dict(), sort_keys=True) == json.dumps(
            sequential.to_dict(), sort_keys=True
        )
        assert trace.read_bytes() == seq_trace

    def test_gz_trace_identical(self, tmp_path):
        trace = tmp_path / "fleet.jsonl.gz"
        fleet = small_fleet(num_requests=400, trace_path=str(trace))
        fleet.run(jobs=1)
        seq = trace.read_bytes()
        fleet.run(jobs=2)
        assert trace.read_bytes() == seq


class TestConservation:
    def test_every_request_routed_and_completed(self):
        result = small_fleet().run()
        assert sum(result.routed_counts) == result.total_requests == 2000
        assert sum(len(m) for m in result.members) == 2000
        assert len(result) == 2000

    def test_warmup_accounted(self):
        member = SimConfig(warmup=25)
        fleet = FleetConfig.uniform(
            4, member=member, rate=3200.0, num_requests=2000
        )
        result = fleet.run()
        assert sum(result.routed_counts) == 2000
        assert len(result) == 2000 - 4 * 25

    @pytest.mark.parametrize(
        "router", ["lbn-range", "hash", "round-robin", "least-loaded-static"]
    )
    def test_all_routers_conserve(self, router):
        fleet = small_fleet(num_requests=600, router=router)
        result = fleet.run()
        assert sum(result.routed_counts) == 600
        assert len(result) == 600

    def test_shard_plan_partitions_rids(self):
        fleet = small_fleet(num_requests=500)
        router = fleet.build_router(fleet.member_capacities())
        plan = shard_requests(fleet, router)
        rids = sorted(
            r.request_id for stream in plan.member_requests for r in stream
        )
        assert rids == list(range(500))
        for rid, member in enumerate(plan.assignment):
            stream_rids = {
                r.request_id for r in plan.member_requests[member]
            }
            assert rid in stream_rids


class TestSingleMemberEquivalence:
    def test_matches_plain_simconfig_run(self):
        member = SimConfig(rate=800.0, num_requests=1500, warmup=50)
        fleet = FleetConfig.uniform(
            1, member=member, rate=800.0, num_requests=1500
        )
        single = member.run()
        merged = fleet.run().combined
        assert json.dumps(single.to_dict(), sort_keys=True) == json.dumps(
            merged.to_dict(), sort_keys=True
        )


class TestMergedTrace:
    def test_validates_and_has_route_events(self, tmp_path):
        trace = tmp_path / "fleet.jsonl"
        fleet = small_fleet(num_requests=300, trace_path=str(trace))
        fleet.run(jobs=2)
        assert validate_file(str(trace)) == []
        events = read_trace(str(trace))
        assert events[0]["fleet_router"] == "lbn-range"
        assert events[0]["fleet_members"] == 4
        routes = [e for e in events if e["kind"] == "fleet.route"]
        assert len(routes) == 300
        assert {e["member"] for e in routes} == {0, 1, 2, 3}
        # Every member-originated event is tagged with its member index.
        for event in events:
            if event["kind"] in ("sim.arrival", "sim.complete", "dev.access"):
                assert event["member"] in (0, 1, 2, 3)

    def test_one_fleet_boundary_pair(self, tmp_path):
        trace = tmp_path / "fleet.jsonl"
        fleet = small_fleet(num_requests=200, trace_path=str(trace))
        fleet.run()
        events = read_trace(str(trace))
        starts = [e for e in events if e["kind"] == "sim.start"]
        ends = [e for e in events if e["kind"] == "sim.end"]
        assert len(starts) == 1 and starts[0]["requests"] == 200
        assert len(ends) == 1 and ends[0]["completed"] == 200

    def test_shard_traces_cleaned_up(self, tmp_path):
        trace = tmp_path / "fleet.jsonl"
        fleet = small_fleet(num_requests=200, trace_path=str(trace))
        fleet.run(jobs=2)
        assert trace.exists()
        for member in range(4):
            assert not (tmp_path / shard_trace_path("fleet.jsonl", member)).exists()

    def test_spans_reconcile(self, tmp_path):
        trace = tmp_path / "fleet.jsonl"
        fleet = small_fleet(num_requests=300, trace_path=str(trace))
        result = fleet.run()
        analysis = analyze_trace(str(trace))
        assert len(analysis.result) == 300
        assert analysis.spans_pending == 0
        assert analysis.result.mean_response_time == pytest.approx(
            result.combined.mean_response_time
        )

    def test_analysis_folds_every_device(self, tmp_path):
        """The windowed fold over a merged trace adds up all four devices'
        busy time: nothing is lost, and a window can exceed 1.0."""
        trace = tmp_path / "fleet.jsonl"
        result = small_fleet(trace_path=str(trace)).run()
        series = analyze_trace(str(trace)).timeseries
        widths = [
            min(series.bucket_s, series.end_time - index * series.bucket_s)
            for index in range(len(series))
        ]
        busy = math.fsum(u * w for u, w in zip(series.utilization, widths))
        service = math.fsum(result.combined.service_times)
        assert math.isclose(busy, service, rel_tol=1e-9)
        assert sum(series.completions) == len(result.combined) == 2000
        assert max(series.utilization) > 1.0


class TestShardTracePath:
    def test_suffixes(self):
        assert shard_trace_path("f.jsonl", 3) == "f.m03.jsonl"
        assert shard_trace_path("f.jsonl.gz", 12) == "f.m12.jsonl.gz"
        assert shard_trace_path("f.log", 0) == "f.log.m00"


class TestMergeResults:
    def test_orders_by_completion_then_rid(self):
        a = SimConfig(num_requests=60, rate=400.0, seed=1).run()
        b = SimConfig(num_requests=60, rate=400.0, seed=2).run()
        merged = merge_results([a, b])
        assert len(merged) == 120
        keys = [
            (r.completion_time, r.request.request_id) for r in merged.records
        ]
        assert keys == sorted(keys)
        assert merged.end_time == max(a.end_time, b.end_time)

    def test_empty_inputs(self):
        merged = merge_results([SimulationResult(), SimulationResult()])
        assert len(merged) == 0 and merged.end_time == 0.0


class TestFleetResultDict:
    def test_shape(self):
        result = small_fleet(num_requests=400).run()
        data = result.to_dict()
        assert data["router"] == "lbn-range"
        assert data["members"] == 4
        assert data["requests"] == 400
        assert data["fleet"]["completed"] == 400
        assert [row["member"] for row in data["per_member"]] == [0, 1, 2, 3]
        assert sum(row["routed"] for row in data["per_member"]) == 400

    def test_json_serializable(self):
        json.dumps(small_fleet(num_requests=200).run().to_dict())
