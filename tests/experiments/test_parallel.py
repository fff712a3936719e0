"""Parallel sweep execution must be invisible in the results.

Every sweep point is an independent simulation (fresh device, request
stream regenerated from its seed), so fanning the grid out over a process
pool has to return bit-identical ``SweepPoint`` values in the same order as
the sequential loop — these tests pin that, plus the job-count plumbing.
"""

import pytest

import repro.experiments.parallel as parallel_module
from repro.experiments.common import random_workload_sweep
from repro.experiments.parallel import (
    available_parallelism,
    effective_workers,
    fork_available,
    parallel_map,
    resolve_jobs,
    set_default_jobs,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)

CALLS = []
"""What :func:`_record` saw; only an in-process run appends here."""


def _square(x):
    return x * x


def _record(x):
    CALLS.append(x)
    return x


@pytest.fixture
def calls():
    CALLS.clear()
    yield CALLS
    CALLS.clear()


@pytest.fixture
def default_jobs():
    """Restore the process-wide default job count after the test."""
    old = parallel_module._default_jobs
    yield
    set_default_jobs(old)


def _batch_checksum(batch):
    return (
        len(batch),
        int(batch.lbn.sum()),
        int(batch.sectors.sum()),
        float(batch.arrival.sum()),
        int(batch.is_write.sum()),
        int(batch.rid.sum()),
    )


class TestParallelMap:
    def test_matches_sequential_order(self):
        tasks = [(x,) for x in range(20)]
        assert parallel_map(_square, tasks, jobs=4) == [
            x * x for x in range(20)
        ]

    def test_pool_path_matches_sequential_order(self, monkeypatch):
        # Force the pool even on single-core machines (parallel_map caps
        # workers at the machine's parallelism).
        monkeypatch.setattr(
            parallel_module, "available_parallelism", lambda: 4
        )
        tasks = [(x,) for x in range(20)]
        assert parallel_module.parallel_map(_square, tasks, jobs=4) == [
            x * x for x in range(20)
        ]

    def test_single_job_runs_in_process(self, calls):
        assert parallel_map(_record, [(1,), (2,)], jobs=1) == [1, 2]
        assert calls == [1, 2]  # seen by this process, not a worker

    def test_rejects_bad_job_counts(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_default_jobs_round_trip(self, default_jobs, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        set_default_jobs(3)
        assert resolve_jobs(None) == 3
        set_default_jobs(None)
        assert resolve_jobs(None) == 1

    def test_available_parallelism_positive(self):
        assert available_parallelism() >= 1


class TestReproJobsEnvironment:
    """``REPRO_JOBS`` is read when jobs are resolved, never at import, and
    a value that is not a positive integer is an error, not a silent 1."""

    @pytest.fixture(autouse=True)
    def _no_default(self, default_jobs):
        set_default_jobs(None)

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_bad_value_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ValueError, match=f"REPRO_JOBS.*'{value}'"):
            resolve_jobs(None)

    def test_read_at_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3
        monkeypatch.setenv("REPRO_JOBS", "")
        assert resolve_jobs(None) == 1
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None) == 1

    def test_explicit_and_default_jobs_win(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        assert resolve_jobs(2) == 2
        set_default_jobs(4)
        assert resolve_jobs(None) == 4


class TestPersistentPool:
    """Module-level work functions ride a long-lived pool that is reused
    across ``parallel_map`` calls, with batches pickled to the workers —
    both invisible in the results."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self, monkeypatch):
        monkeypatch.setattr(
            parallel_module, "available_parallelism", lambda: 2
        )
        parallel_module.shutdown_pool()
        yield
        parallel_module.shutdown_pool()

    def test_pool_is_reused_across_calls(self):
        tasks = [(x,) for x in range(4)]
        assert parallel_map(_square, tasks, jobs=2) == [0, 1, 4, 9]
        first = parallel_module._pool
        assert first is not None
        assert parallel_map(_square, tasks, jobs=2) == [0, 1, 4, 9]
        assert parallel_module._pool is first

    def test_pool_rebuilt_on_width_change(self, monkeypatch):
        monkeypatch.setattr(
            parallel_module, "available_parallelism", lambda: 4
        )
        tasks = [(x,) for x in range(8)]
        parallel_map(_square, tasks, jobs=2)
        first = parallel_module._pool
        assert parallel_module._pool_workers == 2
        parallel_map(_square, tasks, jobs=3)
        assert parallel_module._pool is not first
        assert parallel_module._pool_workers == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unpicklable_function_is_a_type_error(self, jobs):
        offset = 7
        tasks = [(x,) for x in range(6)]
        with pytest.raises(TypeError, match="picklable work function"):
            parallel_map(lambda x: x + offset, tasks, jobs=jobs)
        assert parallel_module._pool is None  # raised before any fork
        assert parallel_map(_square, tasks, jobs=jobs) == [
            x * x for x in range(6)
        ]

    def test_batch_crosses_the_process_boundary(self):
        from repro.sim.batch import RequestBatch
        from repro.workloads.synthetic import RandomWorkload

        batches = [
            RandomWorkload(10_000, rate=500.0, seed=seed).generate_batch(256)
            for seed in (1, 2, 3)
        ]
        expected = [(_batch_checksum(batch),) for batch in batches]
        tasks = [(batch,) for batch in batches]
        parallel = parallel_map(_batch_checksum, tasks, jobs=2)
        assert [(value,) for value in parallel] == expected
        # The parent-side batches are untouched.
        assert all(isinstance(batch, RequestBatch) for batch in batches)

    def test_shutdown_is_idempotent(self):
        parallel_module.shutdown_pool()
        parallel_module.shutdown_pool()


class TestReusedPoolCarriesNoParentState:
    """Persistent workers fork once, inside the first map that needs them,
    and serve every later map.  A work function that read state the parent
    set up before its map would see whatever the *first* call left there,
    so a second, different run on the reused pool must equal the same run
    in-process."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        if effective_workers(2, 4) < 2:
            pytest.skip("needs two worker processes")
        parallel_module.shutdown_pool()
        yield
        parallel_module.shutdown_pool()

    def test_second_fleet_matches_sequential(self):
        from repro.fleet import FleetConfig
        from repro.sim.config import SimConfig

        first = FleetConfig.uniform(
            4,
            SimConfig(scheduler="SPTF", warmup=0, max_queue_depth=4000),
            router="lbn-range",
            rate=3200.0,
            num_requests=2000,
            seed=1,
        )
        second = FleetConfig.uniform(
            4,
            SimConfig(scheduler="C-LOOK", warmup=40, max_queue_depth=500),
            router="hash",
            rate=2400.0,
            num_requests=1600,
            seed=7,
            live_window=0.25,
        )
        first.run(jobs=2)
        reused = second.run(jobs=2).to_dict()
        assert reused == second.run(jobs=1).to_dict()

    def test_second_sweep_matches_sequential(self):
        from repro.experiments.common import sweep_sim_configs
        from repro.sim.config import SimConfig

        first = [
            SimConfig(scheduler="SPTF", rate=rate, num_requests=500, seed=1)
            for rate in (500.0, 1000.0, 1500.0, 2000.0)
        ]
        second = [
            SimConfig(
                device="atlas10k",
                scheduler="C-LOOK",
                rate=rate,
                num_requests=400,
                seed=9,
                warmup=50,
                max_queue_depth=200,
            )
            for rate in (60.0, 90.0, 120.0, 150.0)
        ]
        sweep_sim_configs(first, jobs=2)
        reused = sweep_sim_configs(second, jobs=2)
        assert reused == sweep_sim_configs(second, jobs=1)


class TestEffectiveWorkers:
    """``effective_workers`` must predict exactly when ``parallel_map``
    falls back to the in-process loop, so harnesses timing "parallel vs
    sequential" can skip the redundant leg instead of measuring jitter."""

    def test_caps_at_task_count(self, monkeypatch):
        monkeypatch.setattr(
            parallel_module, "available_parallelism", lambda: 8
        )
        assert parallel_module.effective_workers(4, tasks=2) == 2
        assert parallel_module.effective_workers(4, tasks=100) == 4

    def test_caps_at_machine_parallelism(self, monkeypatch):
        monkeypatch.setattr(
            parallel_module, "available_parallelism", lambda: 1
        )
        assert parallel_module.effective_workers(8, tasks=100) == 1

    def test_single_task_or_job_is_sequential(self):
        assert effective_workers(8, tasks=1) == 1
        assert effective_workers(1, tasks=100) == 1
        assert effective_workers(None, tasks=100) >= 1

    def test_no_tasks(self):
        assert effective_workers(4, tasks=0) == 0

    def test_resolves_default_jobs(self, default_jobs):
        set_default_jobs(1)
        assert effective_workers(None, tasks=100) == 1

    def test_matches_parallel_map_fallback(self, calls):
        # Whenever effective_workers says 1, parallel_map must run the
        # work function in-process (observable through module state).
        tasks = [(1,), (2,), (3,)]
        if effective_workers(1, len(tasks)) == 1:
            parallel_map(_record, tasks, jobs=1)
            assert calls == [1, 2, 3]


@pytest.mark.slow
class TestSweepDeterminism:
    def test_mems_sweep_identical_with_jobs(self):
        kwargs = dict(
            device="mems",
            algorithms=("FCFS", "SPTF"),
            rates=(300.0, 900.0),
            num_requests=400,
            warmup=50,
        )
        sequential = random_workload_sweep(jobs=1, **kwargs)
        parallel = random_workload_sweep(jobs=4, **kwargs)
        assert sequential.series == parallel.series

    def test_disk_sweep_identical_with_jobs(self):
        kwargs = dict(
            device="atlas10k",
            algorithms=("C-LOOK", "SPTF"),
            rates=(100.0, 250.0),
            num_requests=300,
            warmup=50,
        )
        sequential = random_workload_sweep(jobs=1, **kwargs)
        parallel = random_workload_sweep(jobs=4, **kwargs)
        assert sequential.series == parallel.series

    def test_figure7_identical_with_jobs(self):
        from repro.experiments import figure07

        kwargs = dict(
            scales=(2.0, 8.0), algorithms=("C-LOOK", "SPTF"), num_requests=500
        )
        sequential = figure07.run(jobs=1, **kwargs)
        parallel = figure07.run(jobs=2, **kwargs)
        assert sequential.cello.series == parallel.cello.series
        assert sequential.tpcc.series == parallel.tpcc.series
        assert sequential.cello.xs() == [2.0, 8.0]
