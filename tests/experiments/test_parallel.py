"""Parallel sweep execution must be invisible in the results.

Every sweep point is an independent simulation (fresh device, request
stream regenerated from its seed), so fanning the grid out over a process
pool has to return bit-identical ``SweepPoint`` values in the same order as
the sequential loop — these tests pin that, plus the job-count plumbing.
"""

import pytest

from repro.disk.atlas10k import atlas_10k
from repro.disk.device import DiskDevice
from repro.experiments.common import random_workload_sweep
from repro.experiments.parallel import (
    available_parallelism,
    effective_workers,
    fork_available,
    get_default_jobs,
    parallel_map,
    resolve_jobs,
    set_default_jobs,
)
from repro.mems.device import MEMSDevice

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)


def _square(x):
    return x * x


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
        import repro.experiments.parallel as parallel_module

        monkeypatch.setattr(
            parallel_module, "available_parallelism", lambda: 4
        )
        tasks = [(x,) for x in range(20)]
        assert parallel_module.parallel_map(_square, tasks, jobs=4) == [
            x * x for x in range(20)
        ]

    def test_single_job_runs_in_process(self):
        calls = []

        def record(x):
            calls.append(x)
            return x

        assert parallel_map(record, [(1,), (2,)], jobs=1) == [1, 2]
        assert calls == [1, 2]  # closures only work in-process

    def test_rejects_bad_job_counts(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_default_jobs_round_trip(self):
        old = get_default_jobs()
        try:
            set_default_jobs(3)
            assert resolve_jobs(None) == 3
            set_default_jobs(None)
            assert resolve_jobs(None) == 1
        finally:
            set_default_jobs(old)

    def test_available_parallelism_positive(self):
        assert available_parallelism() >= 1


class TestReproJobsEnvironment:
    """``REPRO_JOBS`` is read when jobs are resolved, never at import, and
    a value that is not a positive integer is an error, not a silent 1."""

    @pytest.fixture(autouse=True)
    def _no_default(self):
        old = get_default_jobs()
        set_default_jobs(None)
        yield
        set_default_jobs(old)

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
        import repro.experiments.parallel as parallel_module

        monkeypatch.setattr(
            parallel_module, "available_parallelism", lambda: 2
        )
        parallel_module.shutdown_pool()
        yield
        parallel_module.shutdown_pool()

    def test_pool_is_reused_across_calls(self):
        import repro.experiments.parallel as parallel_module

        tasks = [(x,) for x in range(4)]
        assert parallel_map(_square, tasks, jobs=2) == [0, 1, 4, 9]
        first = parallel_module._pool
        assert first is not None
        assert parallel_map(_square, tasks, jobs=2) == [0, 1, 4, 9]
        assert parallel_module._pool is first

    def test_pool_rebuilt_on_width_change(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

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

    def test_closures_fall_back_to_transient_pool(self):
        import repro.experiments.parallel as parallel_module

        offset = 7
        tasks = [(x,) for x in range(6)]
        result = parallel_map(lambda x: x + offset, tasks, jobs=2)
        assert result == [x + 7 for x in range(6)]
        assert parallel_module._pool is None  # never touched

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
        import repro.experiments.parallel as parallel_module

        parallel_module.shutdown_pool()
        parallel_module.shutdown_pool()


class TestEffectiveWorkers:
    """``effective_workers`` must predict exactly when ``parallel_map``
    falls back to the in-process loop, so harnesses timing "parallel vs
    sequential" can skip the redundant leg instead of measuring jitter."""

    def test_caps_at_task_count(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

        monkeypatch.setattr(
            parallel_module, "available_parallelism", lambda: 8
        )
        assert parallel_module.effective_workers(4, tasks=2) == 2
        assert parallel_module.effective_workers(4, tasks=100) == 4

    def test_caps_at_machine_parallelism(self, monkeypatch):
        import repro.experiments.parallel as parallel_module

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

    def test_resolves_default_jobs(self):
        old = get_default_jobs()
        try:
            set_default_jobs(1)
            assert effective_workers(None, tasks=100) == 1
        finally:
            set_default_jobs(old)

    def test_matches_parallel_map_fallback(self, monkeypatch):
        # Whenever effective_workers says 1, parallel_map must run the
        # closure in-process (observable through shared mutable state).
        calls = []

        def record(x):
            calls.append(x)
            return x

        tasks = [(1,), (2,), (3,)]
        if effective_workers(1, len(tasks)) == 1:
            parallel_map(record, tasks, jobs=1)
            assert calls == [1, 2, 3]


@pytest.mark.slow
class TestSweepDeterminism:
    def test_mems_sweep_identical_with_jobs(self):
        kwargs = dict(
            device_factory=lambda: MEMSDevice(),
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
            device_factory=lambda: DiskDevice(atlas_10k()),
            algorithms=("C-LOOK", "SPTF"),
            rates=(100.0, 250.0),
            num_requests=300,
            warmup=50,
        )
        sequential = random_workload_sweep(jobs=1, **kwargs)
        parallel = random_workload_sweep(jobs=4, **kwargs)
        assert sequential.series == parallel.series
