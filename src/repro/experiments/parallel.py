"""Process-pool execution of embarrassingly-parallel sweep points.

Every point of a scheduling sweep is an independent simulation: a fresh
device from ``device_factory``, a request stream regenerated from its seed,
one run to completion.  Nothing is shared between points, so the sweep layer
parallelizes perfectly — and it is the dominant cost of regenerating the
paper's Figs. 5–8 and Table 2.

Two pool strategies coexist, picked per call by whether the work function
can be pickled by reference:

* **Persistent pool** — module-level functions (the fleet's
  ``_run_member``) go to a long-lived worker pool that is created once and
  reused across :func:`parallel_map` calls, so repeated fleet runs and
  sweep invocations stop paying per-call fork+teardown.
* **Per-call fork** — sweep specs (device factories, request generators)
  are built from closures that are generally not picklable, so they fall
  back to a transient ``fork`` pool that receives the work function by
  inheritance: the parent publishes it in a module global immediately
  before forking, and workers receive only small picklable task tuples
  through the queue.

Both are ``fork``-context :class:`concurrent.futures.ProcessPoolExecutor`
pools.  Tasks and results are pickled: batches and results are a few numpy
columns each.  A worker that dies fails the call with ``BrokenProcessPool``;
a call that fails or is interrupted stops its workers at once, and the
persistent pool is rebuilt by the next call.

On platforms without ``fork`` (or with ``jobs <= 1``) everything runs
sequentially in-process.

Results are bit-identical to the sequential path: each point performs
exactly the same computation either way (same seeds, same float operations),
and the pool map preserves task order.

Forked workers inherit the parent's modules, so :func:`parallel_map`
imports numpy in the parent just before either pool path forks: once per
process, instead of once per worker of every per-call pool.

``--jobs N`` on :mod:`repro.experiments.runner` / ``python -m repro
experiments`` sets the process-wide default consumed by
:func:`repro.experiments.common.scheduling_sweep`; without one, the
``REPRO_JOBS`` environment variable supplies it, read each time jobs are
resolved so that a bad value fails the sweep that uses it, not the import.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
from typing import Callable, List, Optional, Sequence, Tuple

from repro.nputil import get_numpy

_POINT_FN: Optional[Callable] = None
"""Work function inherited by forked pool workers; valid only while a
:func:`parallel_map` call is forking."""


def _run_task(*task) -> object:
    return _POINT_FN(*task)


def fork_available() -> bool:
    """True when the ``fork`` start method exists (Linux, BSDs, macOS)."""
    return "fork" in multiprocessing.get_all_start_methods()


def available_parallelism() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# -- process-wide default job count ------------------------------------------ #

_default_jobs: Optional[int] = None


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the job count sweeps use when called without an explicit
    ``jobs=`` (the CLI's ``--jobs`` lands here)."""
    global _default_jobs
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    _default_jobs = jobs


def get_default_jobs() -> Optional[int]:
    return _default_jobs


def resolve_jobs(jobs: Optional[int]) -> int:
    """Map an explicit or defaulted ``jobs`` value to a concrete count.

    ``None`` falls back to the process-wide default, then to
    ``REPRO_JOBS``, then to 1.  Raises ``ValueError`` for a count below 1
    or a ``REPRO_JOBS`` that is not one.
    """
    if jobs is None:
        jobs = _default_jobs
    if jobs is None:
        return _env_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1: {jobs}")
    return jobs


def _env_jobs() -> int:
    text = os.environ.get("REPRO_JOBS", "").strip()
    if not text:
        return 1
    if text.isdecimal() and int(text) >= 1:
        return int(text)
    raise ValueError(f"REPRO_JOBS must be an integer >= 1, got {text!r}")


# -- worker pools ------------------------------------------------------------- #

_pool = None
_pool_workers = 0


def _fn_picklable(fn: Callable) -> bool:
    """True when ``fn`` pickles (by reference, for module-level functions).

    Closures and lambdas raise, routing their calls to the per-call fork
    pool that passes the function by inheritance instead.
    """
    try:
        pickle.dumps(fn)
    except Exception:
        return False
    return True


def _new_executor(workers: int):
    """A ``fork`` executor: a dead worker fails it with ``BrokenProcessPool``
    (``multiprocessing.Pool`` respawns the worker and waits forever)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_worker_init,
        initargs=(os.getpid(),),
    )


def _worker_init(parent: int) -> None:
    """Default GC whatever the parent's state at fork (run_fleet forks in
    its GC pause), and SIGINT ignored: the parent reports a Ctrl-C and
    stops the workers itself.  An idle worker waits on a queue whose write
    end every worker holds, so it would outlive a parent killed outright;
    a daemon thread ends it once ``parent`` is gone.
    """
    import gc
    import signal
    import threading

    gc.enable()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGINT})
    threading.Thread(target=_exit_with, args=(parent,), daemon=True).start()


def _exit_with(parent: int) -> None:
    import time

    while os.getppid() == parent:
        time.sleep(0.25)
    os._exit(1)


def _stop(executor) -> None:
    """Stop ``executor`` without waiting for running tasks.

    A worker killed halfway through a message would leave the executor
    blocked on the rest of it (a result, or a task larger than the pipe
    buffer); closing the parent's copies of those pipe ends turns both
    into end of file or a broken pipe, which the executor handles.  A
    broken executor's manager thread closes the call queue itself, racing
    a close from here, so they close first and only on a working one.
    """
    processes = getattr(executor, "_processes", None) or {}
    if processes and not executor._broken:
        executor._result_queue._writer.close()
        executor._call_queue._reader.close()
    for process in list(processes.values()):
        process.terminate()
    executor.shutdown(wait=True, cancel_futures=True)


def _map(executor, fn: Callable, tasks: Sequence[Tuple]) -> List[object]:
    """``[fn(*task) for task in tasks]`` on ``executor``, in order.

    Workers fork during submission, with SIGINT blocked so that none is
    interrupted before :func:`_worker_init`; a Ctrl-C pressed meanwhile
    reaches the parent afterwards.
    """
    import signal

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        futures = [executor.submit(fn, *task) for task in tasks]
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return [future.result() for future in futures]


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (idempotent).

    Called at interpreter exit, when a :func:`parallel_map` call needs a
    different worker count or fails; exposed for tests and long-lived
    hosts that want to reclaim the workers early.
    """
    global _pool, _pool_workers
    if _pool is not None:
        pool, _pool, _pool_workers = _pool, None, 0
        _stop(pool)


def _persistent_pool(workers: int):
    """The shared long-lived pool, (re)created at ``workers`` processes.

    Worker count is fixed at pool creation, so a call that resolves to a
    different width rebuilds the pool — in practice a process settles on
    one ``--jobs`` value and every call after the first reuses the same
    workers.
    """
    global _pool, _pool_workers
    if _pool is not None and _pool_workers != workers:
        shutdown_pool()
    if _pool is None:
        _pool = _new_executor(workers)
        _pool_workers = workers
        atexit.register(shutdown_pool)
    return _pool


# -- the pool map ------------------------------------------------------------- #


def effective_workers(jobs: Optional[int], tasks: int) -> int:
    """Worker-process count :func:`parallel_map` would actually use.

    Resolves defaulted ``jobs``, caps at the task count and
    :func:`available_parallelism`, and collapses to 1 when ``fork`` is
    unavailable.  A result of 1 means the map runs sequentially in-process
    — callers measuring parallel speedup (the benchmark harness) should
    skip the redundant "parallel" leg entirely in that case rather than
    timing a second sequential run and reporting its jitter as a speedup.
    """
    if tasks < 1:
        return 0
    if not fork_available():
        return 1
    return max(1, min(resolve_jobs(jobs), tasks, available_parallelism()))


def parallel_map(
    point_fn: Callable,
    tasks: Sequence[Tuple],
    jobs: Optional[int] = None,
) -> List[object]:
    """``[point_fn(*task) for task in tasks]``, fanned out over processes.

    Falls back to the in-process loop when ``jobs`` resolves to 1, when
    there is at most one task, or when ``fork`` is unavailable; the result
    list order always matches ``tasks``.

    A picklable ``point_fn`` (any module-level function) runs on the
    persistent pool; closures fork a transient pool per call (see the
    module docstring).
    Both paths compute exactly what the sequential loop would.

    The worker count is additionally capped at :func:`available_parallelism`:
    the points are pure CPU work, so oversubscribing cores only adds
    scheduling churn (measured at +55% burned CPU for 4 workers on 1 core)
    without any wall-clock benefit.
    """
    global _POINT_FN
    workers = effective_workers(jobs, len(tasks))
    if workers <= 1:
        return [point_fn(*task) for task in tasks]
    get_numpy()  # before forking, so no worker imports it again
    if _fn_picklable(point_fn):
        try:
            return _map(_persistent_pool(workers), point_fn, tasks)
        except BaseException:
            # A dead worker breaks the pool, and a failed or interrupted
            # map leaves tasks running in it: the next call starts afresh.
            shutdown_pool()
            raise
    _POINT_FN = point_fn
    executor = _new_executor(workers)
    try:
        return _map(executor, _run_task, tasks)
    finally:
        _POINT_FN = None
        _stop(executor)
