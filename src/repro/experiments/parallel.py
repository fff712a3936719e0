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
  sweep invocations stop paying per-call fork+teardown.  Task arguments
  still cross the process boundary, but
  :class:`~repro.sim.batch.RequestBatch` columns are carried in POSIX
  shared memory (one segment per batch, attached zero-copy in the worker)
  instead of being serialized through the queue pipe.
* **Per-call fork** — sweep specs (device factories, request generators)
  are built from closures that are generally not picklable, so they fall
  back to a transient ``fork`` pool that receives the work function by
  inheritance: the parent publishes it in a module global immediately
  before forking, and workers receive only small picklable task tuples
  through the queue.

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
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from repro.nputil import get_numpy

_POINT_FN: Optional[Callable] = None
"""Work function inherited by forked pool workers; valid only while a
:func:`parallel_map` call is forking."""


def _run_task(task: Tuple) -> object:
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


# -- persistent pool + shared-memory column handoff --------------------------- #

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


def shutdown_pool() -> None:
    """Tear down the persistent worker pool (idempotent).

    Called automatically at interpreter exit and whenever a
    :func:`parallel_map` call needs a different worker count; exposed for
    tests and long-lived hosts that want to reclaim the workers early.
    """
    global _pool, _pool_workers
    if _pool is not None:
        _pool.terminate()
        _pool.join()
        _pool = None
        _pool_workers = 0


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
        context = multiprocessing.get_context("fork")
        # Workers run with default interpreter state regardless of what
        # the parent was doing at fork time (run_fleet forks from inside
        # its GC pause; per-drain pauses in the worker still apply).
        _pool = context.Pool(processes=workers, initializer=_worker_init)
        _pool_workers = workers
        atexit.register(shutdown_pool)
    return _pool


def _worker_init() -> None:
    import gc

    gc.enable()


class _SharedBatchRef(NamedTuple):
    """Descriptor for a :class:`RequestBatch` parked in shared memory.

    ``spans`` holds one ``(dtype_str, offset, length)`` triple per column,
    in :data:`_BATCH_COLUMNS` order, all inside the single segment
    ``name`` — the only thing the task queue carries for a batch.
    """

    name: str
    rows: int
    spans: Tuple[Tuple[str, int, int], ...]


_BATCH_COLUMNS = ("arrival", "lbn", "sectors", "is_write", "rid")


def _export_batch(batch, segments: list):
    """Copy ``batch``'s columns into one shared-memory segment.

    Returns the :class:`_SharedBatchRef` to enqueue in the batch's place,
    or the batch itself when shared memory is unavailable (tiny or absent
    ``/dev/shm``) — the queue then falls back to pickling it, which is
    slower but identical in behavior.
    """
    from multiprocessing import shared_memory

    columns = [getattr(batch, column) for column in _BATCH_COLUMNS]
    total = sum(array.nbytes for array in columns)
    try:
        segment = shared_memory.SharedMemory(create=True, size=max(total, 1))
    except OSError:  # pragma: no cover - exotic /dev/shm configurations
        return batch
    segments.append(segment)
    spans = []
    offset = 0
    for array in columns:
        end = offset + array.nbytes
        segment.buf[offset:end] = array.tobytes()
        spans.append((array.dtype.str, offset, len(array)))
        offset = end
    return _SharedBatchRef(segment.name, len(batch), tuple(spans))


def _attach_batch(ref: _SharedBatchRef):
    """Rebuild a :class:`RequestBatch` from a worker-side attachment.

    The columns are copies out of the segment (``RequestBatch`` owns its
    arrays; the parent unlinks the segment as soon as the map returns), so
    the attachment itself is closed before returning.
    """
    from multiprocessing import shared_memory

    from repro.nputil import get_numpy
    from repro.sim.batch import RequestBatch

    np = get_numpy()
    segment = shared_memory.SharedMemory(name=ref.name)
    try:
        # The parent owns the segment's lifetime and unlinks it after the
        # map returns; deregister this attachment so the shared resource
        # tracker does not double-count the name (bpo-39959).
        try:
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
        except Exception:  # pragma: no cover - tracker internals moved
            pass
        columns = {}
        for column, (dtype, offset, length) in zip(_BATCH_COLUMNS, ref.spans):
            view = np.frombuffer(
                segment.buf, dtype=dtype, count=length, offset=offset
            )
            columns[column] = view.copy()
            del view
        return RequestBatch(**columns)
    finally:
        segment.close()


def _export_task(task: Tuple, segments: list) -> Tuple:
    """Replace any batch arguments with shared-memory descriptors."""
    from repro.sim.batch import RequestBatch

    return tuple(
        _export_batch(arg, segments) if isinstance(arg, RequestBatch) else arg
        for arg in task
    )


def _run_pickled(payload: Tuple) -> object:
    """Persistent-pool worker body: re-attach batches, run the function."""
    fn, task = payload
    task = tuple(
        _attach_batch(arg) if isinstance(arg, _SharedBatchRef) else arg
        for arg in task
    )
    return fn(*task)


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
    persistent pool with batch columns handed over through shared memory;
    closures fork a transient pool per call (see the module docstring).
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
        pool = _persistent_pool(workers)
        segments: list = []
        try:
            payloads = [
                (point_fn, _export_task(task, segments)) for task in tasks
            ]
            return pool.map(_run_pickled, payloads, chunksize=1)
        finally:
            for segment in segments:
                segment.close()
                segment.unlink()
    context = multiprocessing.get_context("fork")
    _POINT_FN = point_fn
    try:
        with context.Pool(processes=workers) as pool:
            return pool.map(_run_task, list(tasks), chunksize=1)
    finally:
        _POINT_FN = None
