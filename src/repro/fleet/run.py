"""Execute a fleet: shard, fan out over worker processes, merge.

:func:`run_fleet` is the fleet's equivalent of :meth:`SimConfig.run
<repro.sim.config.SimConfig.run>`:

1. build each member's device once to learn capacities, and a fresh router
   over them;
2. generate + shard the global arrival stream in the driver process
   (:mod:`repro.fleet.frontend`), so the rid→member assignment exists
   before any worker forks;
3. run each member's shard through
   :func:`~repro.experiments.parallel.parallel_map` — one ordinary
   single-device simulation per member, each tracing to its own shard file
   when the fleet is traced;
4. check conservation (every generated request landed on exactly one
   member and came back), then fold the per-shard results and traces into
   one :class:`~repro.fleet.merge.FleetResult` and merged fleet trace.

Because sharding happens pre-fork, member runs are independent, and the
merge is a pure deterministic fold, the returned result — and the merged
trace/report bytes — are identical for every ``jobs`` value, including the
sequential in-process fallback.  A 1-member fleet under the ``lbn-range``
router hands its member the unchanged global stream, so its result equals
the plain single-device ``SimConfig.run`` for the same workload fields.

A member that saturates raises
:class:`~repro.sim.engine.QueueOverflowError` out of :func:`run_fleet`
(from the worker, via the pool), exactly like a single-device run; partial
shard traces are cleaned up before the error propagates.
"""

from __future__ import annotations

import gc
from typing import List, Optional, Tuple

from repro.experiments.parallel import parallel_map
from repro.fleet.config import FleetConfig
from repro.fleet.frontend import shard_requests
from repro.fleet.merge import (
    FleetResult,
    merge_results,
    merge_traces,
    remove_shard_traces,
    shard_trace_path,
)
from repro.obs.live import (
    DEFAULT_WINDOW_S,
    LiveAggregator,
    LiveSummary,
    SLOSpec,
)
from repro.obs.tracer import JsonlTracer
from repro.sim.batch import RequestBatch
from repro.sim.config import SimConfig
from repro.sim.statistics import SimulationResult

LiveSpec = Tuple[float, Tuple[SLOSpec, ...]]
"""Per-member live-aggregation knobs: ``(window_s, slos)``."""


def _member_live_spec(
    config: FleetConfig, member: SimConfig
) -> Optional[LiveSpec]:
    """The live-aggregation spec a member runs under (``None`` = off).

    Fleet-level ``live_window``/``slos`` apply uniformly to every member
    and take precedence; otherwise a member's own live fields (set on its
    :class:`SimConfig`) enable tracking for that member alone.
    """
    if config.live_enabled:
        return (config.live_window or DEFAULT_WINDOW_S, config.slos)
    if member.live_enabled:
        return (member.live_window or DEFAULT_WINDOW_S, member.slos)
    return None


def _run_member(
    member: SimConfig,
    requests: RequestBatch,
    trace_path: Optional[str],
    live: Optional[LiveSpec],
) -> Tuple[SimulationResult, Optional[LiveSummary]]:
    """Run one member's shard to completion (the worker-process body).

    The member config supplies the device/scheduler substrate; the request
    stream is the member's :class:`~repro.sim.batch.RequestBatch` from the
    fleet front-end, never the member's workload fields.  Mirrors
    :meth:`SimConfig.run`'s tracer ownership and warmup handling so a
    1-member fleet matches the single-device path exactly.

    When ``live`` is set the member runs under a
    :class:`~repro.obs.live.LiveAggregator` wrapped around its shard sink
    (or a null sink for summary-only runs) and the picklable
    :class:`~repro.obs.live.LiveSummary` rides back with the result.  The
    summary covers the *full* shard stream including warmup completions —
    sketches are streaming state and cannot retroactively drop the prefix.
    """
    sink = JsonlTracer(trace_path) if trace_path is not None else None
    aggregator: Optional[LiveAggregator] = None
    if live is not None:
        window_s, slos = live
        aggregator = LiveAggregator(sink, window_s=window_s, slos=slos)
    tracer = aggregator if aggregator is not None else sink
    try:
        simulation = member.build_simulation(tracer=tracer)
        result = simulation.run(requests)
    finally:
        if tracer is not None:
            tracer.close()
    summary = aggregator.summary() if aggregator is not None else None
    return result.drop_warmup(member.warmup), summary


def run_fleet(config: FleetConfig, jobs: Optional[int] = None) -> FleetResult:
    """Shard, execute, and merge one fleet run (see module docstring).

    Generational GC is paused for the whole run, extending the engine's
    per-drain pause (see :meth:`Simulation.run`) across sharding, the
    gaps between member drains and the merge.  Nothing the fleet
    allocates forms reference cycles, so reference counting reclaims
    everything either way; the caller's GC setting is restored on exit.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_fleet(config, jobs=jobs)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_fleet(config: FleetConfig, jobs: Optional[int]) -> FleetResult:
    """The :func:`run_fleet` body, run under the caller-managed GC pause."""
    capacities = config.member_capacities()
    router = config.build_router(capacities)
    tracing = config.trace_path is not None
    plan = shard_requests(config, router, record_events=tracing)

    shard_paths: List[Optional[str]] = [None] * len(config.members)
    if tracing:
        assert config.trace_path is not None
        shard_paths = [
            shard_trace_path(config.trace_path, member)
            for member in range(len(config.members))
        ]

    tasks = [
        (
            member,
            plan.member_requests[index],
            shard_paths[index],
            _member_live_spec(config, member),
        )
        for index, member in enumerate(config.members)
    ]
    if jobs is None:
        jobs = config.jobs
    try:
        outcomes = parallel_map(_run_member, tasks, jobs=jobs)
    except BaseException:
        if tracing:
            remove_shard_traces([p for p in shard_paths if p is not None])
        raise
    results = [result for result, _ in outcomes]
    summaries = [summary for _, summary in outcomes]

    counts = plan.member_counts()
    if sum(counts) != plan.total_requests:
        raise RuntimeError(
            f"routing lost requests: shards hold {sum(counts)} of "
            f"{plan.total_requests}"
        )
    completed = sum(len(result) for result in results)
    expected = plan.total_requests - sum(
        min(member.warmup, count)
        for member, count in zip(config.members, counts)
    )
    if completed != expected:
        raise RuntimeError(
            f"fleet lost requests: members completed {completed}, "
            f"expected {expected} "
            f"({plan.total_requests} routed minus warmup drops)"
        )

    combined = merge_results(results)
    fleet_result = FleetResult(
        members=list(results),
        combined=combined,
        member_configs=config.members,
        router=router.name,
        routed_counts=counts,
        total_requests=plan.total_requests,
        live=(
            summaries if any(s is not None for s in summaries) else None
        ),
    )

    if tracing:
        assert config.trace_path is not None
        paths = [p for p in shard_paths if p is not None]
        try:
            merge_traces(
                paths,
                config.trace_path,
                plan.route_events,
                total_requests=plan.total_requests,
                total_completed=completed,
                end_time=combined.end_time,
                meta={
                    "fleet_router": router.name,
                    "fleet_members": len(config.members),
                },
            )
        finally:
            remove_shard_traces(paths)
    return fleet_result
