"""Perf-regression harness for the simulator's hot paths.

Three measurements, emitted as machine-readable JSON (``BENCH_hotpath.json``
at the repo root) so regressions are diffable across commits:

* **SPTF dispatch** at fixed queue depths 16/64/256 — a steady-state
  pop/service/refill loop, timed with the production stack (memoizing
  device, :class:`~repro.core.scheduling.sptf.SPTFScheduler`) against the
  uncached baseline (``MEMSDevice(memoize=False)`` + :class:`FullScanSPTF`,
  a plain scan defined here, which reproduces the pre-optimization hot
  path).  The dispatch order is asserted identical between the two.
* **Pruned SPTF dispatch** at depths 4/16/64/256/1024 — the production
  selection (a scan up to ``SCAN_DEPTH`` pending requests, best-first by
  lower bound deeper) against :class:`FullScanSPTF` on the same memoizing
  device, with the priced candidates and the fast paths taken read back
  from the scheduler's per-dispatch telemetry.  The dispatch order is
  asserted bit-identical, and at depth >= 64 the production leg must
  price strictly fewer candidates than it had pending.
* **End-to-end throughput** — one whole SPTF simulation at the sweep's
  heaviest rate, reported as events/second against the pinned
  ``END_TO_END_MIN_EVENTS_PER_S`` floor (asserted in the smoke test).
* **Figure-6 sweep wall-clock** — the end-to-end scheduler-comparison sweep
  run sequentially and with ``jobs=N`` through the process-pool sweep
  layer, plus the SPTF-only sweep against the uncached baseline.  Sweep
  results are asserted equal between the legs; on a single-core host the
  parallel leg is skipped (it would rerun the sequential path and report
  timing jitter as a speedup) and the sequential timing is reused.

Plus three guards that ride along: **tracing overhead** (null / ring /
JSONL sinks on the dispatch loop — tracing must never change scheduling),
**streaming trace analysis** (``repro.obs.analyze`` one-pass throughput,
floored at ``ANALYZE_MIN_EVENTS_PER_S`` in the smoke test), **live
observability overhead** (a summary-only live run — windowed metrics,
quantile sketches and an SLO folded from the finished result's columns —
pinned at <= ``OBS_LIVE_MAX_OVERHEAD`` of the same run without it, with
the self-profiler's zero-cost-when-off structural check and one profiled
run's subsystem breakdown riding along).

Run it as a script::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpath.py --smoke    # CI subset

Parallel speedup is bounded by the machine: the harness records
``available_parallelism`` next to the timings, and the sweep layer never
runs more workers than cores (see ``repro/experiments/parallel.py``), so on
a 1-core container the ``jobs=N`` leg degrades to the sequential path
instead of thrashing.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import sys
import time

from repro.core.scheduling.base import ListScheduler
from repro.core.scheduling.sptf import SCAN_DEPTH, SPTFScheduler

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hotpath.json"

DISPATCH_DEPTHS = (16, 64, 256)
PRUNED_DEPTHS = (4, 16, 64, 256, 1024)
SWEEP_RATES = (200.0, 500.0, 800.0, 1100.0, 1400.0, 1700.0, 2000.0)
SWEEP_ALGORITHMS = ("FCFS", "SSTF_LBN", "C-LOOK", "SPTF")


def _make_device(memoize: bool):
    from repro.mems import MEMSDevice

    return MEMSDevice(memoize=memoize)


class FullScanSPTF(ListScheduler):
    """Plain SPTF scan: price every pending request, keep the first
    minimum.  The baseline every optimized leg is checked against."""

    name = "SPTF"

    def __init__(self, device) -> None:
        super().__init__()
        self._device = device

    def select_index(self, now: float) -> int:
        estimate = self._device.estimate_positioning
        best_index = 0
        best = None
        for index, request in enumerate(self._queue):
            predicted = estimate(request, now)
            if best is None or predicted < best:
                best = predicted
                best_index = index
        return best_index


def dispatch_loop(
    depth: int,
    dispatches: int,
    memoize: bool,
    full_scan: bool = False,
    tracer=None,
):
    """Steady-state SPTF dispatch at constant queue depth.

    Pops the scheduler's choice, services it, and refills the queue from a
    seeded request stream, so every dispatch selects among exactly
    ``depth`` pending requests (the full scan prices all of them; the
    production selection prices a subset once the queue is deeper than
    ``SCAN_DEPTH``).  ``tracer`` optionally attaches an obs sink to the
    device and scheduler (the engine-less analogue of what ``Simulation``
    does).  Returns (seconds, dispatch order as LBNs, candidates priced,
    fast paths taken); the last two come from the production scheduler's
    per-dispatch telemetry and are ``None`` for the full scan.
    """
    from repro.sim.request import IOKind, Request

    rng = random.Random(20260806)
    device = _make_device(memoize)
    scheduler = FullScanSPTF(device) if full_scan else SPTFScheduler(device)
    if tracer is not None:
        device.tracer = tracer
        scheduler.tracer = tracer
    capacity = device.capacity_sectors

    def fresh_request(index: int) -> Request:
        sectors = rng.choice((1, 2, 4, 8, 16, 64))
        lbn = rng.randrange(0, capacity - sectors)
        return Request(float(index), lbn=lbn, sectors=sectors, kind=IOKind.READ)

    for index in range(depth):
        scheduler.add(fresh_request(index))

    order = []
    priced = 0
    paths = set()
    now = 0.0
    start = time.perf_counter()
    for index in range(dispatches):
        request = scheduler.pop_next(now)
        if not full_scan:
            priced += scheduler.last_priced
            paths.add(scheduler.last_fast_path)
        order.append(request.lbn)
        now += device.service(request, now).total
        scheduler.add(fresh_request(depth + index))
    elapsed = time.perf_counter() - start
    if full_scan:
        return elapsed, order, None, None
    return elapsed, order, priced, sorted(paths)


def bench_dispatch(depth: int, dispatches: int, repeats: int) -> dict:
    cached_best = uncached_best = float("inf")
    cached_order = uncached_order = None
    for _ in range(repeats):
        seconds, order, _, _ = dispatch_loop(depth, dispatches, True)
        cached_best = min(cached_best, seconds)
        cached_order = order
        seconds, order, _, _ = dispatch_loop(
            depth, dispatches, False, full_scan=True
        )
        uncached_best = min(uncached_best, seconds)
        uncached_order = order
    if cached_order != uncached_order:
        raise AssertionError(
            f"dispatch order diverged at depth {depth}: the production "
            f"stack changed the SPTF selection"
        )
    return {
        "depth": depth,
        "dispatches": dispatches,
        "cached_s": round(cached_best, 6),
        "uncached_s": round(uncached_best, 6),
        "speedup": round(uncached_best / cached_best, 3),
    }


def bench_pruned(depth: int, dispatches: int, repeats: int) -> dict:
    """The production selection against the full scan.

    Both legs run on a memoizing device, so the row isolates the
    selection itself.  The production scheduler's per-dispatch telemetry
    gives the candidates whose exact estimate was consulted and the fast
    paths taken (``scan`` up to ``SCAN_DEPTH`` pending, ``pruned``
    deeper); the selection is only correct if the dispatch orders are
    bit-identical, which is asserted every repeat.
    """
    pruned_best = scan_best = float("inf")
    for _ in range(repeats):
        seconds, pruned_order, priced, paths = dispatch_loop(
            depth, dispatches, True
        )
        pruned_best = min(pruned_best, seconds)
        seconds, scan_order, _, _ = dispatch_loop(
            depth, dispatches, True, full_scan=True
        )
        scan_best = min(scan_best, seconds)
        if pruned_order != scan_order:
            raise AssertionError(
                f"dispatch order diverged at depth {depth}: best-first "
                f"pricing changed the SPTF selection"
            )
    candidates = depth * dispatches
    if depth >= 64 and priced >= candidates:
        raise AssertionError(
            f"pruned SPTF priced {priced}/{candidates} candidates at depth "
            f"{depth}: the lower-bound ordering never pruned anything"
        )
    return {
        "depth": depth,
        "dispatches": dispatches,
        "fast_paths": paths,
        "pruned_s": round(pruned_best, 6),
        "cached_scan_s": round(scan_best, 6),
        "speedup_vs_cached_scan": round(scan_best / pruned_best, 3),
        "candidates": candidates,
        "candidates_priced": priced,
        "priced_fraction": round(priced / candidates, 4),
        "mean_priced_per_dispatch": round(priced / dispatches, 2),
    }


def bench_tracing(depth: int, dispatches: int, repeats: int) -> dict:
    """Cost of the obs layer on the cached dispatch loop.

    Three legs: the default null tracer (``enabled`` is False, every
    emission site short-circuits), a live :class:`RingBufferTracer`, and a
    :class:`JsonlTracer` writing to a scratch file.  The dispatch order is
    asserted identical across legs — tracing must never change scheduling.
    """
    import os
    import tempfile

    from repro.obs.tracer import JsonlTracer, RingBufferTracer

    null_best = ring_best = jsonl_best = float("inf")
    null_order = ring_order = None
    for _ in range(repeats):
        seconds, null_order, _, _ = dispatch_loop(depth, dispatches, True)
        null_best = min(null_best, seconds)
        ring = RingBufferTracer(capacity=4096)
        seconds, ring_order, _, _ = dispatch_loop(
            depth, dispatches, True, tracer=ring
        )
        ring_best = min(ring_best, seconds)
        fd, path = tempfile.mkstemp(suffix=".jsonl")
        os.close(fd)
        try:
            jsonl = JsonlTracer(path)
            seconds, jsonl_order, _, _ = dispatch_loop(
                depth, dispatches, True, tracer=jsonl
            )
            jsonl.close()
        finally:
            os.unlink(path)
        jsonl_best = min(jsonl_best, seconds)
        if not (null_order == ring_order == jsonl_order):
            raise AssertionError(
                f"dispatch order diverged at depth {depth}: tracing changed "
                f"the SPTF selection"
            )
    return {
        "depth": depth,
        "dispatches": dispatches,
        "null_s": round(null_best, 6),
        "ring_s": round(ring_best, 6),
        "jsonl_s": round(jsonl_best, 6),
        "ring_overhead": round(ring_best / null_best, 3),
        "jsonl_overhead": round(jsonl_best / null_best, 3),
    }


def _run_sweep(jobs, rates, algorithms, num_requests):
    from repro.experiments.common import random_workload_sweep

    start = time.perf_counter()
    sweep = random_workload_sweep(
        device="mems",
        algorithms=algorithms,
        rates=rates,
        num_requests=num_requests,
        jobs=jobs,
    )
    return time.perf_counter() - start, sweep


def _run_sptf_sweep_uncached(rates, num_requests):
    """SPTF-only sweep with every cache off — the seed-equivalent baseline.

    ``random_workload_sweep`` builds production schedulers, so this mirrors
    its per-point loop with :class:`FullScanSPTF` on an uncached device:
    the baseline gets neither the device caches nor best-first pricing.
    """
    from repro.experiments.common import SweepPoint
    from repro.sim import QueueOverflowError, Simulation
    from repro.workloads import RandomWorkload

    points = []
    start = time.perf_counter()
    for rate in rates:
        device = _make_device(False)
        workload = RandomWorkload(device.capacity_sectors, rate=rate, seed=42)
        requests = workload.generate(num_requests)
        scheduler = FullScanSPTF(device)
        sim = Simulation(device, scheduler, max_queue_depth=4000)
        try:
            result = sim.run(requests).drop_warmup(200)
        except QueueOverflowError:
            points.append(SweepPoint(rate, None, None))
            continue
        points.append(
            SweepPoint(
                rate, result.mean_response_time, result.response_time_cv2
            )
        )
    return time.perf_counter() - start, points


SEED_SWEEP_SEQUENTIAL_S = 11.749
"""Sequential figure-6 sweep wall time recorded at the seed commit.

Measured with the full configuration (``SWEEP_RATES`` x
``SWEEP_ALGORITHMS``, 6000 requests) on the same single-core reference
container class as the committed ``BENCH_hotpath.json``.  The
``speedup_vs_seed`` field divides this by the current sequential leg; it is
only emitted when the sweep runs that exact configuration.  Single-core
caveat: the containers share a host, so wall time for the *same* code moves
+-20 % run to run — re-measuring the seed commit alongside a candidate on
the same box is the fair comparison, and that interleaved measurement is
what the 5x target tracks.
"""


def bench_sweep(jobs: int, rates, algorithms, num_requests: int) -> dict:
    from repro.experiments.parallel import effective_workers

    workers = effective_workers(jobs, len(rates) * len(algorithms))
    sequential_s, sequential = _run_sweep(1, rates, algorithms, num_requests)
    if workers > 1:
        parallel_s, parallel = _run_sweep(jobs, rates, algorithms, num_requests)
        if sequential.series != parallel.series:
            raise AssertionError(
                "parallel sweep results differ from the sequential sweep"
            )
        note = None
    else:
        # One effective worker: parallel_map runs the identical in-process
        # loop, so timing it again would only report run-to-run jitter as a
        # "speedup".  Reuse the sequential measurement instead.
        parallel_s = sequential_s
        note = "single worker: parallel leg skipped, sequential time reused"
    baseline_s, baseline_points = _run_sptf_sweep_uncached(rates, num_requests)
    if baseline_points != sequential.series["SPTF"]:
        raise AssertionError(
            "uncached-baseline SPTF sweep results differ from the cached sweep"
        )
    optimized_sptf_s, _ = _run_sptf_sweep_optimized(rates, num_requests)
    report = {
        "rates": list(rates),
        "algorithms": list(algorithms),
        "num_requests": num_requests,
        "jobs_requested": jobs,
        "workers_used": workers,
        "sequential_s": round(sequential_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup_parallel": round(sequential_s / parallel_s, 3),
        "sptf_uncached_baseline_s": round(baseline_s, 3),
        "sptf_optimized_s": round(optimized_sptf_s, 3),
        "speedup_sptf_vs_baseline": round(baseline_s / optimized_sptf_s, 3),
    }
    if (
        tuple(rates) == SWEEP_RATES
        and tuple(algorithms) == SWEEP_ALGORITHMS
        and num_requests == 6000
    ):
        report["seed_sequential_s"] = SEED_SWEEP_SEQUENTIAL_S
        report["speedup_vs_seed"] = round(
            SEED_SWEEP_SEQUENTIAL_S / sequential_s, 3
        )
    if note is not None:
        report["note"] = note
    return report


def _run_sptf_sweep_optimized(rates, num_requests):
    from repro.experiments.common import random_workload_sweep

    start = time.perf_counter()
    sweep = random_workload_sweep(
        device="mems",
        algorithms=("SPTF",),
        rates=rates,
        num_requests=num_requests,
        jobs=1,
    )
    return time.perf_counter() - start, sweep


END_TO_END_MIN_EVENTS_PER_S = 25_000.0
"""CI floor for whole-simulation event throughput (events/second).

One SPTF run through ``Simulation.run`` at the sweep's heaviest arrival
rate, counting two events (arrival + completion) per request — the
engine's unit of work.  The optimized stack clears ~75k events/s on the
single-core reference container; the floor leaves ~3x headroom for shared-
host noise while still sitting far above what the pre-optimization hot
path could reach (~10k events/s), so a regression that loses best-first
pricing or the device caches trips it.
"""


def bench_end_to_end(num_requests: int, repeats: int) -> dict:
    """Whole-simulation throughput: workload -> engine -> SPTF -> device.

    The dispatch-loop rows isolate the scheduler; this row times everything
    the figure sweeps actually pay per request — event queue, dispatch,
    service-time model, statistics — as events/second, with the pinned
    ``END_TO_END_MIN_EVENTS_PER_S`` floor asserted by the smoke test.
    """
    from repro.core.scheduling import make_scheduler
    from repro.sim import Simulation
    from repro.workloads import RandomWorkload

    rate = SWEEP_RATES[-1]
    best = float("inf")
    completed = 0
    # At least two iterations: the first pays the shared planner/profile
    # cache misses for this workload, so min-of-N measures the steady
    # state the sweeps actually run in (every sweep point after the first
    # starts warm).
    for _ in range(max(repeats, 2)):
        device = _make_device(True)
        requests = RandomWorkload(
            device.capacity_sectors, rate=rate, seed=42
        ).generate(num_requests)
        sim = Simulation(
            device, make_scheduler("SPTF", device), max_queue_depth=4000
        )
        start = time.perf_counter()
        result = sim.run(requests)
        best = min(best, time.perf_counter() - start)
        completed = len(result)
    events = 2 * completed
    return {
        "requests": num_requests,
        "rate": rate,
        "events": events,
        "best_s": round(best, 6),
        "events_per_s": round(events / best, 1),
        "floor_events_per_s": END_TO_END_MIN_EVENTS_PER_S,
    }


ANALYZE_MIN_EVENTS_PER_S = 50_000.0
"""CI floor for the streaming trace-analysis pass (events/second).

``repro.obs.analyze`` reads a trace back into the run's result columns in
one pass (spans reconciled, dispatch stats counted), then folds the
time-series from those columns; below this rate a multi-GB trace stops
being analyzable in CI-scale time.  The smoke test asserts the floor; the full run just
records the measured rate.
"""


def bench_analyze(num_requests: int, repeats: int) -> dict:
    """Streaming-analysis throughput over an in-memory trace.

    Runs one traced simulation (unbounded ring buffer, so the event list is
    complete), then times :func:`repro.obs.analyze.analyze_events` — the
    single pass that rebuilds the result columns from the reconciled spans
    and counts dispatch stats, plus the windowed fold over those columns —
    over the captured events.  The span reconciliation inside
    ``analyze_events`` doubles as a correctness check: every completed
    request must come back as exactly one row of the rebuilt result.
    """
    from repro.core.scheduling import make_scheduler
    from repro.obs.analyze import analyze_events
    from repro.obs.tracer import RingBufferTracer
    from repro.sim import Simulation
    from repro.workloads import RandomWorkload

    device = _make_device(True)
    tracer = RingBufferTracer()
    sim = Simulation(
        device,
        make_scheduler("SPTF", device),
        max_queue_depth=10_000,
        tracer=tracer,
    )
    workload = RandomWorkload(device.capacity_sectors, rate=900.0, seed=11)
    sim.run(workload.generate(num_requests))
    events = tracer.events

    best = float("inf")
    analysis = None
    for _ in range(repeats):
        start = time.perf_counter()
        analysis = analyze_events(iter(events))
        best = min(best, time.perf_counter() - start)
    completions = len(analysis.result)
    if completions != num_requests:
        raise AssertionError(
            f"analyze rebuilt {completions} completions from "
            f"{num_requests} completed requests"
        )
    return {
        "requests": num_requests,
        "events": len(events),
        "spans": completions,
        "best_s": round(best, 6),
        "events_per_s": round(len(events) / best, 1),
        "floor_events_per_s": ANALYZE_MIN_EVENTS_PER_S,
    }


OBS_LIVE_MAX_OVERHEAD = 1.15
"""CI ceiling for the live-observability overhead ratio.

Both legs run the identical whole simulation: the baseline without live
observability, the live leg as a summary-only live run (``SimConfig`` with
``live_window`` and one SLO, no trace).  The live leg's drain is the
untraced one; what it adds is the fold over the finished result's
completion columns (``LiveAggregator.summary``: per-class sketches, the
window count, per-window SLO sketches).  1.15x is the target for leaving
live observability on in untraced runs."""


def bench_obs_live(num_requests: int, repeats: int) -> dict:
    """Live-observability overhead on a whole simulation, plus profiler.

    Baseline leg: ``SimConfig.run_live`` without live observability.  Live
    leg: the same run with ``live_window`` and one SLO and no trace — the
    deployment the CLI's ``--live-window``/``--slo`` use — timed through
    the end of the fold.  Both legs replay one pre-generated stream and
    alternate, best of N.  The simulation results are asserted identical —
    the fold must never change scheduling — and the overhead ratio is
    pinned at ``OBS_LIVE_MAX_OVERHEAD`` by the smoke test.  Two profiler
    guards ride along: a fresh simulation must show no instrumentation
    residue (``is_instrumented`` is structural, so profiler-off cost is
    zero by construction), and one profiled run's subsystem breakdown is
    recorded in the row.
    """
    from repro.core.scheduling import make_scheduler
    from repro.obs.live import SLOSpec
    from repro.obs.prof import SimProfiler, is_instrumented
    from repro.sim import SimConfig, Simulation
    from repro.workloads import RandomWorkload

    rate = 900.0
    slos = (
        SLOSpec(cls="all", objective=0.95, threshold_s=0.005, window_s=0.25),
    )
    plain = SimConfig(
        rate=rate, num_requests=num_requests, seed=11, warmup=0,
        max_queue_depth=10_000,
    )
    live = plain.replace(live_window=0.25, slos=slos)
    requests = plain.build_requests(plain.build_device())
    best = {"plain": float("inf"), "live": float("inf")}
    outcome = {}
    # At least two rounds so min-of-N measures the warm steady state
    # (same reasoning as bench_end_to_end).
    for _ in range(max(repeats, 2)):
        for leg, config in (("plain", plain), ("live", live)):
            start = time.perf_counter()
            outcome[leg] = config.run_live(requests=requests)
            best[leg] = min(best[leg], time.perf_counter() - start)
    plain_result, _ = outcome["plain"]
    live_result, summary = outcome["live"]
    if (
        live_result.percentiles() != plain_result.percentiles()
        or len(live_result) != len(plain_result)
    ):
        raise AssertionError(
            "live observability changed the simulation result — the fold "
            "must be a pure observer"
        )
    if summary.completions != len(plain_result):
        raise AssertionError(
            f"live summary counted {summary.completions} completions of "
            f"{len(plain_result)} — the window fold lost completions"
        )
    exact_p99 = plain_result.percentiles()["p99"]
    sketch_p99 = summary.sketches["all"].percentiles()["p99"]

    # Profiler-off zero cost is structural: a fresh simulation carries no
    # wrapped seams, so there is nothing to pay on the hot path.
    device = _make_device(True)
    requests = RandomWorkload(
        device.capacity_sectors, rate=rate, seed=11
    ).generate(num_requests)
    sim = Simulation(device, make_scheduler("SPTF", device),
                     max_queue_depth=10_000)
    if is_instrumented(sim):
        raise AssertionError(
            "fresh simulation reports profiler instrumentation — the "
            "profiler-off path is no longer zero-cost"
        )
    profiled_result, profile = SimProfiler().profile(sim, requests)
    if is_instrumented(sim):
        raise AssertionError(
            "profiler left instrumentation behind after profile()"
        )
    if profiled_result.percentiles() != plain_result.percentiles():
        raise AssertionError(
            "profiling changed the simulation result — the shadowed seams "
            "must be transparent"
        )
    return {
        "requests": num_requests,
        "rate": rate,
        "window_s": 0.25,
        "plain_s": round(best["plain"], 6),
        "live_s": round(best["live"], 6),
        "overhead": round(best["live"] / best["plain"], 3),
        "max_overhead": OBS_LIVE_MAX_OVERHEAD,
        "windows": summary.windows,
        "slo_windows": summary.slo[0]["windows"],
        "slo_violations": summary.slo[0]["violations"],
        "sketch_p99_rel_error": round(
            abs(sketch_p99 - exact_p99) / exact_p99, 5
        ),
        "profiler_off_instrumented": False,
        "profiler": profile.to_dict(),
    }


FLEET_MEMBERS = 16
"""Member count for the fleet benchmark row (the acceptance-scale fleet)."""

FLEET_MIN_EVENTS_PER_S = 45_000.0
"""CI floor for whole-fleet throughput (events/second, merged).

One fleet run end to end — global stream generation, routing, per-member
simulation, deterministic merge — counting two events (arrival +
completion) per request.  The acceptance-scale run (16 members, 1M
requests) measures ~94k events/s on the single-core reference container
(up from ~29k before the columnar pipeline: batch ingest with fused
materialization, NamedTuple request tuples, completion columns in place
of per-request records, vectorized profile priming, the cursor-based
event loop, the one-lexsort column merge, and the fleet-scope GC
pause).  The floor leaves ~2x headroom at full
scale while catching a regression that loses any of those layers or makes
the front-end or merge super-linear.
"""


def bench_fleet(
    members: int, num_requests: int, jobs: int, repeats: int
) -> dict:
    """Whole-fleet throughput plus the merge-determinism acceptance checks.

    Times ``FleetConfig.run`` end to end (sequential leg), then runs the
    ``jobs=N`` leg and asserts the merged ``to_dict`` JSON is byte-identical
    — the fleet's determinism contract — and that per-member routed counts
    conserve the stream.  On a single effective worker the parallel leg is
    skipped like the sweep benchmark's.
    """
    from repro.experiments.parallel import effective_workers
    from repro.fleet import FleetConfig

    fleet = FleetConfig.uniform(
        members, rate=800.0 * members, num_requests=num_requests
    )
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fleet.run(jobs=1)
        best = min(best, time.perf_counter() - start)
    sequential_dump = json.dumps(result.to_dict(), sort_keys=True)
    if sum(result.routed_counts) != num_requests:
        raise AssertionError(
            f"fleet routed {sum(result.routed_counts)} of {num_requests} "
            f"requests — the front-end lost or duplicated work"
        )
    if len(result) != num_requests:
        raise AssertionError(
            f"fleet completed {len(result)} of {num_requests} requests"
        )

    workers = effective_workers(jobs, members)
    if workers > 1:
        parallel_best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            parallel_result = fleet.run(jobs=jobs)
            parallel_best = min(parallel_best, time.perf_counter() - start)
        parallel_dump = json.dumps(parallel_result.to_dict(), sort_keys=True)
        if parallel_dump != sequential_dump:
            raise AssertionError(
                f"fleet merge is not deterministic: jobs=1 and jobs={jobs} "
                f"produced different merged reports"
            )
        note = None
    else:
        parallel_best = best
        note = "single worker: parallel leg skipped, sequential time reused"
    events = 2 * len(result)
    report = {
        "members": members,
        "requests": num_requests,
        "router": fleet.router,
        "rate": fleet.rate,
        "jobs_requested": jobs,
        "workers_used": workers,
        "events": events,
        "sequential_s": round(best, 3),
        "parallel_s": round(parallel_best, 3),
        "speedup_parallel": round(best / parallel_best, 3),
        "events_per_s": round(events / best, 1),
        "floor_events_per_s": FLEET_MIN_EVENTS_PER_S,
    }
    if note is not None:
        report["note"] = note
    return report


WORKLOAD_GEN_MIN_SPEEDUP = 10.0
"""CI floor for columnar workload generation vs the scalar object path.

``RandomWorkload.generate`` synthesizes a request stream in whole-array
RNG ops; ``random_requests`` in ``tests/workloads/stream_reference.py`` is
the executable scalar specification (one draw per column per request,
building a ``Request`` object each time).  The two are pinned
bit-identical by ``tests/workloads/test_batch_identity.py``; this row pins
that the array path stays an order of magnitude faster
(measured ~70x on the reference container — the floor leaves wide
headroom while catching an accidental fallback to per-request RNG calls
or object materialization inside the batch path).
"""


def bench_workload_gen(count: int, repeats: int) -> dict:
    """Columnar vs scalar workload generation throughput (same stream).

    Both legs synthesize the identical seeded random stream; the batch
    leg's output is asserted equal to the scalar leg's before timings are
    reported, so the speedup can never come from computing different
    requests.
    """
    from repro.workloads.synthetic import RandomWorkload

    # The scalar specification lives with the tests; the repository root
    # makes the ``tests`` package importable when this file runs as a
    # script.
    root = str(pathlib.Path(__file__).resolve().parent.parent)
    if root not in sys.path:
        sys.path.append(root)
    from tests.workloads.stream_reference import random_requests

    capacity = 6_750_000  # the MEMS device's sector count
    workload = RandomWorkload(capacity, rate=1000.0, seed=42)

    object_best = float("inf")
    requests = None
    for _ in range(repeats):
        start = time.perf_counter()
        requests = random_requests(workload, count)
        object_best = min(object_best, time.perf_counter() - start)

    batch_best = float("inf")
    batch = None
    for _ in range(repeats):
        start = time.perf_counter()
        batch = workload.generate(count)
        batch_best = min(batch_best, time.perf_counter() - start)

    if batch.to_requests() != requests:
        raise AssertionError(
            "RandomWorkload.generate diverged from the scalar reference "
            "stream — the columnar path is no longer bit-identical"
        )
    return {
        "count": count,
        "object_s": round(object_best, 4),
        "batch_s": round(batch_best, 4),
        "object_requests_per_s": round(count / object_best, 1),
        "batch_requests_per_s": round(count / batch_best, 1),
        "speedup": round(object_best / batch_best, 2),
        "floor_speedup": WORKLOAD_GEN_MIN_SPEEDUP,
    }


def collect(smoke: bool = False, jobs: int = 4) -> dict:
    from repro.experiments.parallel import available_parallelism

    dispatches = 128 if smoke else 512
    repeats = 1 if smoke else 3
    depths = DISPATCH_DEPTHS[:2] if smoke else DISPATCH_DEPTHS
    rates = SWEEP_RATES[:3] if smoke else SWEEP_RATES
    num_requests = 800 if smoke else 6000

    report = {
        "schema": "repro-hotpath-bench/1",
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "available_parallelism": available_parallelism(),
        },
        "config": {"smoke": smoke, "jobs": jobs},
        "sptf_dispatch": [
            bench_dispatch(depth, dispatches, repeats) for depth in depths
        ],
        "sptf_pruned": [
            bench_pruned(depth, dispatches, repeats)
            for depth in (PRUNED_DEPTHS[:3] if smoke else PRUNED_DEPTHS)
        ],
        "tracing": [
            bench_tracing(depth, dispatches, repeats) for depth in depths
        ],
        "analyze": bench_analyze(1500 if smoke else 10_000, repeats),
        "obs_live": bench_obs_live(1500 if smoke else 10_000, repeats),
        "end_to_end": bench_end_to_end(num_requests, repeats),
        "figure06_sweep": bench_sweep(
            jobs, rates, SWEEP_ALGORITHMS, num_requests
        ),
        # The full run doubles as the fleet acceptance check: 16 members
        # over >= 1M total requests, merged output byte-identical across
        # jobs=1 and jobs=N (bench_fleet raises otherwise).
        "fleet": bench_fleet(
            FLEET_MEMBERS, 20_000 if smoke else 1_000_000, jobs, 1
        ),
        "workload_gen": bench_workload_gen(
            30_000 if smoke else 200_000, repeats
        ),
    }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the SPTF dispatch and sweep hot paths."
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI subset (seconds instead of minutes)",
    )
    parser.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="worker processes for the parallel sweep leg (default 4)",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"JSON report path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    report = collect(smoke=args.smoke, jobs=args.jobs)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    print(f"\n[written to {args.output}]")
    return 0


def test_hotpath_smoke():
    """Pytest entry: tiny subset, asserts the order/result invariants."""
    report = collect_smoke_subset()
    for row in report["sptf_dispatch"]:
        assert row["cached_s"] > 0 and row["uncached_s"] > 0
    for row in report["sptf_pruned"]:
        assert row["pruned_s"] > 0 and row["cached_scan_s"] > 0
        assert 0 < row["candidates_priced"] <= row["candidates"]
        # Scan up to SCAN_DEPTH pending, best-first by lower bound deeper.
        expected = ["scan"] if row["depth"] <= SCAN_DEPTH else ["pruned"]
        assert row["fast_paths"] == expected
        if row["depth"] >= 64:
            # Best-first pricing must actually prune on a random workload
            # (bench_pruned also raises on this, so the CLI smoke run in CI
            # enforces it too).
            assert row["candidates_priced"] < row["candidates"]
    sweep = report["figure06_sweep"]
    assert sweep["sequential_s"] > 0
    assert sweep["speedup_sptf_vs_baseline"] >= 1.0, (
        f"optimized SPTF sweep ran {sweep['speedup_sptf_vs_baseline']:.2f}x "
        f"the uncached full-scan baseline — best-first pricing or the "
        f"device caches regressed below break-even"
    )
    end_to_end = report["end_to_end"]
    assert end_to_end["events_per_s"] >= END_TO_END_MIN_EVENTS_PER_S, (
        f"end-to-end simulation ran at {end_to_end['events_per_s']:.0f} "
        f"events/s (floor {END_TO_END_MIN_EVENTS_PER_S:.0f}) — the engine "
        f"hot path regressed"
    )
    fleet = report["fleet"]
    # bench_fleet already raised if routing lost requests or the jobs=1 /
    # jobs=N merged reports diverged; here we pin the throughput floor.
    assert fleet["events"] == 2 * fleet["requests"]
    assert fleet["events_per_s"] >= FLEET_MIN_EVENTS_PER_S, (
        f"fleet ran at {fleet['events_per_s']:.0f} events/s "
        f"(floor {FLEET_MIN_EVENTS_PER_S:.0f}) — the sharding front-end or "
        f"deterministic merge regressed"
    )
    workload_gen = report["workload_gen"]
    # bench_workload_gen already raised if the streams diverged; here we
    # pin the speedup floor.
    assert workload_gen["speedup"] >= WORKLOAD_GEN_MIN_SPEEDUP, (
        f"columnar workload generation ran {workload_gen['speedup']:.1f}x "
        f"the scalar path (floor {WORKLOAD_GEN_MIN_SPEEDUP:.0f}x) — the "
        f"batch path fell back to per-request work"
    )
    obs_live = report["obs_live"]
    # bench_obs_live already raised if aggregation or profiling changed the
    # simulation result; here we pin the overhead ceiling.
    assert obs_live["overhead"] <= OBS_LIVE_MAX_OVERHEAD, (
        f"live observability cost {obs_live['overhead']:.3f}x the same "
        f"run without it (ceiling {OBS_LIVE_MAX_OVERHEAD:.2f}x) — the "
        f"columnar window/sketch fold got too expensive"
    )
    assert obs_live["profiler_off_instrumented"] is False
    assert obs_live["windows"] > 0
    analyze = report["analyze"]
    assert analyze["spans"] == analyze["requests"]
    assert analyze["events_per_s"] >= ANALYZE_MIN_EVENTS_PER_S, (
        f"streaming analysis ran at {analyze['events_per_s']:.0f} events/s "
        f"(floor {ANALYZE_MIN_EVENTS_PER_S:.0f}) — the one-pass trace fold "
        f"got too slow for CI-scale traces"
    )


def test_null_tracer_overhead():
    """The disabled tracer must not slow the dispatch hot path.

    Two checks: (a) the order-identity invariant of :func:`bench_tracing`
    on a small loop, and (b) the null-tracer dispatch time against the
    committed ``BENCH_hotpath.json`` baseline with a generous noise margin
    (the <3 % acceptance bound is checked by regenerating the JSON on the
    baseline machine; a shared CI runner is too noisy for that).
    """
    row = bench_tracing(16, 128, 2)
    assert row["null_s"] > 0 and row["ring_s"] > 0 and row["jsonl_s"] > 0

    import pytest

    if not DEFAULT_OUTPUT.exists():
        pytest.skip("no committed BENCH_hotpath.json baseline")
    baseline = json.loads(DEFAULT_OUTPUT.read_text())
    by_depth = {r["depth"]: r for r in baseline.get("sptf_dispatch", ())}
    if 16 not in by_depth:
        pytest.skip("baseline has no depth-16 dispatch row")
    base = by_depth[16]
    timed = dispatch_loop(16, base["dispatches"], True)[0]
    best = min(timed, dispatch_loop(16, base["dispatches"], True)[0])
    assert best < base["cached_s"] * 1.5, (
        f"null-tracer dispatch took {best:.4f}s vs baseline "
        f"{base['cached_s']:.4f}s (+50% margin) — tracing hooks likely "
        f"slowed the hot path"
    )


def collect_smoke_subset() -> dict:
    """Smallest meaningful run (used by the pytest smoke entry)."""
    return {
        "sptf_dispatch": [bench_dispatch(16, 32, 1)],
        "sptf_pruned": [
            bench_pruned(4, 32, 1),
            bench_pruned(16, 32, 1),
            bench_pruned(64, 48, 1),
        ],
        "tracing": [bench_tracing(16, 32, 1)],
        "analyze": bench_analyze(1500, 1),
        "obs_live": bench_obs_live(1500, 1),
        "end_to_end": bench_end_to_end(800, 1),
        "figure06_sweep": bench_sweep(
            2, SWEEP_RATES[:2], ("FCFS", "SPTF"), 400
        ),
        "fleet": bench_fleet(4, 2000, 2, 1),
        "workload_gen": bench_workload_gen(10_000, 1),
    }


if __name__ == "__main__":
    sys.exit(main())
