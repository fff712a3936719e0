"""Shared experiment plumbing: scheduler sweeps and service-time loops.

The scheduling figures (5–8) all have the same skeleton — for each
scheduling algorithm, sweep arrival rate (or trace scale factor) and record
average response time and σ²/µ².  :func:`scheduling_sweep` implements it
once, with saturation detection: a data point whose pending queue exceeds
``max_queue_depth`` is recorded as saturated (``None``), matching the
paper's plots that simply run off the top of the axis.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TYPE_CHECKING,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.analyze import TraceAnalysis

from repro.core.scheduling import make_scheduler
from repro.experiments.parallel import parallel_map, resolve_jobs
from repro.obs.tracer import Tracer
from repro.sim import (
    QueueOverflowError,
    Request,
    SimConfig,
    Simulation,
    SimulationResult,
    StorageDevice,
)
from repro.sim.config import WORKLOADS


@dataclass(frozen=True)
class SweepPoint:
    """One (x, algorithm) measurement of a scheduling sweep."""

    x: float
    mean_response_time: Optional[float]
    response_time_cv2: Optional[float]

    @property
    def saturated(self) -> bool:
        return self.mean_response_time is None


@dataclass
class SweepResult:
    """All measurements of one sweep, keyed by algorithm name."""

    x_label: str
    series: Dict[str, List[SweepPoint]] = field(default_factory=dict)

    def algorithms(self) -> List[str]:
        return list(self.series)

    def xs(self) -> List[float]:
        first = next(iter(self.series.values()))
        return [point.x for point in first]


def run_workload(
    device: StorageDevice,
    algorithm: str,
    requests: Sequence[Request],
    warmup: int = 0,
    max_queue_depth: Optional[int] = 4000,
    sectors_per_cylinder: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> Optional[SimulationResult]:
    """Simulate one (device, algorithm, request stream) combination.

    Returns ``None`` when the workload saturates the device (pending queue
    exceeded ``max_queue_depth``).  ``tracer`` instruments the run (see
    :mod:`repro.obs`); the default null tracer costs nothing.
    """
    scheduler = make_scheduler(
        algorithm, device, sectors_per_cylinder=sectors_per_cylinder
    )
    sim = Simulation(
        device, scheduler, max_queue_depth=max_queue_depth, tracer=tracer
    )
    try:
        result = sim.run(requests)
    except QueueOverflowError:
        return None
    return result.drop_warmup(warmup)


def run_sim_config(config: SimConfig) -> Optional[SimulationResult]:
    """Run one :class:`~repro.sim.SimConfig` to completion.

    The saturation-tolerant twin of ``SimConfig.run``: returns ``None``
    instead of raising when the pending queue overflows, which is how the
    sweep harness records a saturated point.
    """
    try:
        return config.run()
    except QueueOverflowError:
        return None


def _config_point(config: SimConfig) -> SweepPoint:
    """Measure one sweep point described entirely by a picklable config."""
    result = run_sim_config(config)
    if result is None or len(result) == 0:
        return SweepPoint(config.rate, None, None)
    return SweepPoint(
        config.rate, result.mean_response_time, result.response_time_cv2
    )


def sweep_sim_configs(
    configs: Sequence[SimConfig], jobs: Optional[int] = None
) -> List[SweepPoint]:
    """Measure every config, fanning out over worker processes.

    Unlike the closure-based :func:`scheduling_sweep` spec, a config list is
    plain picklable data, so this path works with any multiprocessing start
    method — each worker receives one :class:`SimConfig` and rebuilds the
    device/scheduler/workload stack locally.
    """
    return parallel_map(
        _config_point,
        [(config,) for config in configs],
        jobs=resolve_jobs(jobs),
    )


def config_label(config: SimConfig) -> str:
    """Short human label for one sweep config (report row headers)."""
    return f"{config.device}+{config.scheduler}@{config.rate:g}"


def traced_sweep(
    configs: Sequence[SimConfig],
    trace_dir: str,
    jobs: Optional[int] = None,
    bucket_s: Optional[float] = None,
) -> List[Tuple[str, "TraceAnalysis"]]:
    """Run a config sweep with per-config traces, then analyze each trace.

    Every config is re-run with ``trace_path`` pointed at a gzipped JSONL
    file under ``trace_dir`` (one per config, named by index and label),
    fanned out over workers like :func:`sweep_sim_configs`; the traces are
    then folded into :class:`~repro.obs.analyze.TraceAnalysis` objects.
    Returns ``[(label, analysis), ...]`` ready for
    :func:`repro.obs.report.write_comparative` — the comparative-report
    path behind ``experiments --report out.html``.

    A config that saturates leaves a truncated trace (no ``sim.end``); its
    analysis still loads, with ``spans_pending`` reporting the requests cut
    off in flight.
    """
    from repro.obs.analyze import DEFAULT_BUCKET_S, analyze_trace

    os.makedirs(trace_dir, exist_ok=True)
    labels = [config_label(config) for config in configs]
    traced = [
        config.replace(
            trace_path=os.path.join(
                trace_dir,
                f"{index:03d}-{label.replace('@', '-at-')}.jsonl.gz",
            )
        )
        for index, (config, label) in enumerate(zip(configs, labels))
    ]
    sweep_sim_configs(traced, jobs=jobs)
    width = DEFAULT_BUCKET_S if bucket_s is None else bucket_s
    return [
        (label, analyze_trace(config.trace_path, bucket_s=width))
        for label, config in zip(labels, traced)
    ]


def _sweep_point(
    device_factory: Callable[[], StorageDevice],
    algorithm: str,
    x: float,
    requests_for_x: Callable[[StorageDevice, float], Sequence[Request]],
    warmup: int,
    max_queue_depth: Optional[int],
    sectors_per_cylinder: Optional[int],
) -> SweepPoint:
    """Measure one (algorithm, x) point on a fresh device.

    Shared verbatim by the sequential and process-pool sweep paths, so the
    two are bit-identical by construction.
    """
    device = device_factory()
    requests = requests_for_x(device, x)
    result = run_workload(
        device,
        algorithm,
        requests,
        warmup=warmup,
        max_queue_depth=max_queue_depth,
        sectors_per_cylinder=sectors_per_cylinder,
    )
    if result is None or len(result) == 0:
        return SweepPoint(x, None, None)
    return SweepPoint(x, result.mean_response_time, result.response_time_cv2)


def scheduling_sweep(
    device_factory: Callable[[], StorageDevice],
    algorithms: Sequence[str],
    xs: Sequence[float],
    requests_for_x: Callable[[StorageDevice, float], Sequence[Request]],
    x_label: str,
    warmup: int = 200,
    max_queue_depth: Optional[int] = 4000,
    sectors_per_cylinder: Optional[int] = None,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Run every algorithm at every x value with a fresh device each time.

    Each (algorithm, x) point is an independent simulation, so with
    ``jobs > 1`` the grid is fanned out over a process pool (see
    :mod:`repro.experiments.parallel`); ``jobs=None`` uses the process-wide
    default (the CLI's ``--jobs``, else sequential).  Results are identical
    to the sequential path.
    """
    sweep = SweepResult(x_label=x_label)

    def point(algorithm: str, x: float) -> SweepPoint:
        return _sweep_point(
            device_factory,
            algorithm,
            x,
            requests_for_x,
            warmup,
            max_queue_depth,
            sectors_per_cylinder,
        )

    tasks = [(algorithm, x) for algorithm in algorithms for x in xs]
    points = parallel_map(point, tasks, jobs=resolve_jobs(jobs))
    for index, algorithm in enumerate(algorithms):
        sweep.series[algorithm] = list(
            points[index * len(xs) : (index + 1) * len(xs)]
        )
    return sweep


def random_workload_sweep(
    device_factory: Union[str, Callable[[], StorageDevice]],
    algorithms: Sequence[str],
    rates: Sequence[float],
    num_requests: int,
    seed: int = 42,
    warmup: int = 200,
    max_queue_depth: Optional[int] = 4000,
    jobs: Optional[int] = None,
) -> SweepResult:
    """The Figs. 5/6/8 sweep: the paper's random workload over arrival rates.

    ``device_factory`` may be a no-argument callable or a device registry
    name (:data:`repro.sim.DEVICES`, e.g. ``"mems"``, ``"atlas10k"``).  A
    registry name routes each grid point through a picklable
    :class:`~repro.sim.SimConfig`; a callable keeps the closure path for
    parameterized devices (e.g. figure 6's tip-substrate variants).  Both
    paths produce identical results — they run the same workload, scheduler
    factory, and warmup through the same engine.
    """
    if isinstance(device_factory, str):
        base = SimConfig(
            device=device_factory,
            workload="random",
            num_requests=num_requests,
            seed=seed,
            warmup=warmup,
            max_queue_depth=max_queue_depth,
        )
        configs = [
            base.replace(scheduler=algorithm, rate=rate)
            for algorithm in algorithms
            for rate in rates
        ]
        points = sweep_sim_configs(configs, jobs=jobs)
        sweep = SweepResult(x_label="arrival rate (requests/sec)")
        for index, algorithm in enumerate(algorithms):
            sweep.series[algorithm] = list(
                points[index * len(rates) : (index + 1) * len(rates)]
            )
        return sweep

    # Every algorithm at a given rate replays the same stream (the sweep
    # compares schedulers on identical arrivals), and the engine never
    # mutates its input batch, so the grid's per-rate streams are generated
    # once and shared.  Keyed by capacity too: a factory could hand back
    # devices of different sizes, and the draw depends on the LBN range.
    stream_cache: dict = {}

    def requests_for_rate(device: StorageDevice, rate: float):
        key = (device.capacity_sectors, rate)
        stream = stream_cache.get(key)
        if stream is None:
            # Through the workload registry — the same dispatch path the
            # config-based branch and the CLI use.
            workload = WORKLOADS["random"](
                device, SimConfig(rate=rate, seed=seed)
            )
            stream = stream_cache[key] = workload.generate_batch(num_requests)
        return stream

    return scheduling_sweep(
        device_factory,
        algorithms,
        rates,
        requests_for_rate,
        x_label="arrival rate (requests/sec)",
        warmup=warmup,
        max_queue_depth=max_queue_depth,
        jobs=jobs,
    )


def format_sweep_table(
    sweep: SweepResult,
    title: str,
    x_header: str,
    metric: str = "response",
    x_format: Callable[[float], object] = lambda x: int(x),
) -> str:
    """Render one sweep metric as an aligned table.

    ``metric`` is ``"response"`` (mean response time, shown in ms) or
    ``"cv2"`` (σ²/µ²); saturated points render as ``sat.``.
    """
    from repro.experiments.formatting import format_table

    if metric not in ("response", "cv2"):
        raise ValueError(f"unknown metric: {metric}")
    rows = []
    for x_index, x in enumerate(sweep.xs()):
        row = [x_format(x)]
        for algorithm in sweep.algorithms():
            point = sweep.series[algorithm][x_index]
            if point.saturated:
                row.append(None)
            elif metric == "response":
                row.append(point.mean_response_time * 1e3)
            else:
                row.append(point.response_time_cv2)
        rows.append(row)
    unit = " (ms)" if metric == "response" else " cv2"
    headers = [x_header] + [f"{a}{unit}" for a in sweep.algorithms()]
    return format_table(headers, rows, title=title)


def service_time_loop(
    device: StorageDevice, requests: Iterable[Request]
) -> List[float]:
    """Back-to-back service times (no queueing): the Figs. 9–11 measurement.

    Each request is serviced at a fixed ``now`` of 0.0 — the measurement is
    deliberately *state-carrying* (the device's mechanical state after one
    request is the starting state of the next) but time-free, isolating the
    mechanical service cost from any arrival process.
    """
    return [device.service(request, 0.0).total for request in requests]
