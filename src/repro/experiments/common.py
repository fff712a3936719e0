"""Shared experiment plumbing: scheduler sweeps over simulation configs.

The scheduling figures (5–8) all have the same skeleton — for each
scheduling algorithm, sweep arrival rate (or trace scale factor, or a
device parameter) and record average response time and σ²/µ².  Every
point is one picklable :class:`~repro.sim.SimConfig`, so a sweep is a list
of configs that :func:`sweep_sim_configs` fans out over the persistent
worker pool; :func:`scheduling_sweep` builds the algorithm × x grid once,
with saturation detection: a data point whose pending queue exceeds
``max_queue_depth`` is recorded as saturated (``None``), matching the
paper's plots that simply run off the top of the axis.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments.parallel import parallel_map, resolve_jobs
from repro.sim import QueueOverflowError, SimConfig, SimulationResult


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

    Each worker receives one :class:`SimConfig` and rebuilds the
    device/scheduler/workload stack locally.  A point's ``x`` is its
    config's ``rate``.
    """
    return parallel_map(
        _config_point,
        [(config,) for config in configs],
        jobs=resolve_jobs(jobs),
    )


def scheduling_sweep(
    configs: Sequence[SimConfig],
    algorithms: Sequence[str],
    xs: Sequence[float],
    x_label: str,
    jobs: Optional[int] = None,
) -> SweepResult:
    """Run every algorithm on every config; ``configs[i]`` is plotted at
    ``xs[i]``.

    Each (algorithm, x) point is an independent simulation on a fresh
    device, so with ``jobs > 1`` the grid is fanned out over the worker
    pool (see :mod:`repro.experiments.parallel`); ``jobs=None`` uses the
    process-wide default (the CLI's ``--jobs``, else ``REPRO_JOBS``, else
    sequential).  Results are identical to the sequential path.
    """
    grid = [
        config.replace(scheduler=algorithm)
        for algorithm in algorithms
        for config in configs
    ]
    points = sweep_sim_configs(grid, jobs=jobs)
    sweep = SweepResult(x_label=x_label)
    for index, algorithm in enumerate(algorithms):
        row = points[index * len(configs) : (index + 1) * len(configs)]
        sweep.series[algorithm] = [
            dataclasses.replace(point, x=x)
            for point, x in zip(row, xs, strict=True)
        ]
    return sweep


def random_workload_sweep(
    device: str,
    algorithms: Sequence[str],
    rates: Sequence[float],
    num_requests: int,
    seed: int = 42,
    warmup: int = 200,
    max_queue_depth: Optional[int] = 4000,
    jobs: Optional[int] = None,
    device_params: Optional[Mapping[str, Any]] = None,
) -> SweepResult:
    """The Figs. 5/6/8 sweep: the paper's random workload over arrival rates.

    ``device`` is a device registry name (:data:`repro.sim.DEVICES`, e.g.
    ``"mems"``, ``"atlas10k"``) and ``device_params`` overrides fields of
    its parameter set (figure 6's and 8's settle settings).  Every
    algorithm at a given rate replays the same stream, regenerated from
    ``seed`` by each point.
    """
    base = SimConfig(
        device=device,
        device_params=dict(device_params or {}),
        workload="random",
        num_requests=num_requests,
        seed=seed,
        warmup=warmup,
        max_queue_depth=max_queue_depth,
    )
    return scheduling_sweep(
        [base.replace(rate=rate) for rate in rates],
        algorithms,
        rates,
        x_label="arrival rate (requests/sec)",
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
