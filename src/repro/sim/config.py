"""Declarative simulation configuration: one picklable object per run.

:class:`SimConfig` names every ingredient of a simulation — device,
scheduler, workload (all resolved through string-keyed registries), seed,
queue bound, and an optional JSONL trace destination — as a frozen
dataclass of plain values.  That makes a run *shippable*: the parallel
sweep layer sends one config per worker instead of loose positional
arguments and closures, and an experiment's exact setup can be logged,
diffed, or round-tripped through JSON.

Live objects (an open trace sink, a pre-built device) deliberately stay
out of the config; builders construct them on the worker that runs the
config.  ``device_params`` is the picklable stand-in for a parameterized
device, and ``trace_path`` the one for a tracer — a live
:class:`~repro.obs.Tracer` can still be passed to :meth:`SimConfig.run`.

The :data:`DEVICES` registry also serves the CLI (``--device``), replacing
the if/elif device dispatch that used to live there.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Mapping, Optional, Sequence, Tuple, TYPE_CHECKING,
)

from repro.core.registry import Registry
from repro.obs.live import (
    DEFAULT_WINDOW_S, LiveAggregator, LiveSummary, SLOSpec, check_width,
    splice_trace, stream_path,
)
from repro.obs.tracer import JsonlTracer, NULL_TRACER, SamplingTracer, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.batch import RequestBatch
    from repro.sim.device import StorageDevice
    from repro.sim.engine import Simulation
    from repro.sim.statistics import SimulationResult


DEVICES = Registry("device")
"""String-keyed registry of device-model factories.

Each factory takes keyword overrides of its device's parameter dataclass
(:attr:`SimConfig.device_params`); called with none it builds the stock
device.
"""


def _override(device: str, base: Any, params: Mapping[str, Any]) -> Any:
    """``base`` (a parameter dataclass) with ``params`` replaced; an unknown
    field is a ``ValueError`` naming the device and the field."""
    check_config_keys(type(base), params, what=f"{device} device_params")
    return dataclasses.replace(base, **params)


@DEVICES.register("mems")
def _make_mems(**params: Any) -> "StorageDevice":
    from repro.mems import MEMSDevice, MEMSParameters

    return MEMSDevice(_override("mems", MEMSParameters(), params))


@DEVICES.register("atlas10k", aliases=("disk", "atlas-10k"))
def _make_atlas10k(**params: Any) -> "StorageDevice":
    from repro.disk import DiskDevice, atlas_10k

    return DiskDevice(_override("atlas10k", atlas_10k(), params))


def make_device(
    name: str, params: Optional[Mapping[str, Any]] = None
) -> "StorageDevice":
    """Build a registered device model by name, with ``params`` overriding
    fields of its parameter dataclass."""
    try:
        factory = DEVICES[name]
    except KeyError as exc:
        # Reuse the registry's message: it lists registered names and adds
        # a did-you-mean suggestion for near-miss spellings.
        raise ValueError(exc.args[0]) from None
    return factory(**(params or {}))


WORKLOADS = Registry("workload")
"""String-keyed registry of workload builders.

Each builder takes ``(device, config)`` and returns a generator with a
``generate_batch(count)`` method (the :class:`~repro.sim.batch.RequestBatch`
the engine ingests); ``config.rate`` maps onto the workload's
intensity knob (arrival rate, burst rate, transaction rate) and
``config.workload_params`` carries everything else.
"""


@WORKLOADS.register("random")
def _random_workload(device: "StorageDevice", config: "SimConfig"):
    from repro.workloads import RandomWorkload

    return RandomWorkload(
        device.capacity_sectors,
        rate=config.rate,
        seed=config.seed,
        **config.workload_params,
    )


@WORKLOADS.register("uniform")
def _uniform_workload(device: "StorageDevice", config: "SimConfig"):
    from repro.workloads import UniformFixedWorkload

    return UniformFixedWorkload(
        device.capacity_sectors, seed=config.seed, **config.workload_params
    )


@WORKLOADS.register("cello")
def _cello_workload(device: "StorageDevice", config: "SimConfig"):
    from repro.workloads import CelloLikeWorkload

    return CelloLikeWorkload(
        device.capacity_sectors,
        burst_rate=config.rate,
        seed=config.seed,
        **config.workload_params,
    )


@WORKLOADS.register("tpcc")
def _tpcc_workload(device: "StorageDevice", config: "SimConfig"):
    from repro.workloads import TPCCLikeWorkload

    return TPCCLikeWorkload(
        device.capacity_sectors,
        transaction_rate=config.rate,
        seed=config.seed,
        **config.workload_params,
    )


@dataclass(frozen=True)
class SimConfig:
    """Complete, picklable description of one simulation run.

    Attributes:
        device: Device registry name (:data:`DEVICES`): ``mems``,
            ``atlas10k``.
        scheduler: Scheduler registry name
            (:data:`repro.core.scheduling.SCHEDULERS`), e.g. ``SPTF``.
        workload: Workload registry name (:data:`WORKLOADS`).
        rate: Workload intensity (requests/s for the random workload).
        num_requests: Stream length to generate.
        seed: Workload RNG seed.
        warmup: Completed requests dropped from the front of the result.
        max_queue_depth: Saturation bound
            (see :class:`repro.sim.engine.QueueOverflowError`).
        jobs: Worker-process count for sweep fan-out (``None`` = default).
        trace_path: When set, :meth:`run` writes a JSONL event trace here
            (gzip-compressed when the path ends in ``.gz``).
        trace_sample: When set (and > 1), wrap the trace sink in a
            :class:`~repro.obs.tracer.SamplingTracer` keeping every N-th
            request (plus head/tail windows); the sampling parameters are
            recorded in the ``trace.meta`` header.  ``1`` traces every
            request and is event-identical to leaving this unset.
        live_window: When set (finite, > 0), :meth:`run_live` folds the
            finished run's completion columns into tumbling windows of
            this width (simulated seconds) and per-class quantile sketches
            (:class:`~repro.obs.live.LiveAggregator`); a traced run gets
            its ``obs.window`` events spliced into the trace.  Setting
            :attr:`slos` implies live aggregation with the default window.
        slos: Per-class latency objectives
            (:class:`~repro.obs.live.SLOSpec`) evaluated by the same fold;
            violations become ``slo.violation`` trace events.  Any
            sequence is accepted and normalized to a tuple.
        device_params: Overrides of the device's parameter dataclass,
            e.g. ``{"settle_constants": 0.0}`` for ``mems``
            (:class:`~repro.mems.MEMSParameters`); an unknown field makes
            :meth:`build_device` raise ``ValueError`` naming the device
            and the field.
        scheduler_params: Keyword options for the scheduler factory, e.g.
            ``{"age_weight": 0.02}`` for ASPTF or
            ``{"sectors_per_cylinder": 2700}`` for SXTF.  Only the options
            a factory declares are accepted: anything else makes
            :meth:`build_scheduler` raise ``ValueError`` naming the
            scheduler, the unknown options and the accepted ones.
        workload_params: Extra keyword arguments for the workload builder.
    """

    device: str = "mems"
    scheduler: str = "SPTF"
    workload: str = "random"
    rate: float = 800.0
    num_requests: int = 5000
    seed: int = 42
    warmup: int = 0
    max_queue_depth: Optional[int] = 4000
    jobs: Optional[int] = None
    trace_path: Optional[str] = None
    trace_sample: Optional[int] = None
    live_window: Optional[float] = None
    slos: Tuple[SLOSpec, ...] = ()
    device_params: Dict[str, Any] = field(default_factory=dict)
    scheduler_params: Dict[str, Any] = field(default_factory=dict)
    workload_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_requests < 0:
            raise ValueError(f"negative num_requests: {self.num_requests}")
        if self.warmup < 0:
            raise ValueError(f"negative warmup: {self.warmup}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1: {self.jobs}")
        if self.trace_sample is not None and self.trace_sample < 1:
            raise ValueError(f"trace_sample must be >= 1: {self.trace_sample}")
        if self.live_window is not None:
            check_width("live_window", self.live_window)
        slos = tuple(self.slos)
        object.__setattr__(self, "slos", slos)
        for index, spec in enumerate(slos):
            if not isinstance(spec, SLOSpec):
                raise TypeError(
                    f"slos[{index}] is {type(spec).__name__}, expected "
                    f"SLOSpec (use SLOSpec.from_dict for serialized specs)"
                )

    # -- builders ----------------------------------------------------------- #

    def build_device(self) -> "StorageDevice":
        return make_device(self.device, self.device_params)

    def build_scheduler(self, device: "StorageDevice"):
        from repro.core.scheduling import make_scheduler

        return make_scheduler(self.scheduler, device, **self.scheduler_params)

    def build_requests(self, device: "StorageDevice") -> "RequestBatch":
        workload = WORKLOADS[self.workload](device, self)
        return workload.generate_batch(self.num_requests)

    @property
    def live_enabled(self) -> bool:
        """True when the run carries a live aggregator (window or SLOs)."""
        return self.live_window is not None or bool(self.slos)

    def build_tracer(self) -> Tracer:
        """A fresh sink for :attr:`trace_path` (null tracer when unset).

        With :attr:`trace_sample` > 1 the JSONL sink is wrapped in a
        :class:`~repro.obs.tracer.SamplingTracer` and the sampling
        parameters are written into the ``trace.meta`` header; a sample of
        1 (or ``None``) produces a byte-identical unsampled trace.  Live
        window events are not part of the sink: :meth:`run_live` splices
        them into the file after the run.
        """
        sink: Tracer = NULL_TRACER
        if self.trace_path is not None:
            every = self.trace_sample or 1
            sink = JsonlTracer(
                self.trace_path, meta=SamplingTracer.meta(every)
            )
            if every > 1:
                sink = SamplingTracer(sink, every)
        return sink

    def build_simulation(self, tracer: Optional[Tracer] = None) -> "Simulation":
        from repro.sim.engine import Simulation

        return Simulation.from_config(self, tracer=tracer)

    # -- execution ---------------------------------------------------------- #

    def run(self, tracer: Optional[Tracer] = None) -> "SimulationResult":
        """Build the full stack and run it to completion.

        Opens (and closes) the :attr:`trace_path` sink unless a live
        ``tracer`` overrides it.  Raises
        :class:`~repro.sim.engine.QueueOverflowError` on saturation, like
        ``Simulation.run``; the sweep helpers map that to a saturated point.
        """
        return self.run_live(tracer=tracer)[0]

    def run_live(
        self,
        requests: Optional["RequestBatch"] = None,
        tracer: Optional[Tracer] = None,
    ) -> Tuple["SimulationResult", Optional[LiveSummary]]:
        """:meth:`run`, also returning the live summary (``None`` when
        live aggregation is off), folded from the whole run's columns.

        ``requests`` replaces the workload's stream (a fleet member's
        shard).  A traced live run writes its stream to a temporary file,
        then splices the window events into :attr:`trace_path`
        (:func:`~repro.obs.live.splice_trace`); if the run raises, the
        trace keeps the stream alone.  A passed-in ``tracer`` gets no
        window events.
        """
        live: Optional[LiveAggregator] = None
        if self.live_enabled:
            live = LiveAggregator(self.live_window or DEFAULT_WINDOW_S, self.slos)
        trace_path = self.trace_path if live is not None and tracer is None else None
        stream = None if trace_path is None else stream_path(trace_path)
        config = self if stream is None else self.replace(trace_path=stream)
        own_tracer = tracer is None
        if tracer is None:
            tracer = config.build_tracer()
        events: Sequence[dict] = ()
        try:
            try:
                simulation = config.build_simulation(tracer=tracer)
                result = simulation.run(
                    requests
                    if requests is not None
                    else self.build_requests(simulation.device)
                )
            finally:
                if own_tracer:
                    tracer.close()
            if live is not None and stream is not None:
                events = live.events(result)
        finally:
            if stream is not None and trace_path is not None:
                splice_trace(stream, trace_path, events)
        summary = live.summary(result) if live is not None else None
        return result.drop_warmup(self.warmup), summary

    def replace(self, **changes) -> "SimConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> dict:
        """JSON-ready dump (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimConfig":
        """Rebuild a config from a :meth:`to_dict` dump (or JSON thereof).

        The inverse of :meth:`to_dict`, so configs round-trip through files
        and across processes symmetrically.  Unknown keys are rejected with
        a ``Registry.suggest()``-style did-you-mean message instead of the
        bare ``TypeError`` a ``cls(**data)`` splat would raise.
        """
        if not isinstance(data, Mapping):
            raise TypeError(
                f"{cls.__name__}.from_dict takes a mapping, got "
                f"{type(data).__name__}"
            )
        fields = check_config_keys(cls, data)
        if fields.get("slos"):
            fields["slos"] = tuple(
                spec if isinstance(spec, SLOSpec) else SLOSpec.from_dict(spec)
                for spec in fields["slos"]
            )
        return cls(**fields)


def check_config_keys(
    config_cls: type, data: Mapping[str, Any], what: Optional[str] = None
) -> Dict[str, Any]:
    """Validate ``data``'s keys against a config dataclass's fields.

    Returns a plain ``dict`` copy safe to splat into the constructor;
    raises ``ValueError`` naming the first unknown key, the closest field
    name (``difflib``, same cutoff as :meth:`Registry.suggest`), and the
    known-field list.  ``what`` names the fields in the message (default:
    the class name).  Shared by :meth:`SimConfig.from_dict`,
    :meth:`repro.fleet.FleetConfig.from_dict` and the device factories.
    """
    names = [f.name for f in dataclasses.fields(config_cls)]
    for key in data:
        if key in names:
            continue
        message = f"unknown {what or config_cls.__name__} field: {key!r}"
        matches = difflib.get_close_matches(str(key), names, n=1, cutoff=0.6)
        if matches:
            message += f" (did you mean {matches[0]!r}?)"
        raise ValueError(message + f"; known fields: {', '.join(names)}")
    return dict(data)
