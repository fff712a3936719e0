"""Declarative fleet configuration: one picklable object per fleet run.

:class:`FleetConfig` is the fleet-level sibling of
:class:`~repro.sim.SimConfig` and follows the same config-first contract —
frozen, picklable, ``to_dict``/``from_dict`` round-trip through JSON — so a
whole multi-device run ships across processes and files as one value.

A fleet is N *member* devices behind a routing front-end.  Each member is
described by a full :class:`SimConfig` (device, scheduler, queue bound,
warmup), which keeps the member substrate identical to a single-device run;
the fleet-level fields describe the *global* open-arrival stream (workload,
rate, request count, seed) and the routing policy that splits it.  Member
``workload``/``rate``/``num_requests``/``seed`` fields are therefore unused
— the front-end generates one stream over the concatenated fleet address
space and routes it — and member ``trace_path`` must stay unset (the fleet
owns tracing; see :mod:`repro.fleet.merge`).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.fleet.routing import Router, make_router
from repro.obs.live import SLOSpec, check_width
from repro.sim.config import SimConfig, check_config_keys

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.merge import FleetResult


@dataclass(frozen=True)
class FleetConfig:
    """Complete, picklable description of one sharded fleet run.

    Attributes:
        members: Per-member :class:`SimConfig` substrates (device,
            scheduler, ``scheduler_params``, ``max_queue_depth``,
            ``warmup``).  Any sequence is accepted and normalized to a
            tuple.
        router: Routing policy name (:data:`repro.fleet.ROUTERS`):
            ``lbn-range``, ``hash``, ``round-robin``,
            ``least-loaded-static``.
        workload: Workload registry name
            (:data:`repro.sim.config.WORKLOADS`) for the *global* arrival
            stream, generated over the summed fleet capacity.
        rate: Fleet-wide arrival intensity (the workload's rate knob);
            each member sees roughly ``rate / len(members)`` under a
            balanced router.
        num_requests: Global stream length.
        seed: Workload RNG seed.
        jobs: Default worker-process count for shard fan-out
            (:meth:`run`'s ``jobs=`` overrides; ``None`` = the process-wide
            default).
        trace_path: When set, :meth:`run` writes one *merged* fleet JSONL
            trace here — per-shard events tagged with their ``member``
            index, interleaved in time order with ``fleet.route`` events —
            gzip-compressed when the path ends in ``.gz``.
        live_window: When set (finite, > 0), every member's worker folds
            its completion columns into tumbling windows of this width
            (:class:`~repro.obs.live.LiveAggregator`); per-member sketches
            and windowed metrics come back in the
            :class:`~repro.fleet.merge.FleetResult`, merged
            bit-identically for any ``jobs``.  Setting :attr:`slos`
            implies live aggregation with the default window.
        slos: Fleet-wide per-class latency objectives
            (:class:`~repro.obs.live.SLOSpec`), evaluated by every
            member's fold; ``slo.violation`` events land in the merged
            trace and per-member compliance in the fleet result and report.
        router_params: Extra keyword arguments for the router factory
            (e.g. ``{"chunk_sectors": 64}`` for ``hash``).
        workload_params: Extra keyword arguments for the workload builder.
    """

    members: Tuple[SimConfig, ...] = ()
    router: str = "lbn-range"
    workload: str = "random"
    rate: float = 800.0
    num_requests: int = 5000
    seed: int = 42
    jobs: Optional[int] = None
    trace_path: Optional[str] = None
    live_window: Optional[float] = None
    slos: Tuple[SLOSpec, ...] = ()
    router_params: Dict[str, Any] = field(default_factory=dict)
    workload_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("fleet has no members")
        for index, member in enumerate(members):
            if not isinstance(member, SimConfig):
                raise TypeError(
                    f"member {index} is {type(member).__name__}, expected "
                    f"SimConfig (use SimConfig.from_dict for serialized "
                    f"members)"
                )
            if member.trace_path is not None:
                raise ValueError(
                    f"member {index} sets trace_path={member.trace_path!r}; "
                    f"the fleet owns tracing — set FleetConfig.trace_path"
                )
        if self.num_requests < 0:
            raise ValueError(f"negative num_requests: {self.num_requests}")
        if self.jobs is not None and self.jobs < 1:
            raise ValueError(f"jobs must be >= 1: {self.jobs}")
        if self.live_window is not None:
            check_width("live_window", self.live_window)
        slos = tuple(self.slos)
        object.__setattr__(self, "slos", slos)
        for index, spec in enumerate(slos):
            if not isinstance(spec, SLOSpec):
                raise TypeError(
                    f"slos[{index}] is {type(spec).__name__}, expected "
                    f"SLOSpec (use SLOSpec.from_dict or parse_slo)"
                )

    @property
    def live_enabled(self) -> bool:
        """Whether members run under live aggregation (window or SLOs set)."""
        return self.live_window is not None or bool(self.slos)

    # -- construction helpers ----------------------------------------------- #

    @classmethod
    def uniform(
        cls, count: int, member: Optional[SimConfig] = None, **changes: Any
    ) -> "FleetConfig":
        """A fleet of ``count`` identical members.

        ``member`` defaults to a stock :class:`SimConfig`; ``changes`` are
        fleet-level fields (``router=``, ``rate=``, ...).
        """
        if count < 1:
            raise ValueError(f"fleet needs >= 1 member: {count}")
        base = member if member is not None else SimConfig()
        return cls(members=(base,) * count, **changes)

    def replace(self, **changes: Any) -> "FleetConfig":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return dataclasses.replace(self, **changes)

    # -- serialization ------------------------------------------------------ #

    def to_dict(self) -> dict:
        """JSON-ready dump (inverse of :meth:`from_dict`)."""
        out = dataclasses.asdict(self)
        out["members"] = [member.to_dict() for member in self.members]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetConfig":
        """Rebuild a fleet config from a :meth:`to_dict` dump (or JSON).

        Unknown keys — at the fleet level and inside each member — are
        rejected with a did-you-mean message, like
        :meth:`SimConfig.from_dict`.
        """
        if not isinstance(data, Mapping):
            raise TypeError(
                f"FleetConfig.from_dict takes a mapping, got "
                f"{type(data).__name__}"
            )
        fields = check_config_keys(cls, data)
        members = fields.get("members")
        if members is None:
            raise ValueError("FleetConfig.from_dict: missing 'members'")
        fields["members"] = tuple(
            member
            if isinstance(member, SimConfig)
            else SimConfig.from_dict(member)
            for member in members
        )
        if "slos" in fields:
            fields["slos"] = tuple(
                spec if isinstance(spec, SLOSpec) else SLOSpec.from_dict(spec)
                for spec in fields["slos"]
            )
        return cls(**fields)

    # -- builders ------------------------------------------------------------ #

    def member_capacities(self) -> Tuple[int, ...]:
        """Per-member device capacities in sectors (devices built once)."""
        return tuple(
            member.build_device().capacity_sectors for member in self.members
        )

    def fleet_capacity(self) -> int:
        """Total fleet address space: the summed member capacities."""
        return sum(self.member_capacities())

    def build_router(self, capacities: Tuple[int, ...]) -> Router:
        """A fresh router over ``capacities`` (stateful policies reset)."""
        return make_router(self.router, capacities, **self.router_params)

    # -- execution ----------------------------------------------------------- #

    def run(self, jobs: Optional[int] = None) -> "FleetResult":
        """Shard, execute, and merge the whole fleet run.

        See :func:`repro.fleet.run.run_fleet`; ``jobs`` overrides the
        config's default.  Results (and any merged trace/report bytes) are
        identical for every ``jobs`` value.
        """
        from repro.fleet.run import run_fleet

        return run_fleet(self, jobs=jobs)
