"""The sharding front-end: one global arrival stream → N member streams.

The front-end is the fleet's "driver": it generates the global open-arrival
stream over the concatenated fleet address space (through the ``WORKLOADS``
registry, so every single-device workload generator works fleet-wide
unchanged), asks the router for a member per request, and *localizes* each
request into its member's address space — keeping the global request id and
arrival time, so per-member simulations see the same timeline slice the
fleet driver produced and merged traces/spans stay keyed by one global rid
space.

Sharding happens once, in the driver process, before any worker forks: the
rid→member assignment is recorded per request (``ShardPlan.assignment``)
and is what the ``fleet.route`` trace events and the conservation check
(``sum(shard counts) == driver count``) are built from.  Workers receive
finished per-member request streams, so the assignment cannot depend on
worker count or scheduling — the first half of the fleet's determinism
story (the second is :mod:`repro.fleet.merge`).

Generation, routing, localization and per-member splitting all run as
whole-array numpy passes over one :class:`~repro.sim.batch.RequestBatch`
(the router's ``route_array``/``member_lbn_array``); member streams stay
columnar until each member's engine ingests them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.fleet.config import FleetConfig
from repro.fleet.routing import Router
from repro.nputil import get_numpy
from repro.sim.batch import RequestBatch
from repro.sim.config import WORKLOADS


@dataclass(frozen=True)
class _FleetAddressSpace:
    """Device stand-in handed to workload builders: just a capacity."""

    capacity_sectors: int


@dataclass
class ShardPlan:
    """The front-end's output: routed per-member streams plus the record.

    ``member_requests[m]`` is member *m*'s stream as a
    :class:`~repro.sim.batch.RequestBatch`.  ``assignment[i]`` is the
    member index of the request with rid ``i`` (rids are assigned densely
    from 0 by every workload generator);
    ``route_events`` are ready-to-merge ``fleet.route`` trace events
    (only built when the fleet run is traced).
    """

    member_requests: List[RequestBatch]
    assignment: List[int]
    total_requests: int
    fleet_capacity: int
    route_events: List[dict] = field(default_factory=list)

    def member_counts(self) -> List[int]:
        """Requests routed to each member (sums to ``total_requests``)."""
        return [len(requests) for requests in self.member_requests]


def build_fleet_batch(
    config: FleetConfig, fleet_capacity: int
) -> RequestBatch:
    """Generate the global arrival stream over the fleet address space."""
    workload = WORKLOADS[config.workload](
        _FleetAddressSpace(fleet_capacity), config
    )
    return workload.generate(config.num_requests)


def shard_requests(
    config: FleetConfig,
    router: Router,
    record_events: bool = False,
) -> ShardPlan:
    """Route the global stream into per-member request streams.

    Every routed request keeps its global ``request_id`` and
    ``arrival_time``; its LBN is mapped into the member's local space by
    the router and its length clamped to the member's remaining capacity
    (range-straddling requests under ``lbn-range``, fold-wrapped tails
    under the modulo localization — both deterministic).
    """
    np = get_numpy()
    fleet_capacity = sum(router.capacities)
    batch = build_fleet_batch(config, fleet_capacity)
    members = np.ascontiguousarray(router.route_array(batch), dtype=np.int64)
    local_lbn = np.ascontiguousarray(
        router.member_lbn_array(batch.lbn, members), dtype=np.int64
    )
    capacities = np.asarray(router.capacities, dtype=np.int64)
    sectors = np.minimum(batch.sectors, capacities[members] - local_lbn)
    streams: List[RequestBatch] = []
    for member in range(router.members):
        rows = np.nonzero(members == member)[0]
        streams.append(
            RequestBatch(
                arrival=batch.arrival[rows],
                lbn=local_lbn[rows],
                sectors=sectors[rows],
                is_write=batch.is_write[rows],
                rid=batch.rid[rows],
            )
        )
    # rids are dense 0..N-1 but rows are in arrival order, which can
    # differ (trace-shaped generators sort after assigning ids) — scatter
    # by rid so ``assignment`` indexes by rid.
    assignment_array = np.empty(len(batch), dtype=np.int64)
    assignment_array[batch.rid] = members
    route_events: List[dict] = []
    if record_events:
        route_events = [
            {
                "kind": "fleet.route",
                "t": t,
                "rid": rid,
                "member": member,
                "lbn": lbn,
                "member_lbn": member_lbn,
                "sectors": clamped,
            }
            for t, rid, member, lbn, member_lbn, clamped in zip(
                batch.arrival.tolist(),
                batch.rid.tolist(),
                members.tolist(),
                batch.lbn.tolist(),
                local_lbn.tolist(),
                sectors.tolist(),
            )
        ]
    return ShardPlan(
        member_requests=streams,
        assignment=assignment_array.tolist(),
        total_requests=len(batch),
        fleet_capacity=fleet_capacity,
        route_events=route_events,
    )

