"""Request routing policies for the fleet front-end.

A *router* deterministically assigns every request of the fleet's global
arrival stream to one member device, and maps the request's fleet-wide LBN
into that member's local address space.  Routers are pure functions of the
stream (no device feedback, no wall clock, no RNG), so the rid→member
assignment is identical run-to-run and independent of how many worker
processes execute the shards — the property the deterministic-merge layer
is built on.

Policies are registered in :data:`ROUTERS` — the same string-keyed,
spelling-tolerant :class:`~repro.core.registry.Registry` that serves
``SCHEDULERS``/``LAYOUTS``/``DEVICES``/``WORKLOADS`` — so the CLI, configs,
and sweeps resolve router names through one table:

``lbn-range``
    Contiguous static partition: member *i* owns the LBN range
    ``[start_i, start_i + capacity_i)`` of the concatenated fleet address
    space.  The only policy that preserves fleet-wide locality (sequential
    streams stay on one member), and the identity mapping for a 1-member
    fleet.
``hash``
    Chunked consistent placement: the LBN's chunk index (``lbn //
    chunk_sectors``) is mixed through SplitMix64 and reduced modulo the
    member count, so a given block always lands on the same member
    regardless of arrival order.
``round-robin``
    ``rid % members`` — perfect request-count balance, no locality.
``least-loaded-static``
    Greedy offline balance: each request goes to the member with the
    smallest cumulative routed *sectors* so far (ties to the lowest
    index).  "Static" because the load signal is the stream itself, not
    device feedback — the assignment depends only on the stream prefix.
"""

from __future__ import annotations

import heapq
from typing import Sequence, TYPE_CHECKING, Tuple

from repro.core.registry import Registry
from repro.nputil import get_numpy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.batch import RequestBatch

ROUTERS = Registry("router")
"""String-keyed registry of router factories.

Each factory takes ``(capacities, **params)`` — the per-member capacities
in sectors — and returns a :class:`Router`.
"""


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a deterministic 64-bit integer mix.

    Used instead of :func:`hash` because Python salts string hashing per
    process (``PYTHONHASHSEED``); this mix is identical in every process
    and on every platform, which the cross-worker assignment requires.
    """
    value = (value + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


class Router:
    """Base routing policy over a fixed member-capacity vector.

    Subclasses implement :meth:`route_array`, which assigns every row of a
    :class:`~repro.sim.batch.RequestBatch` in one pass;
    :meth:`member_lbn_array` maps the fleet-wide LBNs into the chosen
    members' local spaces (the default folds them modulo the member
    capacity, which non-range policies use — the simulation only needs a
    valid, deterministic local address).  Stateful policies
    (``least-loaded-static``) carry state across :meth:`route_array`
    calls, so the front-end builds a fresh router per sharding pass.
    """

    name = "router"

    def __init__(self, capacities: Sequence[int]) -> None:
        if not capacities:
            raise ValueError("fleet has no members")
        if any(capacity < 1 for capacity in capacities):
            raise ValueError(f"non-positive member capacity in {capacities}")
        self.capacities: Tuple[int, ...] = tuple(capacities)
        self.members = len(self.capacities)

    def route_array(self, batch: "RequestBatch"):
        """Member index (0-based) per batch row, as an int64 array."""
        raise NotImplementedError

    def member_lbn_array(self, lbn, members):
        """Each row's starting LBN in its member's local address space."""
        np = get_numpy()
        capacities = np.asarray(self.capacities, dtype=np.int64)
        return lbn % capacities[members]


@ROUTERS.register("lbn-range", aliases=("range",))
class LBNRangeRouter(Router):
    """Static contiguous partition of the concatenated fleet LBN space."""

    name = "lbn-range"

    def __init__(self, capacities: Sequence[int]) -> None:
        super().__init__(capacities)
        starts = [0]
        for capacity in self.capacities[:-1]:
            starts.append(starts[-1] + capacity)
        self._starts = starts
        self.fleet_capacity = starts[-1] + self.capacities[-1]

    def route_array(self, batch: "RequestBatch"):
        np = get_numpy()
        lbn = batch.lbn
        bad = (lbn < 0) | (lbn >= self.fleet_capacity)
        if bool(np.any(bad)):
            offender = int(lbn[int(np.argmax(bad))])
            raise ValueError(
                f"lbn {offender} outside fleet capacity "
                f"{self.fleet_capacity}"
            )
        starts = np.asarray(self._starts, dtype=np.int64)
        return np.searchsorted(starts, lbn, side="right") - 1

    def member_lbn_array(self, lbn, members):
        np = get_numpy()
        starts = np.asarray(self._starts, dtype=np.int64)
        return lbn - starts[members]


@ROUTERS.register("hash")
class HashRouter(Router):
    """Chunked SplitMix64 placement: same chunk, same member, always."""

    name = "hash"

    def __init__(
        self, capacities: Sequence[int], chunk_sectors: int = 256
    ) -> None:
        super().__init__(capacities)
        if chunk_sectors < 1:
            raise ValueError(f"chunk_sectors must be >= 1: {chunk_sectors}")
        self.chunk_sectors = chunk_sectors

    def route_array(self, batch: "RequestBatch"):
        np = get_numpy()
        # SplitMix64 on uint64 columns: identical constants and shifts to
        # mix64(); uint64 arithmetic wraps mod 2^64 exactly like the
        # ``& 0xFFFF...`` masks on Python ints.
        with np.errstate(over="ignore"):
            z = (batch.lbn // self.chunk_sectors).astype(np.uint64)
            z = z + np.uint64(0x9E3779B97F4A7C15)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
            return (z % np.uint64(self.members)).astype(np.int64)


@ROUTERS.register("round-robin", aliases=("rr",))
class RoundRobinRouter(Router):
    """``rid % members`` — exact request-count balance."""

    name = "round-robin"

    def route_array(self, batch: "RequestBatch"):
        return batch.rid % self.members


@ROUTERS.register("least-loaded-static", aliases=("least-loaded",))
class LeastLoadedStaticRouter(Router):
    """Greedy sector-balanced assignment over the stream prefix."""

    name = "least-loaded-static"

    def __init__(self, capacities: Sequence[int]) -> None:
        super().__init__(capacities)
        self._load = [0] * self.members

    def route_array(self, batch: "RequestBatch"):
        np = get_numpy()
        # The greedy assignment is a sequential recurrence (each choice
        # depends on all previous loads), so "vectorized" here means a
        # heap-driven index loop over plain ints extracted in one array
        # pass — O(N log M) instead of O(N*M) list scans, with no
        # per-Request attribute traffic.  Heap order (load, member) is
        # exactly "smallest load, ties to the lowest index".
        heap = [(load, member) for member, load in enumerate(self._load)]
        heapq.heapify(heap)
        heappush, heappop = heapq.heappush, heapq.heappop
        members = []
        append = members.append
        for sectors in batch.sectors.tolist():
            load, member = heappop(heap)
            append(member)
            heappush(heap, (load + sectors, member))
        for load, member in heap:
            self._load[member] = load
        return np.asarray(members, dtype=np.int64)


def make_router(name: str, capacities: Sequence[int], **params) -> Router:
    """Build a registered router by name (``ValueError`` on unknown names,
    with the registry's did-you-mean suggestion)."""
    try:
        factory = ROUTERS[name]
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return factory(capacities, **params)
