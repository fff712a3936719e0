"""Request and access-record types shared by every device model.

A :class:`Request` is the unit of work flowing through the simulator: it is
created by a workload generator (or trace replayer), queued at the driver,
scheduled, and finally serviced by a device model.  The device reports how the
service time decomposed into mechanical phases via :class:`AccessResult`, and
a :class:`RequestRecord` views one completed request's full lifecycle.

Sizes are expressed in 512-byte logical sectors throughout, matching the
paper's devices (both the MEMS device and the Atlas 10K use 512-byte sectors).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

SECTOR_BYTES = 512
"""Logical sector size in bytes, common to both device models."""


class IOKind(enum.Enum):
    """Direction of a request."""

    READ = "read"
    WRITE = "write"

    @property
    def is_read(self) -> bool:
        return self is IOKind.READ


class Request(NamedTuple):
    """A single I/O request.

    An immutable NamedTuple rather than a frozen dataclass: the simulator
    materializes one per request row — millions per fleet run — and tuple
    construction runs at C speed where the generated dataclass ``__init__``
    pays a Python frame plus one ``object.__setattr__`` per field.  Field
    invariants are enforced by the validating ``__new__`` installed below,
    so a bad request raises exactly as the dataclass ``__post_init__`` did.

    Attributes:
        arrival_time: Simulated time (seconds) at which the request arrives
            at the driver queue.
        lbn: Starting logical block number (512-byte sectors).
        sectors: Transfer length in sectors (must be >= 1).
        kind: Read or write.
        request_id: Monotonically increasing identifier, assigned by the
            workload generator; used for stable FCFS tie-breaking.
    """

    arrival_time: float
    lbn: int
    sectors: int
    kind: IOKind
    request_id: int = 0

    @property
    def bytes(self) -> int:
        """Transfer length in bytes."""
        return self.sectors * SECTOR_BYTES

    @property
    def last_lbn(self) -> int:
        """LBN of the final sector touched by this request."""
        return self.lbn + self.sectors - 1


_tuple_new = tuple.__new__
_INFINITY = float("inf")


def _request_new(
    cls,
    arrival_time: float,
    lbn: int,
    sectors: int,
    kind: IOKind,
    request_id: int = 0,
):
    if not 0 <= arrival_time < _INFINITY:
        what = "negative" if arrival_time < 0 else "non-finite"
        raise ValueError(f"{what} arrival_time: {arrival_time}")
    if lbn < 0:
        raise ValueError(f"negative lbn: {lbn}")
    if sectors < 1:
        raise ValueError(f"non-positive request size: {sectors}")
    return _tuple_new(cls, (arrival_time, lbn, sectors, kind, request_id))


# typing.NamedTuple refuses a ``__new__`` in the class body, so the
# validating constructor is installed after the fact.  ``_make`` (and
# therefore ``_replace``) keeps bypassing it, same as every namedtuple.
Request.__new__ = _request_new  # type: ignore[method-assign]


class AccessResult(NamedTuple):
    """Breakdown of one media access, as reported by a device model.

    All fields are durations in seconds.  ``total`` is the full service time
    (positioning plus transfer plus any internal repositioning); the remaining
    fields decompose it for analysis and need not be exhaustive (electronics
    overheads may make ``total`` slightly larger than the sum).

    A NamedTuple for the same reason as :class:`Request`: device models
    build one per access on the simulation hot path.
    """

    total: float
    seek_x: float = 0.0
    seek_y: float = 0.0
    settle: float = 0.0
    rotational_latency: float = 0.0
    transfer: float = 0.0
    turnarounds: float = 0.0
    bits_accessed: int = 0

    @property
    def positioning(self) -> float:
        """Initial positioning component (everything before the first bit)."""
        return max(self.seek_x + self.settle, self.seek_y) + self.rotational_latency


def _access_result_new(
    cls,
    total: float,
    seek_x: float = 0.0,
    seek_y: float = 0.0,
    settle: float = 0.0,
    rotational_latency: float = 0.0,
    transfer: float = 0.0,
    turnarounds: float = 0.0,
    bits_accessed: int = 0,
):
    if total < 0:
        raise ValueError(f"negative service time: {total}")
    return _tuple_new(
        cls,
        (
            total,
            seek_x,
            seek_y,
            settle,
            rotational_latency,
            transfer,
            turnarounds,
            bits_accessed,
        ),
    )


AccessResult.__new__ = _access_result_new  # type: ignore[method-assign]


class RequestRecord(NamedTuple):
    """Full lifecycle of one request, filled in by the driver.

    A NamedTuple like :class:`Request` and :class:`AccessResult`.  The
    engine keeps completions as columns; this is the row view that
    :attr:`SimulationResult.records
    <repro.sim.statistics.SimulationResult.records>` builds from them.
    """

    request: Request
    dispatch_time: float = 0.0
    completion_time: float = 0.0
    access: AccessResult = AccessResult(total=0.0)

    @property
    def queue_time(self) -> float:
        """Time spent waiting in the driver queue before dispatch."""
        return self.dispatch_time - self.request.arrival_time

    @property
    def service_time(self) -> float:
        """Time spent at the device."""
        return self.completion_time - self.dispatch_time

    @property
    def response_time(self) -> float:
        """Queue time plus service time — the paper's headline metric."""
        return self.completion_time - self.request.arrival_time
