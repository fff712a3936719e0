"""Columnar request batches: a numpy structure-of-arrays request stream.

A :class:`RequestBatch` holds a request stream as five parallel columns
(arrival, lbn, sectors, is_write, rid), one request per row.  It is the
stream type that crosses module boundaries: workload generators produce
batches in whole-array ops
(:meth:`~repro.workloads.synthetic.RandomWorkload.generate_batch`), the
fleet front-end routes them with single array passes
(:func:`repro.fleet.frontend.shard_requests`), and the engine ingests them
(:meth:`repro.sim.engine.Simulation.run`), materializing
:class:`~repro.sim.request.Request` objects only at the event-loop
boundary where the scheduler and device need them.  A plain request list
handed to the engine is columnarized once on entry
(:meth:`RequestBatch.from_requests`), so every stream is validated,
sorted and materialized by the same code.

Column dtypes are fixed (float64/int64/bool) so results cannot drift with
platform integer sizes; ``tests/workloads/test_batch_identity.py`` pins
the vectorized generators to their scalar reference streams.

numpy is imported lazily through :mod:`repro.nputil`, like every other
vectorized hot path in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List

from repro.nputil import get_numpy
from repro.sim.request import IOKind, Request


@dataclass
class RequestBatch:
    """A request stream as five parallel numpy columns.

    Attributes:
        arrival: float64 — arrival times in seconds.
        lbn: int64 — starting logical block numbers.
        sectors: int64 — transfer lengths (>= 1).
        is_write: bool — True for writes, False for reads.
        rid: int64 — request ids (the workload generator's dense sequence).
    """

    arrival: Any
    lbn: Any
    sectors: Any
    is_write: Any
    rid: Any

    def __post_init__(self) -> None:
        np = get_numpy()
        self.arrival = np.ascontiguousarray(self.arrival, dtype=np.float64)
        self.lbn = np.ascontiguousarray(self.lbn, dtype=np.int64)
        self.sectors = np.ascontiguousarray(self.sectors, dtype=np.int64)
        self.is_write = np.ascontiguousarray(self.is_write, dtype=np.bool_)
        self.rid = np.ascontiguousarray(self.rid, dtype=np.int64)
        lengths = {
            len(self.arrival),
            len(self.lbn),
            len(self.sectors),
            len(self.is_write),
            len(self.rid),
        }
        if len(lengths) != 1:
            raise ValueError(f"ragged request batch: column lengths {lengths}")

    def __len__(self) -> int:
        return len(self.rid)

    def __iter__(self):
        """Iterate rows as :class:`Request` objects (materializes once)."""
        return iter(self.to_requests())

    # -- construction -------------------------------------------------------- #

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "RequestBatch":
        """Columnarize an existing request sequence (the object→array seam)."""
        np = get_numpy()
        rows = list(requests)
        return cls(
            arrival=np.array([r.arrival_time for r in rows], dtype=np.float64),
            lbn=np.array([r.lbn for r in rows], dtype=np.int64),
            sectors=np.array([r.sectors for r in rows], dtype=np.int64),
            is_write=np.array(
                [not r.kind.is_read for r in rows], dtype=np.bool_
            ),
            rid=np.array([r.request_id for r in rows], dtype=np.int64),
        )

    # -- views --------------------------------------------------------------- #

    def take(self, indices) -> "RequestBatch":
        """A new batch holding the rows at ``indices`` (fancy indexing)."""
        return RequestBatch(
            arrival=self.arrival[indices],
            lbn=self.lbn[indices],
            sectors=self.sectors[indices],
            is_write=self.is_write[indices],
            rid=self.rid[indices],
        )

    def is_sorted(self) -> bool:
        """True when rows are in ``(arrival, rid)`` order (engine order)."""
        np = get_numpy()
        if len(self) < 2:
            return True
        a, r = self.arrival, self.rid
        earlier = a[1:] < a[:-1]
        tied_out_of_order = (a[1:] == a[:-1]) & (r[1:] < r[:-1])
        return not bool(np.any(earlier | tied_out_of_order))

    def sorted_by_arrival(self) -> "RequestBatch":
        """A copy in ``(arrival, rid)`` order (stable, deterministic)."""
        np = get_numpy()
        return self.take(np.lexsort((self.rid, self.arrival)))

    # -- validation ---------------------------------------------------------- #

    def validate(self, capacity_sectors: int) -> None:
        """Bounds-check every row in one array pass (the engine's check).

        Checks every row against the :class:`~repro.sim.request.Request`
        invariants and the device capacity.  On failure the *first*
        offending row (in storage order) is pushed through the validating
        ``Request`` constructor, so callers see its message (or the
        device-capacity message ``StorageDevice.validate`` uses).
        """
        np = get_numpy()
        if len(self) == 0:
            return
        bad = (
            (self.arrival < 0.0)
            | (self.lbn < 0)
            | (self.sectors < 1)
            | (self.lbn + self.sectors > capacity_sectors)
        )
        if not bool(np.any(bad)):
            return
        row = int(np.argmax(bad))
        request = Request(
            arrival_time=float(self.arrival[row]),
            lbn=int(self.lbn[row]),
            sectors=int(self.sectors[row]),
            kind=IOKind.WRITE if self.is_write[row] else IOKind.READ,
            request_id=int(self.rid[row]),
        )
        if request.last_lbn >= capacity_sectors:
            raise ValueError(
                f"request [{request.lbn}, {request.last_lbn}] exceeds device "
                f"capacity of {capacity_sectors} sectors"
            )
        raise AssertionError("bulk validation flagged a valid row")

    # -- materialization ----------------------------------------------------- #

    def to_requests(self) -> List[Request]:
        """Materialize the batch as :class:`Request` objects, row order.

        ``tolist()`` converts each column to Python scalars in one C pass,
        so the per-row work is just the dataclass constructor — the objects
        are indistinguishable from ones a scalar generator built.
        """
        read, write = IOKind.READ, IOKind.WRITE
        return [
            Request(
                arrival_time=arrival,
                lbn=lbn,
                sectors=sectors,
                kind=write if is_write else read,
                request_id=rid,
            )
            for arrival, lbn, sectors, is_write, rid in zip(
                self.arrival.tolist(),
                self.lbn.tolist(),
                self.sectors.tolist(),
                self.is_write.tolist(),
                self.rid.tolist(),
            )
        ]

