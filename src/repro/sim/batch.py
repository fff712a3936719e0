"""Columnar request batches: a numpy structure-of-arrays request stream.

A :class:`RequestBatch` holds a request stream as five parallel columns
(arrival, lbn, sectors, is_write, rid), one request per row.  It is the
one stream type that leaves :mod:`repro.workloads`: every generator's
``generate(count)`` builds one
(:meth:`~repro.workloads.synthetic.RandomWorkload.generate` in
whole-array ops), trace replay scales its arrivals
(:meth:`RequestBatch.scale_arrivals`, the paper's footnote 2), the fleet
front-end routes it with single array passes
(:func:`repro.fleet.frontend.shard_requests`), and the engine ingests it
(:meth:`repro.sim.engine.Simulation.run`).  :meth:`RequestBatch.to_requests`
is the one place rows become :class:`~repro.sim.request.Request` objects,
at the event-loop boundary where the scheduler and device need them; a
plain request list handed to the engine is columnarized once on entry
(:meth:`RequestBatch.from_requests`), so every stream is validated, sorted
and materialized by the same code.

Column dtypes are fixed (float64/int64/bool) so results cannot drift with
platform integer sizes; ``tests/workloads/test_batch_identity.py`` pins
every generator to its scalar reference stream in
``tests/workloads/stream_reference.py``.

numpy is imported lazily through :mod:`repro.nputil`, like every other
vectorized hot path in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional

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

    def scale_arrivals(self, factor: float) -> "RequestBatch":
        """Divide every arrival time by ``factor`` (paper footnote 2).

        "When the scale factor is two, the traced inter-arrival times are
        halved, doubling the average arrival rate": a stream that starts
        at time zero gets its inter-arrival times divided by ``factor``
        when its arrival times are.  Row order, sizes, kinds, locations
        and ids are untouched; a factor of 1 returns equal columns.
        """
        if not factor > 0:
            raise ValueError(f"non-positive scale factor: {factor}")
        return RequestBatch(
            arrival=self.arrival / factor,
            lbn=self.lbn,
            sectors=self.sectors,
            is_write=self.is_write,
            rid=self.rid,
        )

    # -- validation ---------------------------------------------------------- #

    def validate(self, capacity_sectors: int) -> None:
        """Check every row against the :class:`~repro.sim.request.Request`
        invariants and the device capacity in one array pass (the
        engine's check), raising the *first* offending row's message."""
        self._refuse_first(
            self._breaks_request_invariants()
            | (self.lbn + self.sectors > capacity_sectors),
            capacity_sectors,
        )

    def _breaks_request_invariants(self):
        """Row mask: a negative or non-finite arrival, a negative lbn or an
        empty transfer — what the validating ``Request`` constructor
        refuses."""
        np = get_numpy()
        arrival = self.arrival
        return (
            ~((arrival >= 0.0) & (arrival < np.inf))
            | (self.lbn < 0)
            | (self.sectors < 1)
        )

    def _refuse_first(
        self, bad, capacity_sectors: Optional[int] = None
    ) -> None:
        """Raise for the first row flagged in ``bad``, if any.

        The row is pushed through the validating ``Request`` constructor,
        so callers see its message, or the device-capacity message
        ``StorageDevice.validate`` uses.
        """
        np = get_numpy()
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
        if capacity_sectors is not None and request.last_lbn >= capacity_sectors:
            raise ValueError(
                f"request [{request.lbn}, {request.last_lbn}] exceeds device "
                f"capacity of {capacity_sectors} sectors"
            )
        raise AssertionError("bulk validation flagged a valid row")

    # -- materialization ----------------------------------------------------- #

    def to_requests(self) -> List[Request]:
        """Materialize the batch as :class:`Request` objects, row order.

        The only place rows become ``Request`` objects.  One array pass
        enforces the ``Request`` invariants (raising the first offending
        row's message), so rows are then built through ``Request._make``,
        the C-speed constructor that skips the validating ``__new__``;
        ``tolist()`` converts each column to Python scalars in one C pass.
        The objects equal ones the validating constructor would build.
        """
        self._refuse_first(self._breaks_request_invariants())
        make = Request._make
        read, write = IOKind.READ, IOKind.WRITE
        return [
            make((arrival, lbn, sectors, write if is_write else read, rid))
            for arrival, lbn, sectors, is_write, rid in zip(
                self.arrival.tolist(),
                self.lbn.tolist(),
                self.sectors.tolist(),
                self.is_write.tolist(),
                self.rid.tolist(),
            )
        ]
