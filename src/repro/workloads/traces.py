"""Simple ASCII trace I/O for request streams.

The paper replays two traces of real disk activity (Cello and TPC-C) against
the simulated devices, scaling traced *inter-arrival times* by a constant
factor to produce a range of average arrival rates (footnote 2);
:meth:`~repro.sim.batch.RequestBatch.scale_arrivals` implements exactly
that on any stream.  The proprietary trace files themselves are
unavailable; the synthetic generators in :mod:`repro.workloads.cello` and
:mod:`repro.workloads.tpcc` produce streams with the published first-order
characteristics (see DESIGN.md §2 for the substitution rationale).

This module stores a :class:`~repro.sim.batch.RequestBatch` as one
``arrival_time lbn sectors R|W`` line per request, so a stream can be
saved, edited, or brought in from elsewhere.
"""

from __future__ import annotations

from typing import List, TextIO

from repro.sim.batch import RequestBatch
from repro.sim.request import IOKind, Request


def write_trace(batch: RequestBatch, stream: TextIO) -> None:
    """Serialize as ``arrival_time lbn sectors R|W`` lines, in row order,
    after a comment naming the columns."""
    stream.write("# arrival_time lbn sectors R|W\n")
    for arrival, lbn, sectors, is_write in zip(
        batch.arrival.tolist(),
        batch.lbn.tolist(),
        batch.sectors.tolist(),
        batch.is_write.tolist(),
    ):
        stream.write(f"{arrival:.9f} {lbn} {sectors} {'W' if is_write else 'R'}\n")


def read_trace(stream: TextIO) -> RequestBatch:
    """Parse the format written by :func:`write_trace`.

    Requests get ids 0, 1, … in line order.  Blank and ``#`` lines are
    skipped; a malformed line, a request the ``Request`` constructor
    refuses (a negative or non-finite arrival time, a negative LBN, an
    empty transfer) or an arrival earlier than the previous line's raises
    ``ValueError`` naming the line.
    """
    requests: List[Request] = []
    for line_number, line in enumerate(stream, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) != 4:
            raise ValueError(f"line {line_number}: expected 4 fields, got {text!r}")
        arrival, lbn, sectors, kind_text = fields
        if kind_text not in ("R", "W"):
            raise ValueError(f"line {line_number}: bad kind {kind_text!r}")
        try:
            request = Request(
                arrival_time=float(arrival),
                lbn=int(lbn),
                sectors=int(sectors),
                kind=IOKind.READ if kind_text == "R" else IOKind.WRITE,
                request_id=len(requests),
            )
        except ValueError as exc:
            raise ValueError(f"line {line_number}: {exc}") from None
        if requests and request.arrival_time < requests[-1].arrival_time:
            raise ValueError(
                f"line {line_number}: trace is not sorted by arrival time"
            )
        requests.append(request)
    return RequestBatch.from_requests(requests)
