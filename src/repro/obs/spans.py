"""Per-request lifecycle spans folded from the flat trace event stream.

A *span* is one request's complete story, reassembled from the five events
that mention it — ``sim.arrival``, ``sched.dispatch``, ``sim.dispatch``,
``dev.access``, ``sim.complete`` (all carrying the same ``rid`` since
``repro-trace/2``) — into the lifecycle the paper's analysis needs::

    arrival --queue--> dispatch --positioning|transfer|turnarounds--> complete

Attribution is *exact*, not re-derived: every phase value is taken verbatim
from the event that recorded it, and :meth:`SpanBuilder.feed` checks the
cross-event invariants as it folds (``queue + service == response``,
``positioning + transfer + turnarounds == total == service`` to 1e-9), so a
span that comes out of the builder is already reconciled with the
:class:`~repro.sim.statistics.SimulationResult` the run produced.  The
test suite pins this bit-for-bit on ≥1000-request runs for both devices
and all four layouts.

The builder is *streaming*: it holds only the requests currently in flight
(bounded by the pending-queue depth, not the trace length), so
:func:`iter_spans` folds a multi-GB JSONL trace in one pass under
constant memory.  Sampled traces
(:class:`~repro.obs.tracer.SamplingTracer`) work unchanged — sampling is
per ``rid``, so every surviving request still has all of its events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

#: Tolerance for cross-event reconciliation.  Phase values are copied
#: verbatim, but ``service`` crosses one float add/subtract round trip in
#: the engine (``(dispatch + total) - dispatch``), so exact equality is one
#: ulp too strict.
RECONCILE_REL_TOL = 1e-9
RECONCILE_ABS_TOL = 1e-12


class SpanError(ValueError):
    """An event stream that cannot be folded into consistent spans."""


@dataclass(frozen=True)
class Span:
    """One request's reconciled lifecycle.

    Times are absolute simulated seconds; durations decompose as
    ``response == queue + service`` and
    ``service == positioning + transfer + turnarounds`` (with
    ``positioning`` covering the overlapped X/Y seek + settle on MEMS and
    seek + rotational latency on disk).
    """

    rid: int
    lbn: int
    sectors: int
    io: str
    arrival: float
    dispatch: float
    complete: float
    queue: float
    service: float
    response: float
    seek_x: float
    seek_y: float
    settle: float
    rotational_latency: float
    transfer: float
    turnarounds: float
    positioning: float
    total: float
    device: Optional[str] = None
    scheduler: Optional[str] = None
    candidates: Optional[int] = None

    def to_dict(self) -> dict:
        """JSON-ready dump (what ``repro.obs.analyze --spans`` prints)."""
        out = {
            "rid": self.rid,
            "lbn": self.lbn,
            "sectors": self.sectors,
            "io": self.io,
            "arrival": self.arrival,
            "dispatch": self.dispatch,
            "complete": self.complete,
            "queue": self.queue,
            "service": self.service,
            "response": self.response,
            "seek_x": self.seek_x,
            "seek_y": self.seek_y,
            "settle": self.settle,
            "rotational_latency": self.rotational_latency,
            "transfer": self.transfer,
            "turnarounds": self.turnarounds,
            "positioning": self.positioning,
            "total": self.total,
        }
        if self.device is not None:
            out["device"] = self.device
        if self.scheduler is not None:
            out["scheduler"] = self.scheduler
        if self.candidates is not None:
            out["candidates"] = self.candidates
        return out


def _close(a: float, b: float) -> bool:
    return math.isclose(
        a, b, rel_tol=RECONCILE_REL_TOL, abs_tol=RECONCILE_ABS_TOL
    )


class SpanBuilder:
    """Fold trace events into :class:`Span` objects, one pass, streaming.

    Feed events in trace order; :meth:`feed` returns the finished span when
    it sees the request's ``sim.complete``, else ``None``.  Partial state
    lives only for in-flight requests; :attr:`pending` counts them (a fully
    drained trace leaves zero — a truncated one leaves the requests that
    were still queued when the trace stopped).
    """

    def __init__(self) -> None:
        self._partial: Dict[int, dict] = {}
        self.spans_built = 0

    @property
    def pending(self) -> int:
        """Requests seen but not yet completed (in flight at stream end)."""
        return len(self._partial)

    def feed(self, event: dict) -> Optional[Span]:
        kind = event.get("kind")
        if kind == "sim.arrival":
            rid = event["rid"]
            if rid in self._partial:
                raise SpanError(f"rid {rid}: duplicate sim.arrival")
            self._partial[rid] = {
                "arrival": event["t"],
                "lbn": event["lbn"],
                "sectors": event["sectors"],
                "io": event["io"],
            }
        elif kind == "sched.dispatch":
            part = self._partial.get(event["rid"])
            if part is not None:
                part["scheduler"] = event["scheduler"]
                part["candidates"] = event["candidates"]
        elif kind == "dev.access":
            part = self._partial.get(event["rid"])
            if part is not None:
                part["access"] = event
        elif kind == "sim.dispatch":
            part = self._partial.get(event["rid"])
            if part is not None:
                part["dispatch"] = event["t"]
                part["wait"] = event["wait"]
        elif kind == "sim.complete":
            return self._finish(event)
        return None

    def _finish(self, event: dict) -> Span:
        rid = event["rid"]
        part = self._partial.pop(rid, None)
        if part is None or "dispatch" not in part or "access" not in part:
            raise SpanError(
                f"rid {rid}: sim.complete without "
                f"{'any prior events' if part is None else 'dispatch/access'}"
            )
        access = part["access"]
        queue = event["queue"]
        service = event["service"]
        response = event["response"]
        if not _close(queue + service, response):
            raise SpanError(
                f"rid {rid}: queue {queue!r} + service {service!r} != "
                f"response {response!r}"
            )
        if not _close(service, access["total"]):
            raise SpanError(
                f"rid {rid}: service {service!r} != dev.access total "
                f"{access['total']!r}"
            )
        serialized = (
            access["positioning"] + access["transfer"] + access["turnarounds"]
        )
        if not _close(serialized, access["total"]):
            raise SpanError(
                f"rid {rid}: positioning + transfer + turnarounds = "
                f"{serialized!r} != total {access['total']!r}"
            )
        if not _close(part["wait"], queue):
            raise SpanError(
                f"rid {rid}: sim.dispatch wait {part['wait']!r} != "
                f"sim.complete queue {queue!r}"
            )
        self.spans_built += 1
        return Span(
            rid=rid,
            lbn=part["lbn"],
            sectors=part["sectors"],
            io=part["io"],
            arrival=part["arrival"],
            dispatch=part["dispatch"],
            complete=event["t"],
            queue=queue,
            service=service,
            response=response,
            seek_x=access["seek_x"],
            seek_y=access["seek_y"],
            settle=access["settle"],
            rotational_latency=access["rotational_latency"],
            transfer=access["transfer"],
            turnarounds=access["turnarounds"],
            positioning=access["positioning"],
            total=access["total"],
            device=access.get("device"),
            scheduler=part.get("scheduler"),
            candidates=part.get("candidates"),
        )


def iter_spans(events: Iterable[dict]) -> Iterator[Span]:
    """Yield reconciled spans from an event stream, one pass.

    Works directly on :func:`~repro.obs.tracer.iter_trace` output, so a
    trace never has to fit in memory.  Requests still in flight when the
    stream ends (truncated trace) are silently dropped; use
    :class:`SpanBuilder` directly to inspect them.
    """
    builder = SpanBuilder()
    for event in events:
        span = builder.feed(event)
        if span is not None:
            yield span


def reconcile(
    spans: List[Span], mean_response_time: float, tolerance: float = 1e-9
) -> None:
    """Assert that spans aggregate to a run's mean response time.

    The reconciliation gate the golden-trace tests use: mean span response
    (exact running sum over all spans) must match
    ``SimulationResult.mean_response_time`` within ``tolerance``.  Raises
    :class:`SpanError` otherwise.
    """
    if not spans:
        raise SpanError("no spans to reconcile")
    mean = sum(span.response for span in spans) / len(spans)
    if not math.isclose(mean, mean_response_time, rel_tol=tolerance,
                        abs_tol=tolerance):
        raise SpanError(
            f"span mean response {mean!r} != result mean "
            f"{mean_response_time!r} (tolerance {tolerance})"
        )
