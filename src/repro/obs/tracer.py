"""Event tracing: structured per-request records from the simulation stack.

The simulator's components emit flat dict *events* to a :class:`Tracer`
sink.  Emission sites are guarded by ``tracer.enabled`` so the default
:class:`NullTracer` costs one attribute load and a branch per site — the
event dict is never even built when tracing is off (see
``benchmarks/bench_hotpath.py``'s null-tracer overhead measurement).

Every event is a JSON-serializable dict with two required keys:

* ``kind`` — the event type (see :data:`EVENT_FIELDS` for the schema);
* ``t`` — simulated time in seconds.

Event kinds emitted by the stack:

``sim.start`` / ``sim.end``
    Run boundaries from :class:`repro.sim.Simulation` (request count /
    completion count and end time).
``sim.arrival``
    A request entered the pending queue: request id, address, direction,
    and the queue depth *after* the arrival.
``sim.dispatch``
    A request began service: request id, wait (time in queue), and the
    queue depth before the pick.
``sim.complete``
    A request finished: request id, queue/service/response decomposition.
``dev.access``
    One media access, emitted by the device model, with the request id it
    serves and the full phase breakdown: ``seek_x``, ``seek_y``, ``settle``,
    ``rotational_latency``, ``transfer``, ``turnarounds``, plus the
    serialized ``positioning`` component.  The invariant ``positioning +
    transfer + turnarounds == total`` holds for both device models (X/Y
    seeks and settle overlap inside ``positioning``; on disks
    ``positioning`` is seek + rotational latency).
``sched.dispatch``
    The scheduler's pick (``rid``), with the candidate-set size it chose
    from and — for the SPTF variants — the per-dispatch pricing split
    (``candidates_priced``/``candidates_pruned``; always summing to
    ``candidates``) and the selection ``fast_path``.
``fleet.route``
    The fleet front-end's routing decision for one request (merged fleet
    traces only; see :mod:`repro.fleet.merge`): the chosen ``member``
    index, the fleet-wide ``lbn``, and the localized ``member_lbn`` the
    member simulation actually saw.  In a merged fleet trace every
    member-originated event additionally carries a ``member`` field.
``obs.window``
    One closed live-aggregation window (:mod:`repro.obs.live`): the
    ``(start, end]`` interval in simulated time with its completion and
    arrival counts, throughput, device utilization, and time-averaged
    queue depth.  Spliced into a traced live run's trace at the
    window-boundary time, ahead of the first event past the boundary.
``slo.violation``
    One SLO evaluation window whose observed objective-quantile latency
    exceeded its threshold (:class:`repro.obs.live.SLOSpec`): the request
    ``class``, the ``objective`` quantile and ``threshold``, the
    ``observed`` quantile estimate, and the window ``burn_rate`` (error
    budget consumed per unit budget; the trailing long-window rate rides
    along as ``burn_rate_long``).

Sinks: :class:`RingBufferTracer` (in-memory, bounded), :class:`JsonlTracer`
(one JSON object per line, with a ``trace.meta`` header; transparently
gzipped for ``*.gz`` paths), :class:`TeeTracer` (fan-out), and
:class:`SamplingTracer` (deterministic per-request sampling).  A recorded
trace reads back into the run's result columns through
:mod:`repro.obs.analyze`.
"""

from __future__ import annotations

import gzip
import io
import json
import os
import zlib
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union, cast

TRACE_SCHEMA = "repro-trace/2"
"""Schema identifier written in every JSONL trace header.

Version 2 added the required ``rid`` field on ``dev.access`` and
``sched.dispatch`` events, tying every device access and scheduler pick to
the request it serves so the span builder (:mod:`repro.obs.spans`) can
attribute each phase exactly.
"""

EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "trace.meta": ("schema",),
    "sim.start": ("requests",),
    "sim.end": ("completed",),
    "sim.arrival": ("rid", "lbn", "sectors", "io", "queue_depth"),
    "sim.dispatch": ("rid", "wait", "queue_depth"),
    "sim.complete": ("rid", "queue", "service", "response"),
    "dev.access": (
        "rid",
        "lbn",
        "sectors",
        "io",
        "seek_x",
        "seek_y",
        "settle",
        "rotational_latency",
        "transfer",
        "turnarounds",
        "positioning",
        "total",
    ),
    "sched.dispatch": ("rid", "scheduler", "candidates"),
    "fleet.route": ("rid", "member", "lbn", "member_lbn"),
    "obs.window": (
        "window",
        "start",
        "end",
        "arrivals",
        "completions",
        "throughput_iops",
        "utilization",
        "queue_depth",
    ),
    "slo.violation": (
        "class",
        "objective",
        "threshold",
        "observed",
        "burn_rate",
        "window",
    ),
}
"""Required fields per event kind (beyond ``kind`` and ``t``).

Emitters may add extra fields (``dev.access`` adds ``device``, ``bits``,
and the post-access ``cylinder``; ``sched.dispatch`` adds
``candidates_priced``/``candidates_pruned`` and the selection
``fast_path`` — ``scan`` or ``pruned`` — on the SPTF variants); the
validator checks only for the required ones, plus the cross-field
invariants it knows (``dev.access`` phase sums; ``candidates_priced +
candidates_pruned == candidates`` and a known ``fast_path`` value when
the pricing fields are present).
"""


class Tracer:
    """Base event sink.

    ``enabled`` is the hot-path gate: emission sites must check it before
    building the event dict, so a disabled tracer's cost is a single branch.
    Sinks that always consume events leave it ``True``.
    """

    enabled: bool = True

    def emit(self, event: dict) -> None:
        """Consume one event dict (must contain ``kind`` and ``t``)."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources; idempotent."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class NullTracer(Tracer):
    """The default no-op sink; ``enabled`` is ``False`` so emission sites
    short-circuit before any event formatting."""

    enabled = False

    def emit(self, event: dict) -> None:  # pragma: no cover - guarded out
        pass


NULL_TRACER = NullTracer()
"""Shared no-op tracer instance; the default everywhere."""


class RingBufferTracer(Tracer):
    """Keep the most recent ``capacity`` events in memory.

    ``capacity=None`` keeps everything (tests and small runs); a bound makes
    it safe to leave attached to long simulations as a flight recorder.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None: {capacity}")
        self._events: deque = deque(maxlen=capacity)

    def emit(self, event: dict) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[dict]:
        """Snapshot of the buffered events, oldest first."""
        return list(self._events)

    def by_kind(self, kind: str) -> List[dict]:
        return [event for event in self._events if event["kind"] == kind]

    def clear(self) -> None:
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self._events)


def _open_text(path: str, mode: str) -> "io.TextIOBase":
    """Open ``path`` in text mode, transparently gzipped for ``*.gz``."""
    if path.endswith(".gz"):
        if mode == "r":
            return cast(
                "io.TextIOBase", gzip.open(path, "rt", encoding="utf-8")
            )
        # mtime=0 keeps the gzip header free of wall-clock state, so a
        # deterministic simulation writing the same path produces
        # byte-identical compressed traces (gzip.open offers no mtime knob).
        raw = gzip.GzipFile(path, mode + "b", mtime=0)
        return cast("io.TextIOBase", io.TextIOWrapper(raw, encoding="utf-8"))
    return cast("io.TextIOBase", open(path, mode, encoding="utf-8"))


class JsonlTracer(Tracer):
    """Write events as JSON Lines to ``path`` (or any text stream).

    The first line is a ``trace.meta`` header carrying the schema id, so a
    reader can reject traces from an incompatible writer; ``meta`` merges
    extra fields into that header (e.g. the :class:`SamplingTracer`
    annotation).  Events are serialized with sorted keys, making traces
    byte-diffable across runs of a deterministic simulation.  A path ending
    in ``.gz`` is written gzip-compressed; :func:`iter_trace` and
    :func:`read_trace` decompress it transparently on the way back in.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike", io.TextIOBase],
        meta: Optional[dict] = None,
    ) -> None:
        if isinstance(path, io.TextIOBase):
            self._stream = path
            self._owns_stream = False
            self.path: Optional[str] = None
        else:
            self.path = os.fspath(path)
            self._stream = _open_text(self.path, "w")
            self._owns_stream = True
        self._closed = False
        header = {"kind": "trace.meta", "t": 0.0, "schema": TRACE_SCHEMA}
        if meta:
            header.update(meta)
        self.emit(header)

    def emit(self, event: dict) -> None:
        self._stream.write(json.dumps(event, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_stream:
            self._stream.close()
        else:
            self._stream.flush()


class TeeTracer(Tracer):
    """Fan every event out to several sinks (e.g. JSONL file + metrics)."""

    def __init__(self, *sinks: Tracer) -> None:
        self.sinks = [sink for sink in sinks if sink.enabled]
        self.enabled = bool(self.sinks)

    def emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class SamplingTracer(Tracer):
    """Keep every ``every``-th request's events, plus head/tail windows.

    Long production-scale runs can't afford a full trace; this sink
    forwards a deterministic subset to ``sink``.  Sampling is *per request*
    and keyed by the request id alone (``rid % every == 0``), so every
    event of a kept request passes — spans built from a sampled trace are
    always complete — and two runs of the same workload sample identical
    request sets regardless of timing.  The first ``head`` and last
    ``tail`` request ids are always kept (warmup and drain transients are
    exactly where sampling would otherwise hide problems); the total
    request count is learned from the ``sim.start`` event.  Events that
    carry no ``rid`` (run boundaries, ``trace.meta``) always pass.

    With ``every=1`` the sink is a pure pass-through: the output is
    event-identical to tracing without this wrapper (and
    :meth:`meta` contributes no header annotation), which is asserted in
    the test suite.  For ``every > 1``, write the :meth:`meta` fields into
    the ``trace.meta`` header (``SimConfig.build_tracer`` does) so readers
    can tell a sampled trace from a full one: per-request aggregates
    become estimates, while per-event invariants stay exact (see
    ``docs/observability.md``).
    """

    def __init__(
        self,
        sink: Tracer,
        every: int,
        head: int = 16,
        tail: int = 16,
    ) -> None:
        if every < 1:
            raise ValueError(f"every must be >= 1: {every}")
        if head < 0 or tail < 0:
            raise ValueError(f"negative head/tail window: {head}/{tail}")
        self.sink = sink
        self.every = every
        self.head = head
        self.tail = tail
        self.enabled = sink.enabled
        self.kept = 0
        self.dropped = 0
        self._total: Optional[int] = None

    @staticmethod
    def meta(every: int, head: int = 16, tail: int = 16) -> Dict[str, int]:
        """``trace.meta`` annotation for a sampled trace.

        Empty for ``every=1`` so an unsampled header stays byte-identical.
        """
        if every <= 1:
            return {}
        return {
            "sample_every": every,
            "sample_head": head,
            "sample_tail": tail,
        }

    def _keep(self, rid: int) -> bool:
        if rid < self.head:
            return True
        if self._total is not None and rid >= self._total - self.tail:
            return True
        return rid % self.every == 0

    def emit(self, event: dict) -> None:
        if self.every > 1:
            if event["kind"] == "sim.start":
                self._total = event["requests"]
            rid = event.get("rid")
            if rid is not None and not self._keep(rid):
                self.dropped += 1
                return
        self.kept += 1
        self.sink.emit(event)

    def close(self) -> None:
        self.sink.close()


def read_trace(path: Union[str, "os.PathLike"]) -> List[dict]:
    """Load a JSONL trace written by :class:`JsonlTracer`.

    Returns every event including the ``trace.meta`` header; raises
    ``ValueError`` on a malformed line or a missing/mismatched schema header.
    """
    events = list(iter_trace(path))
    if not events or events[0].get("kind") != "trace.meta":
        raise ValueError(f"{os.fspath(path)}: missing trace.meta header")
    schema = events[0].get("schema")
    if schema != TRACE_SCHEMA:
        raise ValueError(
            f"{os.fspath(path)}: schema {schema!r} != {TRACE_SCHEMA!r}"
        )
    return events


def iter_trace(path: Union[str, "os.PathLike"]) -> Iterable[dict]:
    """Yield raw events from a JSONL trace without schema checks.

    Streams line by line (gzip-decompressing ``*.gz`` paths), so traces
    larger than memory are fine.
    """
    for _lineno, event in iter_trace_lines(path):
        yield event


def iter_trace_lines(
    path: Union[str, "os.PathLike"]
) -> Iterator[Tuple[int, dict]]:
    """Yield ``(lineno, event)`` pairs from a JSONL trace, streaming.

    Line numbers are 1-based positions in the (decompressed) file — what
    the validator reports and what ``sed -n '42p'`` will show you.  A
    damaged trace (a ``.gz`` cut short or corrupted mid-stream, or bytes
    that are not UTF-8) raises ``ValueError`` located at the first line
    that could not be read.
    """
    lineno = 0
    with _open_text(os.fspath(path), "r") as stream:
        try:
            for lineno, line in enumerate(stream, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{os.fspath(path)}:{lineno}: not valid JSON: {exc}"
                    ) from None
                if not isinstance(event, dict):
                    raise ValueError(
                        f"{os.fspath(path)}:{lineno}: event is not an object"
                    )
                yield lineno, event
        except (EOFError, zlib.error, gzip.BadGzipFile, UnicodeDecodeError) as exc:
            raise ValueError(
                f"{os.fspath(path)}:{lineno + 1}: damaged trace: {exc}"
            ) from None
