"""Discrete-event simulation engine.

This is the DiskSim-shaped core: a simulation clock and a driver loop that
moves requests through ``arrival -> queue -> dispatch -> completion``.  The
device serves one request at a time, so the loop needs no event queue: it
merges a cursor over the arrival-sorted stream with the single outstanding
completion.  The engine is deliberately single-device (the paper's
experiments are all single-device); multi-device studies run several
simulations side by side (see :mod:`repro.fleet`).

The main entry point is :class:`Simulation`:

    >>> from repro.mems import MEMSDevice
    >>> from repro.core.scheduling import SPTFScheduler
    >>> from repro.workloads import RandomWorkload
    >>> device = MEMSDevice()
    >>> sim = Simulation(device, SPTFScheduler(device))
    >>> requests = RandomWorkload(device.capacity_sectors, rate=500.0,
    ...                           seed=1).generate_batch(1000)
    >>> result = sim.run(requests)
    >>> 0 < result.mean_response_time < 1.0
    True
"""

from __future__ import annotations

import gc
from typing import Iterable, List, Optional, Tuple, Union

from repro.nputil import get_numpy
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.batch import RequestBatch
from repro.sim.request import AccessResult, IOKind, Request
from repro.sim.device import StorageDevice
from repro.sim.statistics import SimulationResult


class Simulation:
    """Single-device open-queueing simulation.

    Args:
        device: The storage device model to drive.
        scheduler: Queue discipline (see :mod:`repro.core.scheduling`).
        max_queue_depth: If set, arrivals beyond this pending-queue depth
            raise :class:`QueueOverflowError`; the experiment harness uses
            this to detect saturation instead of simulating unbounded queues.
        tracer: Optional :class:`repro.obs.Tracer` sink, the engine's one
            instrumentation seam.  It is also attached to ``device`` and
            ``scheduler`` so one argument wires the whole stack: the engine
            emits ``sim.arrival``/``sim.dispatch``/``sim.complete`` events,
            the device its per-access phase breakdown (``dev.access``), and
            the scheduler its selection telemetry (``sched.dispatch``).  The
            default null tracer is attached the same way, so a device or
            scheduler reused from a traced run stops emitting into that
            run's sink, and it short-circuits every emission site.
    """

    def __init__(
        self,
        device: StorageDevice,
        scheduler: "Scheduler",
        max_queue_depth: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.device = device
        self.scheduler = scheduler
        self.max_queue_depth = max_queue_depth
        self.tracer = tracer if tracer is not None else NULL_TRACER
        device.tracer = self.tracer
        scheduler.tracer = self.tracer
        self.now = 0.0

    @classmethod
    def from_config(
        cls, config: "SimConfig", tracer: Optional["Tracer"] = None
    ) -> "Simulation":
        """Build a simulation from a :class:`repro.sim.config.SimConfig`.

        ``tracer`` overrides the config's ``trace_path``-derived sink; when
        neither is set the null tracer applies.  The caller owns closing a
        tracer it passes in (``SimConfig.run`` manages the whole lifecycle).
        """
        device = config.build_device()
        scheduler = config.build_scheduler(device)
        if tracer is None and (
            config.trace_path is not None or config.live_enabled
        ):
            tracer = config.build_tracer()
        return cls(
            device,
            scheduler,
            max_queue_depth=config.max_queue_depth,
            tracer=tracer,
        )

    def run(
        self, requests: Union[Iterable[Request], RequestBatch]
    ) -> SimulationResult:
        """Run to completion over a request stream.

        Every stream takes one ingest path.  An iterable of
        :class:`~repro.sim.request.Request` is columnarized into a
        :class:`~repro.sim.batch.RequestBatch` first; the batch is then
        bounds-checked in one array pass, put in ``(arrival_time,
        request_id)`` order when it is not already, and materialized as
        ``Request`` objects in that order for the drain loop.  The drain's
        completions become the result's columns in one pass at the end.
        """
        batch = (
            requests
            if isinstance(requests, RequestBatch)
            else RequestBatch.from_requests(requests)
        )
        batch.validate(self.device.capacity_sectors)
        if not batch.is_sorted():
            batch = batch.sorted_by_arrival()
        # Let the device bulk-derive per-request geometry from the columns
        # while they are still arrays (a no-op by default; a pure speed
        # hook — see StorageDevice.prime_request_profiles).
        self.device.prime_request_profiles(batch.lbn, batch.sectors)
        # ``validate`` enforced the ``Request`` invariants in bulk, so rows
        # are materialized through ``Request._make``: the C-speed
        # constructor that skips the validating ``__new__``.
        make = Request._make
        read, write = IOKind.READ, IOKind.WRITE
        arrivals = [
            make((arrival, lbn, sectors, write if is_write else read, rid))
            for arrival, lbn, sectors, is_write, rid in zip(
                batch.arrival.tolist(),
                batch.lbn.tolist(),
                batch.sectors.tolist(),
                batch.is_write.tolist(),
                batch.rid.tolist(),
            )
        ]

        self.now = 0.0
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                {"kind": "sim.start", "t": 0.0, "requests": len(arrivals)}
            )

        # The drain allocates a few tuples per request (the materialized
        # request, the device's AccessResult) and none of them form
        # reference cycles, so everything is reclaimed by reference
        # counting alone.  Generational GC scans, whose cost grows with the
        # live heap, are pure overhead here — measured at 2-4x the total
        # runtime on fleet-scale streams — so collection is paused for the
        # drain and the caller's setting restored after.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            done, dispatch, accesses = self._drain(arrivals)
        finally:
            if gc_was_enabled:
                gc.enable()

        if tracer.enabled:
            tracer.emit(
                {"kind": "sim.end", "t": self.now, "completed": len(done)}
            )
        return SimulationResult(
            _completion_columns(done, dispatch, accesses), end_time=self.now
        )

    # ------------------------------------------------------------------ #

    def _drain(
        self, arrivals: List[Request]
    ) -> Tuple[List[Request], List[float], List[AccessResult]]:
        """Move every arrival through queue, dispatch and completion.

        The device services one request at a time, so at most one
        completion is ever outstanding: the ``current`` request, its
        dispatch time, access and completion time (``busy`` says whether
        there is one), merged against a cursor over the arrival-sorted
        ``arrivals`` with one comparison per event.  On a tie the
        completion goes first, so a request arriving at the exact instant
        the device frees up finds the queue already advanced (DiskSim's
        order).

        Returns the completed requests, dispatch times and AccessResults
        in completion order: a completion appends objects the loop already
        holds and allocates nothing of its own.

        With an enabled tracer the loop emits ``sim.arrival`` (queue depth
        after the add), ``sim.dispatch`` (depth before the pick) and
        ``sim.complete``; each emission site is one branch when tracing is
        off.
        """
        done: List[Request] = []
        dispatch: List[float] = []
        accesses: List[AccessResult] = []
        done_append = done.append
        dispatch_append = dispatch.append
        access_append = accesses.append
        count = len(arrivals)
        index = 0
        scheduler = self.scheduler
        scheduler_add = scheduler.add
        pop_next = scheduler.pop_next
        pending = scheduler._pending_sized()
        service = self.device.service
        max_depth = self.max_queue_depth
        tracer = self.tracer
        tracing = tracer.enabled
        emit = tracer.emit
        now = 0.0
        busy = False
        current = current_access = None
        dispatched = completion = 0.0
        try:
            while True:
                if busy and not (
                    index < count and arrivals[index][0] < completion
                ):
                    # The outstanding completion is the next event.
                    if completion > now:
                        now = completion
                    done_append(current)
                    dispatch_append(dispatched)
                    access_append(current_access)
                    if tracing:
                        emit(_complete_event(now, current, dispatched, completion))
                    busy = False
                    if not pending:
                        continue
                elif index < count:
                    request = arrivals[index]
                    index += 1
                    time = request[0]
                    if time > now:
                        now = time
                    if max_depth is not None and len(pending) >= max_depth:
                        raise QueueOverflowError(
                            f"pending queue exceeded {max_depth} requests "
                            f"at t={now:.4f}s — workload saturates the device"
                        )
                    scheduler_add(request)
                    if tracing:
                        emit(
                            {
                                "kind": "sim.arrival",
                                "t": now,
                                "rid": request.request_id,
                                "lbn": request.lbn,
                                "sectors": request.sectors,
                                "io": request.kind.value,
                                "queue_depth": len(pending),
                            }
                        )
                    if busy:
                        continue
                else:
                    break
                # The device is free and the queue is not empty: dispatch.
                if tracing:
                    depth = len(pending)
                current = pop_next(now)
                current_access = service(current, now)
                dispatched = now
                completion = now + current_access.total
                busy = True
                if tracing:
                    emit(
                        {
                            "kind": "sim.dispatch",
                            "t": now,
                            "rid": current.request_id,
                            "wait": now - current.arrival_time,
                            "queue_depth": depth,
                        }
                    )
        finally:
            self.now = now
        return done, dispatch, accesses


def _completion_columns(
    done: List[Request], dispatch: List[float], accesses: List[AccessResult]
) -> Optional[dict]:
    """The drain's completions as :class:`SimulationResult` columns, built
    in bulk (``None`` when nothing completed).  ``completion`` is ``dispatch
    + total`` in float64: the addition the drain made per request."""
    if not done:
        return None
    np = get_numpy()
    columns = dict(zip(("arrival", "lbn", "sectors", "kind", "rid"), zip(*done)))
    columns["is_write"] = [kind is IOKind.WRITE for kind in columns.pop("kind")]
    columns.update(zip(AccessResult._fields, zip(*accesses)))
    columns["dispatch"] = np.array(dispatch, dtype=np.float64)
    columns["completion"] = columns["dispatch"] + np.array(
        columns["total"], dtype=np.float64
    )
    return columns


def _complete_event(
    now: float, request: Request, dispatch: float, completion: float
) -> dict:
    return {
        "kind": "sim.complete",
        "t": now,
        "rid": request.request_id,
        "queue": dispatch - request.arrival_time,
        "service": completion - dispatch,
        "response": completion - request.arrival_time,
    }


class QueueOverflowError(RuntimeError):
    """Raised when the pending queue exceeds ``max_queue_depth``."""


def simulate(
    device: StorageDevice,
    scheduler: "Scheduler",
    requests: Union[Iterable[Request], RequestBatch],
    max_queue_depth: Optional[int] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    sim = Simulation(device, scheduler, max_queue_depth=max_queue_depth)
    return sim.run(requests)
