"""Shortest-Positioning-Time-First scheduling [SCO90, JW91] (§4.1).

SPTF asks the device model to predict the true positioning delay of every
pending request from the current mechanical state and dispatches the
cheapest.  On disks that means seek time *plus* rotational latency; on the
MEMS device it means max(X seek + settle, Y seek) — which is why SPTF is the
only policy here that can optimize the Y dimension (§4.2).

Two variants are provided:

* :class:`SPTFScheduler` — the paper's pure greedy policy;
* :class:`AgedSPTFScheduler` — a standard aging extension (each pending
  request's predicted positioning time is discounted by ``age_weight`` ×
  its queue wait), trading a little average performance for starvation
  resistance.  Not in the paper; included as an ablation.

Both select the request a plain scan would: the minimum score, ties going
to the lowest queue index.  Which of two ways a selection took is
reported as ``fast_path`` in ``sched.dispatch`` trace events:

* ``scan`` — up to :data:`SCAN_DEPTH` pending requests, every candidate is
  priced with the device's ``estimate_positioning``.  A single candidate
  is dispatched without pricing anything.
* ``pruned`` — deeper queues, on devices that publish
  ``positioning_lower_bounds`` (a dense admissible table indexed by
  cylinder distance).  One numpy pass computes every candidate's bound
  from a cylinder column kept beside the queue; the aged variant
  subtracts each candidate's own aging credit, read from an arrival
  column, exactly as it does from the exact estimate.  Candidates are
  then priced best-first in bound order (after the lowest bound is priced,
  only the bounds at or below its score are sorted), and pricing stops at
  the first bound strictly greater than the best exact score.  A bound never
  exceeds its candidate's score, so every candidate that could equal the
  final best score — and every one that ties it — has been priced, and
  the strict-``<`` / lowest-index rule picks the scan's winner.

The columns and the bound table are built by the first deep selection, so
runs that stay shallow never pay for them.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.core.scheduling.base import ListScheduler
from repro.nputil import get_numpy
from repro.sim.device import StorageDevice
from repro.sim.request import Request

SCAN_DEPTH = 8
"""Deepest pending queue that is priced by a plain scan.

Deeper selections take the best-first path, whose fixed numpy cost (a
gather, an argmin, a mask and a short sort) a short scan undercuts when
estimates are cheap.  Timed per dispatch at fixed depths, best-first is
faster from 4–6 pending requests on MEMS, whose estimates are expensive,
and from 10–12 on the disk.  At 8 a MEMS selection takes 0.5–0.6 of a
scan's time while a disk one pays 5–12 µs more (see
``docs/performance.md``)."""


def device_supports_pruning(device: StorageDevice) -> bool:
    """True when ``device`` exposes the lower-bound pricing oracle.

    The best-first path needs the dense ``positioning_lower_bounds`` table,
    the cylinder of a request (``request_cylinder``) and the current
    mechanical position (``current_cylinder``).  Devices without them (or
    test doubles) are always scanned.

    The bounds probe checks the *class* first: on the real devices
    ``positioning_lower_bounds`` is a lazily built property, and reading it
    off the instance here would trigger the build for every scheduler.
    """
    bounds = getattr(type(device), "positioning_lower_bounds", None)
    if bounds is None:
        bounds = getattr(device, "positioning_lower_bounds", None)
    return (
        bounds is not None
        and callable(getattr(device, "request_cylinder", None))
        and getattr(device, "current_cylinder", None) is not None
    )


class SPTFScheduler(ListScheduler):
    """Greedy minimum-positioning-time selection using the device oracle."""

    name = "SPTF"

    age_weight = 0.0
    """Aging discount per second of queue wait (0 for pure SPTF)."""

    def __init__(self, device: StorageDevice) -> None:
        super().__init__()
        self._device = device
        self._prunable = device_supports_pruning(device)
        # Bound table and per-request columns, aligned with ``_queue`` by
        # position; ``None`` until the first deep selection.
        self._bounds = None
        self._cyls = None
        self._arrivals = None
        #: Telemetry for the most recent selection: how many requests were
        #: pending, how many were priced, and how many were not;
        #: ``candidates == priced + pruned`` always.
        self.last_candidates = 0
        self.last_priced = 0
        self.last_pruned = 0
        self.last_fast_path = "scan"

    def add(self, request: Request) -> None:
        cyls = self._cyls
        if cyls is not None:
            size = len(self._queue)
            if size == len(cyls):
                np = get_numpy()
                cyls = self._cyls = np.resize(cyls, 2 * size)
                self._arrivals = np.resize(self._arrivals, 2 * size)
            cyls[size] = self._device.request_cylinder(request)
            self._arrivals[size] = request.arrival_time
        self._queue.append(request)

    def pop_next(self, now: float = 0.0) -> Request:
        queue = self._queue
        if not queue:
            raise IndexError("scheduler queue is empty")
        candidates = len(queue)
        index = self.select_index(now)
        request = queue.pop(index)
        cyls = self._cyls
        if cyls is not None:
            cyls[index : candidates - 1] = cyls[index + 1 : candidates]
            arrivals = self._arrivals
            arrivals[index : candidates - 1] = arrivals[index + 1 : candidates]
        if self.tracer.enabled:
            self._trace_dispatch(now, candidates, request)
        return request

    def select_index(self, now: float) -> int:
        candidates = len(self._queue)
        if candidates > SCAN_DEPTH and self._prunable:
            index, priced = self._best_first(now)
            self.last_fast_path = "pruned"
        else:
            index, priced = self._scan(now)
            self.last_fast_path = "scan"
        self.last_candidates = candidates
        self.last_priced = priced
        self.last_pruned = candidates - priced
        return index

    def _scan(self, now: float) -> Tuple[int, int]:
        """Price every candidate; returns ``(queue_index, priced)``."""
        queue = self._queue
        if len(queue) <= 1:
            return 0, 0
        estimate = self._device.estimate_positioning
        weight = self.age_weight
        best = math.inf
        best_index = 0
        for index, request in enumerate(queue):
            score = estimate(request, now)
            if weight:
                score -= weight * max(0.0, now - request.arrival_time)
            if score < best:
                best = score
                best_index = index
        return best_index, len(queue)

    def _best_first(self, now: float) -> Tuple[int, int]:
        """Price candidates in bound order until a bound beats the best
        exact score; returns ``(queue_index, priced)``."""
        np = get_numpy()
        if self._cyls is None:
            self._build_columns()
        queue = self._queue
        size = len(queue)
        device = self._device
        bounds = self._bounds[np.abs(self._cyls[:size] - device.current_cylinder)]
        weight = self.age_weight
        if weight:
            bounds -= weight * np.maximum(0.0, now - self._arrivals[:size])
        estimate = device.estimate_positioning

        def score(index: int) -> float:
            request = queue[index]
            value = estimate(request, now)
            if weight:
                value -= weight * max(0.0, now - request.arrival_time)
            return value

        # The lowest bound is priced first.  No bound above its score can
        # be priced after it, so only the candidates at or below it are
        # sorted: they are a prefix of the full stable bound order.
        best_index = int(bounds.argmin())
        best = score(best_index)
        survivors = np.flatnonzero(bounds <= best)
        rest = survivors[bounds[survivors].argsort(kind="stable")][1:]
        priced = 1
        for bound, index in zip(bounds[rest].tolist(), rest.tolist()):
            if bound > best:
                break
            value = score(index)
            priced += 1
            if value < best or (value == best and index < best_index):
                best = value
                best_index = index
        return best_index, priced

    def _build_columns(self) -> None:
        """Fetch the bound table and fill the columns from the queue."""
        np = get_numpy()
        queue = self._queue
        size = len(queue)
        capacity = max(64, 2 * size)
        request_cylinder = self._device.request_cylinder
        self._bounds = np.asarray(
            self._device.positioning_lower_bounds, dtype=np.float64
        )
        self._cyls = np.empty(capacity, dtype=np.int64)
        self._cyls[:size] = [request_cylinder(request) for request in queue]
        self._arrivals = np.empty(capacity, dtype=np.float64)
        self._arrivals[:size] = [request.arrival_time for request in queue]

    def _dispatch_telemetry(self) -> dict:
        return {
            "candidates_priced": self.last_priced,
            "candidates_pruned": self.last_pruned,
            "fast_path": self.last_fast_path,
        }


class AgedSPTFScheduler(SPTFScheduler):
    """SPTF with linear aging: priority = positioning − age_weight · wait.

    ``age_weight`` = 0 degenerates to pure SPTF; a few milliseconds per
    second of wait is typically enough to bound starvation.
    """

    name = "ASPTF"

    def __init__(self, device: StorageDevice, age_weight: float = 0.01) -> None:
        if age_weight < 0:
            raise ValueError(f"negative age_weight: {age_weight}")
        super().__init__(device)
        self.age_weight = age_weight
