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
to the earliest-queued request.  Which of two ways a selection took is
reported as ``fast_path`` in ``sched.dispatch`` trace events:

* ``scan`` — up to :data:`SCAN_DEPTH` pending requests, every candidate is
  priced with the device's ``estimate_positioning``.  A single candidate
  is dispatched without pricing anything.
* ``pruned`` — deeper queues, on devices that publish
  ``positioning_lower_bounds`` (a dense admissible table indexed by
  cylinder distance that never decreases with the distance).  Candidates
  are priced in bound order, ties going to the earliest-queued, and
  pricing stops at the first bound strictly greater than the best exact
  score.  A bound never exceeds its candidate's score, so every candidate
  that could equal the final best score — and every one that ties it —
  has been priced, and the strict-``<`` / earliest-queued rule picks the
  scan's winner.

The bound order comes from an index of the pending requests sorted by
``(cylinder, insertion sequence)``.  Pure SPTF walks it outward from the
device's current cylinder on both sides at once: the table never
decreases with distance, so the walk meets candidates in bound order.  It
passes the best score so far to the oracle as ``limit``, which lets the
MEMS device stop at its Y-seek floor for a candidate that cannot win.
The aged variant subtracts each candidate's own aging credit from its
bound, so it walks the cylinder index together with one sorted by arrival
time (a threshold walk): the reached candidates wait in a heap keyed by
their aged bound, and the heap's minimum is priced only while it is
strictly below the least aged bound an unreached candidate can have.

The index, and the bound table, are built by the first deep selection,
so runs that stay shallow never pay for them.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from heapq import heappop, heappush
from itertools import count
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.scheduling.base import Scheduler
from repro.sim.device import StorageDevice
from repro.sim.request import Request

SCAN_DEPTH = 8
"""Deepest pending queue that is priced by a plain scan.

Deeper selections walk the cylinder index, whose fixed cost (a bisect and
a few frontier steps) a short scan undercuts when estimates are cheap.
Timed per dispatch at fixed depths (see ``docs/performance.md``), the pure
walk beats a scan from 4 pending requests on MEMS, whose estimates are
expensive, and from about 6 on the disk; the aged threshold walk from
about 6 on MEMS and 12 on the disk.  8 is kept so that traces of runs
that never queue deeper stay unchanged."""


def device_supports_pruning(device: StorageDevice) -> bool:
    """True when ``device`` exposes the lower-bound pricing oracle.

    The walk needs the dense ``positioning_lower_bounds`` table, the
    cylinder of a request (``request_cylinder``) and the current mechanical
    position (``current_cylinder``).  The table must be finite and never
    decrease with cylinder distance (both devices publish suffix-min
    envelopes), and ``estimate_positioning`` must accept
    ``limit``: exact at or below it, anything in ``(limit, exact]`` above.
    Devices without the surface (or test doubles) are always scanned.

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


class SPTFScheduler(Scheduler):
    """Greedy minimum-positioning-time selection using the device oracle."""

    name = "SPTF"

    age_weight = 0.0
    """Aging discount per second of queue wait (0 for pure SPTF)."""

    def __init__(self, device: StorageDevice) -> None:
        self._device = device
        self._prunable = device_supports_pruning(device)
        # Pending requests by insertion sequence; dict order is queue order.
        self._queue: Dict[int, Request] = {}
        self._sequence = count()
        # Bound table and ``(cylinder, seq, request)`` entries in ascending
        # order; ``None`` until the first deep selection.
        self._bounds: Sequence[float] = ()
        self._index: Optional[List[Tuple[int, int, Request]]] = None
        #: Telemetry for the most recent selection: how many requests were
        #: pending, how many were priced, and how many were not;
        #: ``candidates == priced + pruned`` always.
        self.last_candidates = 0
        self.last_priced = 0
        self.last_pruned = 0
        self.last_fast_path = "scan"

    def __len__(self) -> int:
        return len(self._queue)

    def pending(self) -> List[Request]:
        return list(self._queue.values())

    def _pending_sized(self):
        return self._queue

    def add(self, request: Request) -> None:
        seq = next(self._sequence)
        if self._index is not None:
            self._insert(self._device.request_cylinder(request), seq, request)
        self._queue[seq] = request

    def pop_next(self, now: float = 0.0) -> Request:
        queue = self._queue
        candidates = len(queue)
        if not candidates:
            raise IndexError("scheduler queue is empty")
        if candidates > SCAN_DEPTH and self._prunable:
            if self._index is None:
                self._build_index()
            seq, priced = self._walk(now)
            self.last_fast_path = "pruned"
        else:
            seq, priced = self._scan(now)
            self.last_fast_path = "scan"
        request = queue.pop(seq)
        if self._index is not None:
            self._remove(seq, request)
        self.last_candidates = candidates
        self.last_priced = priced
        self.last_pruned = candidates - priced
        if self.tracer.enabled:
            self._trace_dispatch(now, candidates, request)
        return request

    def _scan(self, now: float) -> Tuple[int, int]:
        """Price every candidate; returns ``(seq, priced)``."""
        queue = self._queue
        best_seq = next(iter(queue))
        if len(queue) == 1:
            return best_seq, 0
        estimate = self._device.estimate_positioning
        weight = self.age_weight
        best = math.inf
        for seq, request in queue.items():
            score = estimate(request, now)
            if weight:
                score -= weight * max(0.0, now - request.arrival_time)
            if score < best:
                best = score
                best_seq = seq
        return best_seq, len(queue)

    def _walk(self, now: float) -> Tuple[int, int]:
        """Price candidates outward from the current cylinder until a bound
        beats the best exact score; returns ``(seq, priced)``.

        Each step takes every entry at the lower of the two frontier bounds
        (one cylinder's requests, or both sides' at equal distance) and
        prices them earliest-queued first.
        """
        index = self._index
        bounds = self._bounds
        device = self._device
        estimate = device.estimate_positioning
        here = device.current_cylinder
        size = len(index)
        right = bisect_left(index, (here,))
        left = right - 1
        inf = math.inf
        lower = bounds[here - index[left][0]] if left >= 0 else inf
        upper = bounds[index[right][0] - here] if right < size else inf
        best = best_seq = inf
        priced = 0
        while True:
            bound = lower if lower < upper else upper
            if bound > best or bound == inf:
                return best_seq, priced
            group = []
            while lower == bound:
                group.append(index[left])
                left -= 1
                lower = bounds[here - index[left][0]] if left >= 0 else inf
            while upper == bound:
                group.append(index[right])
                right += 1
                upper = bounds[index[right][0] - here] if right < size else inf
            if len(group) > 1:
                group.sort(key=itemgetter(1))  # earliest-queued first
            for _, seq, request in group:
                if bound > best:
                    return best_seq, priced
                value = estimate(request, now, best)
                priced += 1
                if value < best or (value == best and seq < best_seq):
                    best = value
                    best_seq = seq

    def _build_index(self) -> None:
        """Fetch the bound table and index the pending requests."""
        device = self._device
        self._bounds = device.positioning_lower_bounds
        cylinder = device.request_cylinder
        self._index = sorted(
            (cylinder(request), seq, request)
            for seq, request in self._queue.items()
        )

    def _insert(self, cylinder: int, seq: int, request: Request) -> None:
        insort(self._index, (cylinder, seq, request))

    def _remove(self, seq: int, request: Request) -> None:
        index = self._index
        cylinder = self._device.request_cylinder(request)
        del index[bisect_left(index, (cylinder, seq))]

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
        # ``(arrival, seq, cylinder, request)`` entries in ascending order,
        # built and kept beside the cylinder index.
        self._by_arrival: List[Tuple[float, int, int, Request]] = []

    def _walk(self, now: float) -> Tuple[int, int]:
        """Threshold walk over the cylinder and arrival indexes; returns
        ``(seq, priced)``.

        An unreached candidate is at least as far as the nearer cylinder
        frontier and arrived no earlier than the oldest unreached request,
        so its aged bound is at least ``threshold``: the bound at that
        distance minus that arrival's credit (the rounding of each step is
        monotone, so this holds for the computed values too).  A reached
        candidate whose aged bound is strictly below the threshold precedes
        every unreached one in ``(bound, seq)`` order.  Each step reaches
        the frontier candidate, nearest or oldest, with the lower aged
        bound, and moves every frontier that stood on it past the
        candidates reached already.  Scores are priced exactly: ``best +
        credit`` as a limit could round.
        """
        index = self._index
        by_arrival = self._by_arrival
        bounds = self._bounds
        device = self._device
        estimate = device.estimate_positioning
        here = device.current_cylinder
        weight = self.age_weight
        size = len(index)
        right = bisect_left(index, (here,))
        left = right - 1
        inf = math.inf
        lower = bounds[here - index[left][0]] if left >= 0 else inf
        upper = bounds[index[right][0] - here] if right < size else inf
        oldest = 0
        arrival, seq, cylinder, request = by_arrival[0]
        credit = weight * max(0.0, now - arrival)
        reached = set()
        heap: List[Tuple[float, int, Request]] = []
        best = best_seq = inf
        priced = 0
        while True:
            near = lower if lower <= upper else upper
            threshold = near - credit if oldest < size else inf
            while heap and heap[0][0] < threshold:
                key, candidate, pick = heappop(heap)
                if key > best:
                    return best_seq, priced
                value = estimate(pick, now) - weight * max(
                    0.0, now - pick.arrival_time
                )
                priced += 1
                if value < best or (value == best and candidate < best_seq):
                    best = value
                    best_seq = candidate
            if threshold > best or oldest == size:
                return best_seq, priced
            entry = index[left] if lower <= upper else index[right]
            near_key = near - weight * max(0.0, now - entry[2].arrival_time)
            old_key = bounds[abs(cylinder - here)] - credit
            if near_key <= old_key:
                step = entry[1]
                heappush(heap, (near_key, step, entry[2]))
            else:
                step = seq
                heappush(heap, (old_key, seq, request))
            reached.add(step)
            if left >= 0 and index[left][1] == step:
                left -= 1
                while left >= 0 and index[left][1] in reached:
                    left -= 1
                lower = bounds[here - index[left][0]] if left >= 0 else inf
            elif right < size and index[right][1] == step:
                right += 1
                while right < size and index[right][1] in reached:
                    right += 1
                upper = bounds[index[right][0] - here] if right < size else inf
            if seq == step:
                oldest += 1
                while oldest < size and by_arrival[oldest][1] in reached:
                    oldest += 1
                if oldest < size:
                    arrival, seq, cylinder, request = by_arrival[oldest]
                    credit = weight * max(0.0, now - arrival)

    def _build_index(self) -> None:
        super()._build_index()
        self._by_arrival = sorted(
            (request.arrival_time, seq, cylinder, request)
            for cylinder, seq, request in self._index
        )

    def _insert(self, cylinder: int, seq: int, request: Request) -> None:
        super()._insert(cylinder, seq, request)
        insort(self._by_arrival, (request.arrival_time, seq, cylinder, request))

    def _remove(self, seq: int, request: Request) -> None:
        super()._remove(seq, request)
        by_arrival = self._by_arrival
        del by_arrival[bisect_left(by_arrival, (request.arrival_time, seq))]
