"""Reference models the production SPTF selection must match.

:class:`ReferenceSPTF` prices every pending request at every dispatch and
keeps the argmin of ``estimate_positioning − age_weight · max(0, now −
arrival)`` with a strict ``<``, so the first queue index wins ties.  It
has no bounds, no index and no depth threshold; anything
:class:`repro.core.scheduling.sptf.SPTFScheduler` or
:class:`~repro.core.scheduling.sptf.AgedSPTFScheduler` dispatches
differently from it is a bug in the optimized path.

:func:`bound_order_selection` spells out *which* candidates a selection
prices: its pick, priced count and fast path must equal the scheduler's
on every selection, however the scheduler finds the bound order.
"""

from repro.core.scheduling.base import ListScheduler
from repro.core.scheduling.sptf import SCAN_DEPTH


class ReferenceSPTF(ListScheduler):
    """Full-scan SPTF (``age_weight=0``) or aged SPTF (``age_weight>0``)."""

    def __init__(self, device, age_weight=0.0, name="SPTF"):
        super().__init__()
        self.device = device
        self.age_weight = age_weight
        self.name = name

    def select_index(self, now):
        best_index = 0
        best_score = None
        for index, request in enumerate(self._queue):
            score = self.device.estimate_positioning(request, now)
            if self.age_weight:
                score -= self.age_weight * max(0.0, now - request.arrival_time)
            if best_score is None or score < best_score:
                best_score = score
                best_index = index
        return best_index


def bound_order_selection(device, pending, now, age_weight=0.0):
    """``(queue_index, priced, fast_path)`` of one selection from
    ``pending`` (in queue order).

    Up to ``SCAN_DEPTH`` candidates every one is priced (none when there
    is only one).  Deeper, the candidates are sorted stably by their bound,
    ``positioning_lower_bounds[|cylinder − current|]`` less the aging
    credit; the first is priced, and pricing stops at the first bound
    strictly greater than the best score.  The pick is the least score,
    ties going to the lowest queue index.
    """

    def score(request):
        value = device.estimate_positioning(request, now)
        if age_weight:
            value -= age_weight * max(0.0, now - request.arrival_time)
        return value

    if len(pending) <= SCAN_DEPTH:
        if len(pending) == 1:
            return 0, 0, "scan"
        scores = [score(request) for request in pending]
        return scores.index(min(scores)), len(pending), "scan"
    table = device.positioning_lower_bounds
    here = device.current_cylinder
    bounds = []
    for request in pending:
        bound = table[abs(device.request_cylinder(request) - here)]
        if age_weight:
            bound -= age_weight * max(0.0, now - request.arrival_time)
        bounds.append(bound)
    best = best_index = None
    priced = 0
    for index in sorted(range(len(pending)), key=bounds.__getitem__):
        if best is not None and bounds[index] > best:
            break
        value = score(pending[index])
        priced += 1
        if best is None or value < best or (value == best and index < best_index):
            best = value
            best_index = index
    return best_index, priced, "pruned"


def drain_order(device, scheduler, requests, refill_every=3):
    """Request ids in dispatch order, servicing each pick on ``device``.

    Half the stream is queued up front; the rest arrives two requests per
    ``refill_every`` dispatches (never with ``refill_every=0``) until the
    queue runs dry, so the selections run against queues of many depths.
    """
    preload = len(requests) // 2
    for request in requests[:preload]:
        scheduler.add(request)
    refill = iter(requests[preload:])
    order = []
    now = 0.0
    while len(scheduler):
        request = scheduler.pop_next(now)
        order.append(request.request_id)
        now += device.service(request, now).total
        if refill_every and len(order) % refill_every == 0:
            for extra in (next(refill, None), next(refill, None)):
                if extra is not None:
                    scheduler.add(extra)
    return order
