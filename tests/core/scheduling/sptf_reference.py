"""A plain full-scan SPTF: the oracle the production selection must match.

:class:`ReferenceSPTF` prices every pending request at every dispatch and
keeps the argmin of ``estimate_positioning − age_weight · max(0, now −
arrival)`` with a strict ``<``, so the first queue index wins ties.  It
has no bounds, no columns and no depth threshold; anything
:class:`repro.core.scheduling.sptf.SPTFScheduler` or
:class:`~repro.core.scheduling.sptf.AgedSPTFScheduler` dispatches
differently from it is a bug in the optimized path.
"""

from repro.core.scheduling.base import ListScheduler


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
