"""Little's law as a sample-path identity over traced runs.

Let N(t) be the number of requests in the system: queued plus the one in
service.  Over a run in which every request arrives and completes, the
area under N(t) equals the sum of the response times exactly, since each
request adds 1 to N(t) from its arrival to its completion.  The area is
taken from the trace (queue depth from ``sim.arrival``/``sim.dispatch``,
the device busy from each ``sim.dispatch`` to its ``sim.complete``); the
response times come from the result's columns.  Agreement therefore ties
the traced events to the columns, not to a queueing model.
"""

import pytest

from repro.core.scheduling import make_scheduler
from repro.disk import DiskDevice, atlas_10k
from repro.mems import MEMSDevice
from repro.obs.tracer import RingBufferTracer
from repro.sim import Simulation
from repro.workloads import RandomWorkload


def _area_in_system(events) -> float:
    """Integral of N(t) over the run, from the engine's ``sim.*`` events."""
    area = 0.0
    last = 0.0
    queued = busy = 0
    for event in events:
        kind = event["kind"]
        if kind not in ("sim.arrival", "sim.dispatch", "sim.complete"):
            continue
        now = event["t"]
        assert now >= last
        area += (queued + busy) * (now - last)
        last = now
        if kind == "sim.arrival":
            assert event["queue_depth"] == queued + 1  # depth after the add
            queued += 1
        elif kind == "sim.dispatch":
            assert event["queue_depth"] == queued and not busy  # before the pick
            queued -= 1
            busy = 1
        else:
            assert busy
            busy = 0
    assert queued == 0 and busy == 0
    return area


@pytest.mark.parametrize(
    "device, scheduler, rate, requests",
    [
        (MEMSDevice, "SPTF", 2000.0, 3000),
        (lambda: DiskDevice(atlas_10k()), "C-LOOK", 120.0, 1500),
    ],
    ids=["mems-SPTF", "atlas10k-C-LOOK"],
)
def test_area_under_number_in_system_is_total_response(
    device, scheduler, rate, requests
):
    model = device()
    tracer = RingBufferTracer()
    sim = Simulation(model, make_scheduler(scheduler, model), tracer=tracer)
    batch = RandomWorkload(model.capacity_sectors, rate=rate, seed=11)
    result = sim.run(batch.generate(requests))
    assert len(result) == requests
    columns = result.columns
    total_response = float((columns["completion"] - columns["arrival"]).sum())
    area = _area_in_system(tracer.events)
    assert area == pytest.approx(total_response, rel=1e-9)
    # The runs queue: a trivially idle device would make the check weak.
    assert total_response > 2 * float(columns["total"].sum())
