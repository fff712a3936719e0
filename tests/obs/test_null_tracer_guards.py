"""Untraced runs must never call the tracer.

The null tracer's cost model is one attribute load and a branch per
emission site.  Lint rule R3 checks the ``tracer.emit`` sites it can see,
but the drain loop binds ``emit = tracer.emit`` and ``tracing =
tracer.enabled`` to locals, which no syntactic check follows.  Here the
null tracer's ``emit`` raises, and untraced runs through every scheduler
on both devices, a live run and a fleet must finish without reaching it.
"""

import pytest

from repro.core.scheduling import SCHEDULERS
from repro.fleet import FleetConfig
from repro.obs.tracer import NullTracer
from repro.sim.config import SimConfig

REQUESTS = 600


@pytest.fixture(autouse=True)
def _emit_raises(monkeypatch):
    def emit(self, event):
        raise AssertionError(f"untraced run emitted {event.get('kind')!r}")

    monkeypatch.setattr(NullTracer, "emit", emit)


@pytest.mark.parametrize("scheduler", list(SCHEDULERS))
@pytest.mark.parametrize(
    "device, rate", [("mems", 2000.0), ("atlas10k", 160.0)]
)
def test_untraced_run_never_emits(device, rate, scheduler):
    config = SimConfig(
        device=device, scheduler=scheduler, rate=rate, num_requests=REQUESTS
    )
    assert len(config.run()) == REQUESTS


def test_untraced_live_run_never_emits():
    config = SimConfig(rate=2000.0, num_requests=REQUESTS, live_window=0.05)
    result, summary = config.run_live()
    assert len(result) == REQUESTS
    assert summary is not None and summary.windows


def test_untraced_fleet_never_emits():
    fleet = FleetConfig.uniform(3, rate=3000.0, num_requests=REQUESTS)
    assert len(fleet.run(jobs=1).combined) == REQUESTS
