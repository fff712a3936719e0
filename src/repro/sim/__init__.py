"""Discrete-event storage simulation engine (DiskSim analogue).

Public surface:

* :class:`~repro.sim.request.Request`, :class:`~repro.sim.request.IOKind`,
  :class:`~repro.sim.request.AccessResult`,
  :class:`~repro.sim.request.RequestRecord` — request lifecycle types.
* :class:`~repro.sim.device.StorageDevice` — device model interface.
* :class:`~repro.sim.batch.RequestBatch` — the columnar request stream
  every workload generator produces and the engine ingests.
* :class:`~repro.sim.engine.Simulation`, :func:`~repro.sim.engine.simulate`,
  :class:`~repro.sim.engine.QueueOverflowError` — the event loop: one
  ingest path and one drain loop, instrumented only through the tracer.
* :class:`~repro.sim.statistics.SimulationResult` — run metrics.
"""

import importlib

from repro.sim.batch import RequestBatch
from repro.sim.config import DEVICES, SimConfig, WORKLOADS, make_device
from repro.sim.device import StorageDevice
from repro.sim.engine import QueueOverflowError, Simulation, simulate
from repro.sim.request import SECTOR_BYTES, AccessResult, IOKind, Request, RequestRecord
from repro.sim.statistics import SimulationResult, squared_coefficient_of_variation

__all__ = [
    "DEVICES",
    "SECTOR_BYTES",
    "AccessResult",
    "IOKind",
    "QueueOverflowError",
    "ReplicationResult",
    "Request",
    "RequestBatch",
    "RequestRecord",
    "SimConfig",
    "Simulation",
    "SimulationResult",
    "StorageDevice",
    "WORKLOADS",
    "make_device",
    "replicate",
    "simulate",
    "squared_coefficient_of_variation",
]


def __getattr__(name: str):
    # replicate and ReplicationResult resolve on first access (PEP 562), so
    # a process that never replicates does not import repro.sim.replication.
    if name not in ("ReplicationResult", "replicate"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("repro.sim.replication"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
