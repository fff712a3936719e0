"""repro — reproduction of "Operating System Management of MEMS-based
Storage Devices" (Griffin, Schlosser, Ganger, Nagle; CMU-CS-00-136, 2000).

The package provides:

* :mod:`repro.sim` — a DiskSim-like discrete-event storage simulator;
* :mod:`repro.mems` — the MEMS media-sled device model (§2);
* :mod:`repro.disk` — a conventional disk model with the calibrated
  Quantum Atlas 10K design point;
* :mod:`repro.core` — the OS management policies the paper studies:
  scheduling (§4), layout (§5), fault management (§6), power (§7);
* :mod:`repro.ecc` — Reed-Solomon / Hamming coding substrate for §6;
* :mod:`repro.array` — RAID 0/1/5 arrays of either device (§6.2, §6.3);
* :mod:`repro.core.buffer` — speed-matching cache and prefetch (§2.4.11);
* :mod:`repro.workloads` — the random workload and Cello/TPC-C-like traces;
* :mod:`repro.fleet` — sharded multi-device ("fleet") simulation with
  routing policies and deterministic merge;
* :mod:`repro.experiments` — one module per paper figure/table.

Quickstart::

    from repro import MEMSDevice, Simulation, make_scheduler, RandomWorkload

    device = MEMSDevice()
    scheduler = make_scheduler("SPTF", device)
    workload = RandomWorkload(device.capacity_sectors, rate=800.0, seed=42)
    result = Simulation(device, scheduler).run(workload.generate(10_000))
    print(f"mean response time: {result.mean_response_time * 1e3:.2f} ms")

Public names resolve on first access (PEP 562): ``import repro`` loads no
subpackage, and ``from repro import MEMSDevice`` imports only the modules
that name needs, so a short ``python -m repro`` process pays for what its
subcommand runs.
"""

import importlib

__version__ = "1.0.0"

_EXPORTS = {
    "repro.array": ("ArrayLevel", "StorageArray"),
    "repro.core.buffer": ("BufferCache", "CachedDevice", "PrefetchPolicy"),
    "repro.core.layout": ("LAYOUTS", "make_layout"),
    "repro.core.scheduling": (
        "AgedSPTFScheduler",
        "CLOOKScheduler",
        "FCFSScheduler",
        "PAPER_ALGORITHMS",
        "SCHEDULERS",
        "SPTFScheduler",
        "SSTFScheduler",
        "Scheduler",
        "ShortestXFirstScheduler",
        "make_scheduler",
    ),
    "repro.disk": ("DiskDevice", "DiskParameters", "atlas_10k"),
    "repro.fleet": (
        "FleetConfig",
        "FleetResult",
        "ROUTERS",
        "make_router",
        "run_fleet",
    ),
    "repro.mems": ("DEFAULT_PARAMETERS", "MEMSDevice", "MEMSParameters"),
    "repro.obs": (
        "JsonlTracer",
        "MetricsRegistry",
        "NullTracer",
        "RingBufferTracer",
        "Tracer",
    ),
    "repro.sim": (
        "AccessResult",
        "DEVICES",
        "IOKind",
        "Request",
        "RequestRecord",
        "SimConfig",
        "Simulation",
        "SimulationResult",
        "StorageDevice",
        "make_device",
        "simulate",
    ),
    "repro.workloads": (
        "CelloLikeWorkload",
        "RandomWorkload",
        "TPCCLikeWorkload",
        "UniformFixedWorkload",
    ),
}
"""Module → the public names it supplies."""

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
