"""Request scheduling policies (§4).

The paper's four algorithms — FCFS, SSTF_LBN, C-LOOK, SPTF — plus two
extensions (aged SPTF and the settle-aware Shortest-X-First the conclusion
hints at).  Every policy is registered in :data:`SCHEDULERS` under its
paper name; :func:`make_scheduler` (and the CLI, and the experiment sweeps)
resolve names through that registry, so adding a policy is one
``SCHEDULERS.register`` call with no dispatch ladder to update.

Lookup is spelling-tolerant: ``"C-LOOK"``, ``"clook"``, and ``"c_look"``
all resolve to the same factory.
"""

import inspect
from typing import Optional

from repro.core.registry import Registry
from repro.core.scheduling.base import ListScheduler, Scheduler
from repro.core.scheduling.clook import CLOOKScheduler
from repro.core.scheduling.fcfs import FCFSScheduler
from repro.core.scheduling.hybrid import ShortestXFirstScheduler
from repro.core.scheduling.scan import SCANScheduler
from repro.core.scheduling.sptf import AgedSPTFScheduler, SPTFScheduler
from repro.core.scheduling.sstf import SSTFScheduler
from repro.sim.device import StorageDevice

PAPER_ALGORITHMS = ("FCFS", "SSTF_LBN", "C-LOOK", "SPTF")
"""The four policies evaluated in Figs. 5–8."""

SCHEDULERS = Registry("scheduler")
"""String-keyed registry of scheduler factories.

Each factory takes ``device`` plus the keyword options it declares and
returns a :class:`Scheduler`; register new policies here to make them
reachable from :func:`make_scheduler`, the CLI, and the experiment sweeps.
"""


def default_sectors_per_cylinder(device: StorageDevice) -> int:
    """Derive the LBN→cylinder mapping constant from a device model.

    Capability-based: a MEMS device exposes it on its geometry; a disk
    derives an average from its parameter block (zoned disks have no single
    exact value, and SXTF only needs a distance proxy).
    """
    geometry = getattr(device, "geometry", None)
    spc = getattr(geometry, "sectors_per_cylinder", None)
    if spc:
        return spc
    params = getattr(device, "params", None)
    cylinders = getattr(params, "cylinders", None)
    if cylinders:
        return max(1, device.capacity_sectors // cylinders)
    raise ValueError(
        f"cannot derive sectors_per_cylinder for {type(device).__name__}; "
        f"pass it explicitly"
    )


@SCHEDULERS.register("FCFS")
def _make_fcfs(device: StorageDevice) -> Scheduler:
    return FCFSScheduler()


@SCHEDULERS.register("SSTF_LBN", aliases=("SSTF",))
def _make_sstf(device: StorageDevice) -> Scheduler:
    return SSTFScheduler(device)


@SCHEDULERS.register("C-LOOK")
def _make_clook(device: StorageDevice) -> Scheduler:
    return CLOOKScheduler(device)


@SCHEDULERS.register("SCAN")
def _make_scan(device: StorageDevice) -> Scheduler:
    return SCANScheduler(device)


@SCHEDULERS.register("SPTF")
def _make_sptf(device: StorageDevice) -> Scheduler:
    return SPTFScheduler(device)


@SCHEDULERS.register("ASPTF")
def _make_asptf(device: StorageDevice, age_weight: float = 0.01) -> Scheduler:
    return AgedSPTFScheduler(device, age_weight=age_weight)


@SCHEDULERS.register("SXTF")
def _make_sxtf(
    device: StorageDevice, sectors_per_cylinder: Optional[int] = None
) -> Scheduler:
    if sectors_per_cylinder is None:
        sectors_per_cylinder = default_sectors_per_cylinder(device)
    return ShortestXFirstScheduler(device, sectors_per_cylinder)


def make_scheduler(
    name: str,
    device: StorageDevice,
    sectors_per_cylinder: Optional[int] = None,
    **kwargs,
) -> Scheduler:
    """Build a scheduler by its paper name via :data:`SCHEDULERS`.

    Args:
        name: One of ``FCFS``, ``SSTF_LBN``, ``C-LOOK``, ``SPTF``, ``SCAN``,
            ``ASPTF``, or ``SXTF`` (any spelling; see
            :func:`repro.core.registry.fold_name`).
        device: The device the scheduler will serve.
        sectors_per_cylinder: ``SXTF`` mapping constant; derived from the
            device when omitted, and ignored by every other policy.
        **kwargs: Options the policy's factory declares as keyword
            parameters (e.g. ``age_weight=`` for ASPTF).  Anything else
            raises ``ValueError`` naming the scheduler, the unknown options
            and the accepted ones.
    """
    try:
        factory = SCHEDULERS[name]
    except KeyError as exc:
        # Reuse the registry's message: it lists registered names and adds
        # a did-you-mean suggestion for near-miss spellings.
        raise ValueError(exc.args[0]) from None
    options = tuple(inspect.signature(factory).parameters)[1:]
    unknown = sorted(set(kwargs) - set(options))
    if unknown:
        raise ValueError(
            f"scheduler {SCHEDULERS.canonical_name(name)} does not accept "
            f"option{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(repr, unknown))}; accepted: "
            f"{', '.join(map(repr, options)) if options else 'none'}"
        )
    if sectors_per_cylinder is not None and "sectors_per_cylinder" in options:
        kwargs["sectors_per_cylinder"] = sectors_per_cylinder
    return factory(device, **kwargs)


__all__ = [
    "AgedSPTFScheduler",
    "CLOOKScheduler",
    "FCFSScheduler",
    "ListScheduler",
    "PAPER_ALGORITHMS",
    "SCANScheduler",
    "SCHEDULERS",
    "SPTFScheduler",
    "SSTFScheduler",
    "Scheduler",
    "ShortestXFirstScheduler",
    "default_sectors_per_cylinder",
    "make_scheduler",
]
