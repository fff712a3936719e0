"""Abstract storage-device interface used by the driver and schedulers.

Concrete implementations live in :mod:`repro.mems.device` and
:mod:`repro.disk.device`.  The interface is deliberately small: a device
knows its capacity, can *service* a request (advancing its internal
mechanical state and returning a timing breakdown), and can *estimate* the
positioning delay a request would incur right now without changing state —
the oracle that Shortest-Positioning-Time-First scheduling relies on.

Both methods take the current simulated time because rotating devices'
mechanical state (platter angle) advances with wall-clock time even while
idle.  The MEMS device's sled holds position while idle and ignores it.
"""

from __future__ import annotations

import abc

from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sim.request import AccessResult, Request


class StorageDevice(abc.ABC):
    """Base class for mechanical storage device models."""

    tracer: Tracer = NULL_TRACER
    """Event sink for per-access phase breakdowns (``dev.access`` events).

    The class-level default is the shared null tracer, so an uninstrumented
    device pays one branch per access.  :class:`repro.sim.Simulation`
    attaches its tracer here when one is supplied.
    """

    @property
    @abc.abstractmethod
    def capacity_sectors(self) -> int:
        """Number of addressable 512-byte logical sectors."""

    @abc.abstractmethod
    def service(self, request: Request, now: float = 0.0) -> AccessResult:
        """Service ``request`` starting at simulated time ``now``.

        Advances the device's internal state (head/sled position, rotation
        phase, etc.) to where it rests when the access completes, and returns
        the timing breakdown.
        """

    @abc.abstractmethod
    def estimate_positioning(self, request: Request, now: float = 0.0) -> float:
        """Predicted positioning delay for ``request`` from the current state.

        Must not mutate device state.  This is the SPTF oracle: it includes
        every pre-transfer delay (seeks, settle, rotational latency) but not
        the media transfer itself.
        """

    @property
    @abc.abstractmethod
    def last_lbn(self) -> int:
        """LBN at which the most recent access finished (0 initially).

        LBN-based schedulers (SSTF_LBN, C-LOOK) use this as their only view
        of device state, mirroring what a host OS actually knows.
        """

    def validate(self, request: Request) -> None:
        """Raise ``ValueError`` if the request cannot be serviced.

        Rejects requests that start before LBN 0, transfer no sectors, or
        run past the end of the device.  :class:`repro.sim.Request` enforces
        the first two at construction, but requests can reach a device from
        other sources (trace replayers, array controllers re-mapping
        addresses), so the device re-checks them with explicit messages.
        """
        if request.sectors < 1:
            raise ValueError(
                f"zero-length request at LBN {request.lbn}: transfer size "
                f"must be >= 1 sector, got {request.sectors}"
            )
        if request.lbn < 0:
            raise ValueError(
                f"negative start LBN {request.lbn}: requests must begin at "
                f"or after LBN 0"
            )
        if request.last_lbn >= self.capacity_sectors:
            raise ValueError(
                f"request [{request.lbn}, {request.last_lbn}] exceeds device "
                f"capacity of {self.capacity_sectors} sectors"
            )
