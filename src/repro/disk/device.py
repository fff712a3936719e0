"""Mechanical service model for the conventional disk.

First-order DiskSim-style service: distance-dependent seek, rotational
latency against a free-running platter (the disk rotates whether or not it
is transferring — the key contrast with the MEMS sled, §2.4.8), zoned media
transfer, and head/cylinder switch costs with skewed layout for sequential
crossings.

The platter angle is a pure function of absolute simulated time, so the
model needs the dispatch time (``now``) for both service and the SPTF
positioning oracle.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Optional, Tuple

from repro.disk.geometry import DiskGeometry
from repro.disk.parameters import DiskParameters, SeekCurve
from repro.sim.device import StorageDevice
from repro.sim.request import AccessResult, IOKind, Request

_Profile = Tuple[Tuple[int, int, float, float], ...]
"""A request's per-track segments in LBN order, each ``(cylinder, surface,
sector_angle, transfer)``: where the head must be, the platter angle at
which the segment's first sector arrives (a fraction of a revolution), and
the media transfer time of its sectors.  All four depend only on the
request address, never on the head position or the time."""


def _build_profile(geometry: DiskGeometry, lbn: int, sectors: int) -> _Profile:
    """Resolve the state-independent geometry of one request (raises
    ``ValueError`` when it does not fit on the disk)."""
    rev = geometry.params.revolution_time
    return tuple(
        (
            address.cylinder,
            address.surface,
            geometry.sector_angle(address),
            count / geometry.sectors_per_track(address.cylinder) * rev,
        )
        for address, count in geometry.segments(lbn, sectors)
    )


_PROFILE_CACHE_LIMIT = 1 << 17
"""Entry cap on the shared request-profile memo (cleared when exceeded),
the same cap as the MEMS device's."""


@functools.lru_cache(maxsize=1)
def _shared_components(
    params: DiskParameters,
) -> Tuple[DiskGeometry, Dict[Tuple[int, int], _Profile]]:
    """The geometry and the ``(lbn, sectors) → profile`` memo, shared by
    every memoizing device built from ``params``.

    A sweep builds a fresh device per point, and every point of a random
    workload sweep offers the same ``(lbn, sectors)`` column (the workload
    draws addresses and sizes from their own seed streams, independent of
    the rate), so sharing lets every point after the first start warm.
    Only the parameter set in use is kept, because pool workers outlive
    the sweep that filled the memo.  Neither component refers back to a
    device, so a dropped device is freed by reference counting.
    """
    return DiskGeometry(params), {}


@functools.lru_cache(maxsize=16)
def seek_time_table(curve: SeekCurve, cylinders: int) -> Tuple[float, ...]:
    """Dense seek-curve table (:meth:`SeekCurve.table`), memoized at module
    level so every device built from the same curve — in this process or a
    forked sweep worker — shares one array instead of growing a per-device
    distance dict."""
    return curve.table(cylinders)


@functools.lru_cache(maxsize=16)
def seek_lower_bounds(curve: SeekCurve, cylinders: int) -> Tuple[float, ...]:
    """Monotone lower-bound envelope of the dense seek table.

    ``seek_lower_bounds(curve, n)[d]`` is the cheapest seek at distance
    ``>= d`` — an admissible bound on the full positioning delay of any
    request ``d`` cylinders away (the exact estimate adds head-switch,
    write-settle, and rotational latency on top, all non-negative).  The
    suffix-min envelope keeps the table monotone even if a curve's
    sqrt/linear crossover dips.  SPTF's best-first selection prices
    candidates in order of this bound and stops once a bound exceeds the
    best exact estimate.
    """
    bounds = list(seek_time_table(curve, cylinders))
    for distance in range(cylinders - 2, -1, -1):
        if bounds[distance] > bounds[distance + 1]:
            bounds[distance] = bounds[distance + 1]
    return tuple(bounds)


class DiskDevice(StorageDevice):
    """Simulation model of one conventional disk drive.

    Args:
        params: Drive design point.
        memoize: Share the geometry and the request-profile memo with every
            other memoizing device built from equal ``params``
            (:func:`_shared_components`).  Results are identical either
            way (a profile is a pure function of the request address);
            ``False`` rebuilds the profile on every call.  Nothing keyed
            on the head position or the time is memoized.

    Example:
        >>> from repro.disk.atlas10k import atlas_10k
        >>> disk = DiskDevice(atlas_10k())
        >>> from repro.sim import Request, IOKind
        >>> access = disk.service(Request(0.0, lbn=1_000_000, sectors=8,
        ...                               kind=IOKind.READ))
        >>> 0.001 < access.total < 0.025
        True
    """

    def __init__(self, params: DiskParameters, memoize: bool = True) -> None:
        self.params = params
        self._profiles: Optional[Dict[Tuple[int, int], _Profile]]
        if memoize:
            self.geometry, self._profiles = _shared_components(params)
        else:
            self.geometry, self._profiles = DiskGeometry(params), None
        self._cylinder = 0
        self._surface = 0
        self._last_lbn = 0
        # Seek times depend only on the (integer) cylinder distance, so the
        # whole curve collapses into one dense float array indexed by
        # distance, shared across devices built from the same curve.
        self._seek_table = seek_time_table(params.seek_curve, params.cylinders)
        self._lower_bounds: Optional[Tuple[float, ...]] = None
        # Parameter values the service loop would otherwise read through
        # ``self.params`` on every call.
        self._rev = params.revolution_time
        self._head_switch = params.head_switch_time
        self._write_settle = params.write_settle_time
        self._bits_per_sector = params.sector_bytes * 8

    @property
    def positioning_lower_bounds(self) -> Tuple[float, ...]:
        """Dense admissible per-cylinder-delta lower bounds on positioning
        (see :func:`seek_lower_bounds`).

        Built lazily on first access — schedulers that never make a deep
        SPTF selection pay nothing — and memoized at module level per seek
        curve, so devices built from the same curve share one table.
        """
        bounds = self._lower_bounds
        if bounds is None:
            bounds = self._lower_bounds = seek_lower_bounds(
                self.params.seek_curve, self.params.cylinders
            )
        return bounds

    # -- StorageDevice interface ------------------------------------------- #

    @property
    def capacity_sectors(self) -> int:
        return self.geometry.capacity_sectors

    @property
    def last_lbn(self) -> int:
        return self._last_lbn

    @property
    def current_cylinder(self) -> int:
        return self._cylinder

    def request_cylinder(self, request: Request) -> int:
        """Cylinder of ``request``'s first segment — exactly the cylinder
        :meth:`estimate_positioning` seeks to, which SPTF pairs with
        :attr:`positioning_lower_bounds`."""
        return self.geometry.cylinder_of_lbn(request.lbn)

    def service(self, request: Request, now: float = 0.0) -> AccessResult:
        result = self._access(request, now)
        self._last_lbn = request.last_lbn
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                {
                    "kind": "dev.access",
                    "t": now,
                    "device": "disk",
                    "rid": request.request_id,
                    "lbn": request.lbn,
                    "sectors": request.sectors,
                    "io": request.kind.value,
                    "seek_x": result.seek_x,
                    "seek_y": 0.0,
                    "settle": 0.0,
                    "rotational_latency": result.rotational_latency,
                    "transfer": result.transfer,
                    "turnarounds": result.turnarounds,
                    # Seek then rotational latency serialize on a disk.
                    "positioning": result.seek_x + result.rotational_latency,
                    "total": result.total,
                    "bits": result.bits_accessed,
                    # Arm position after the access, in cylinders — the
                    # position time-series in repro.obs.analyze.
                    "cylinder": self._cylinder,
                }
            )
        return result

    def estimate_positioning(
        self, request: Request, now: float = 0.0, limit: float = math.inf
    ) -> float:
        """Seek (with head switch and write settle) plus rotational latency.

        Always exact: ``limit`` is accepted for the SPTF walk's oracle
        contract (exact at or below it, anything in ``(limit, exact]``
        above), which an exact answer meets.
        """
        cylinder, surface, angle, _ = self._profile(request)[0]
        seek = self._seek(cylinder, surface, request.kind)
        rev = self._rev
        head_angle = ((now + seek) / rev) % 1.0
        return seek + ((angle - head_angle) % 1.0) * rev

    # -- internals -------------------------------------------------------------- #

    def _profile(self, request: Request) -> _Profile:
        """``request``'s profile, validated whenever it is derived.

        A request whose key is in the memo passed the same bounds for this
        parameter set, so only a miss (every call without the memo) pays
        for :meth:`validate`; an out-of-range request raises its explicit
        ``ValueError`` and never enters the memo.
        """
        profiles = self._profiles
        if profiles is None:
            self.validate(request)
            return _build_profile(self.geometry, request.lbn, request.sectors)
        key = (request.lbn, request.sectors)
        profile = profiles.get(key)
        if profile is None:
            self.validate(request)
            if len(profiles) >= _PROFILE_CACHE_LIMIT:
                profiles.clear()
            profile = profiles[key] = _build_profile(self.geometry, *key)
        return profile

    def _seek(self, cylinder: int, surface: int, kind: IOKind) -> float:
        """Arm positioning to a segment starting on ``cylinder``/``surface``:
        the seek, a head switch on the same cylinder, and write settle."""
        distance = abs(cylinder - self._cylinder)
        seek = self._seek_table[distance]
        if distance == 0 and surface != self._surface:
            seek += self._head_switch
        if kind is IOKind.WRITE:
            seek += self._write_settle
        return seek

    def _access(self, request: Request, now: float) -> AccessResult:
        """Service ``request`` from the current head position, one track
        segment at a time, and leave the head on its last segment."""
        segments = self._profile(request)
        cylinder, surface = segments[0][0], segments[0][1]
        seek = self._seek(cylinder, surface, request.kind)
        time = now + seek
        rev = self._rev
        table = self._seek_table
        latency_total = 0.0
        transfer_total = 0.0
        switch_total = 0.0
        # The first segment compares equal to itself, so it pays no switch.
        for next_cylinder, next_surface, angle, transfer in segments:
            if next_cylinder != cylinder:
                step = table[abs(next_cylinder - cylinder)]
                time += step
                switch_total += step
            elif next_surface != surface:
                time += self._head_switch
                switch_total += self._head_switch
            head_angle = (time / rev) % 1.0
            latency = ((angle - head_angle) % 1.0) * rev
            time += latency
            latency_total += latency
            time += transfer
            transfer_total += transfer
            cylinder = next_cylinder
            surface = next_surface
        self._cylinder = cylinder
        self._surface = surface
        return AccessResult(
            total=time - now,
            seek_x=seek,
            rotational_latency=latency_total,
            transfer=transfer_total,
            turnarounds=switch_total,
            bits_accessed=request.sectors * self._bits_per_sector,
        )
