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
from typing import Optional, Tuple

from repro.disk.geometry import DiskAddress, DiskGeometry
from repro.disk.parameters import DiskParameters, SeekCurve
from repro.sim.device import StorageDevice
from repro.sim.request import AccessResult, IOKind, Request


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
        self.geometry = DiskGeometry(
            params, cache_size=(1 << 16) if memoize else 0
        )
        self._cylinder = 0
        self._surface = 0
        self._last_lbn = 0
        # Seek times depend only on the (integer) cylinder distance, so the
        # whole curve collapses into one dense float array indexed by
        # distance — cheaper than the distance-keyed dict it replaces, and
        # shared across devices built from the same curve.  ``None``
        # disables it (the uncached benchmark baseline).
        self._curve_table: Optional[Tuple[float, ...]] = (
            seek_time_table(params.seek_curve, params.cylinders)
            if memoize
            else None
        )
        self._lower_bounds: Optional[Tuple[float, ...]] = None
        self._memoize = memoize

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
        self.validate(request)
        result = self._access(request, now, mutate=True)
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

    def estimate_positioning(self, request: Request, now: float = 0.0) -> float:
        # With memoization on the explicit validation is elided: the engine
        # validates at ingest and the geometry bounds-checks whenever the
        # per-track split is actually derived, so an out-of-range request
        # still raises ``ValueError``.
        if not self._memoize:
            self.validate(request)
        first, _ = self.geometry.segments_tuple(request.lbn, request.sectors)[0]
        seek = self._seek_time(self._cylinder, first, request.kind)
        arrive = now + seek
        latency = self._rotational_latency(first, arrive)
        return seek + latency

    # -- internals -------------------------------------------------------------- #

    def _curve_time(self, distance: int) -> float:
        table = self._curve_table
        if table is None:
            return self.params.seek_curve.time(distance)
        return table[distance]

    def _seek_time(self, from_cyl: int, target: DiskAddress, kind: IOKind) -> float:
        distance = abs(target.cylinder - from_cyl)
        seek = self._curve_time(distance)
        if distance == 0 and target.surface != self._surface:
            seek += self.params.head_switch_time
        if kind is IOKind.WRITE:
            seek += self.params.write_settle_time
        return seek

    def _rotational_latency(self, address: DiskAddress, at_time: float) -> float:
        rev = self.params.revolution_time
        head_angle = (at_time / rev) % 1.0
        target = self.geometry.sector_angle(address)
        return ((target - head_angle) % 1.0) * rev

    def _access(self, request: Request, now: float, mutate: bool) -> AccessResult:
        rev = self.params.revolution_time
        segments = self.geometry.segments_tuple(request.lbn, request.sectors)

        time = now
        first, _ = segments[0]
        seek = self._seek_time(self._cylinder, first, request.kind)
        time += seek

        latency_total = 0.0
        transfer_total = 0.0
        switch_total = 0.0
        cylinder = self._cylinder
        surface = self._surface
        for index, (addr, count) in enumerate(segments):
            if index > 0:
                if addr.cylinder != cylinder:
                    step = self._curve_time(abs(addr.cylinder - cylinder))
                    time += step
                    switch_total += step
                elif addr.surface != surface:
                    time += self.params.head_switch_time
                    switch_total += self.params.head_switch_time
            latency = self._rotational_latency(addr, time)
            time += latency
            latency_total += latency
            spt = self.geometry.sectors_per_track(addr.cylinder)
            transfer = count / spt * rev
            time += transfer
            transfer_total += transfer
            cylinder = addr.cylinder
            surface = addr.surface

        if mutate:
            self._cylinder = cylinder
            self._surface = surface

        bits = request.sectors * self.params.sector_bytes * 8
        return AccessResult(
            total=time - now,
            seek_x=seek,
            rotational_latency=latency_total,
            transfer=transfer_total,
            turnarounds=switch_total,
            bits_accessed=bits,
        )
