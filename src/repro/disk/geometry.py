"""Zoned LBN ↔ physical mapping for the conventional-disk model.

LBNs fill the disk outer zone first (zone 0 has the most sectors per track),
cylinder by cylinder; within a cylinder, surface by surface; within a track,
in rotational order.  Track and cylinder skews stagger each track's sector 0
so that sequential transfers crossing a track or cylinder boundary find the
next sector arriving under the head just after the switch completes, rather
than missing nearly a full revolution — standard practice since the early
1990s and part of DiskSim's validated disk module.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.disk.parameters import DiskParameters


@dataclass(frozen=True)
class DiskAddress:
    """Physical coordinates of one sector."""

    cylinder: int
    surface: int
    sector: int

    def __post_init__(self) -> None:
        if min(self.cylinder, self.surface, self.sector) < 0:
            raise ValueError(f"negative coordinate in {self}")


class DiskGeometry:
    """Address arithmetic for a zoned disk.

    Every method is a pure function of its arguments and nothing is cached
    here: the device memoizes whole request profiles instead
    (:func:`repro.disk.device._shared_components`).

    Args:
        params: Disk design point.
    """

    def __init__(self, params: DiskParameters) -> None:
        self.params = params
        self._zone_first_cylinder: List[int] = [
            zone.first_cylinder for zone in params.zones
        ]
        self._zone_start_lbn: List[int] = []
        self._zone_track_skew: List[int] = []
        self._zone_cyl_skew: List[int] = []
        lbn = 0
        rev = params.revolution_time
        for zone in params.zones:
            self._zone_start_lbn.append(lbn)
            lbn += zone.cylinders * zone.sectors_per_track * params.surfaces
            track_skew = math.ceil(
                params.head_switch_time / rev * zone.sectors_per_track
            )
            cyl_skew = math.ceil(
                params.seek_curve.time(1) / rev * zone.sectors_per_track
            )
            self._zone_track_skew.append(track_skew)
            self._zone_cyl_skew.append(cyl_skew)
        self._capacity = lbn

    @property
    def capacity_sectors(self) -> int:
        return self._capacity

    # -- zone lookup ------------------------------------------------------- #

    def zone_of_lbn(self, lbn: int) -> int:
        if not 0 <= lbn < self._capacity:
            raise ValueError(f"LBN {lbn} outside disk (0..{self._capacity - 1})")
        return bisect.bisect_right(self._zone_start_lbn, lbn) - 1

    def zone_of_cylinder(self, cylinder: int) -> int:
        if not 0 <= cylinder < self.params.cylinders:
            raise ValueError(f"cylinder {cylinder} out of range")
        return bisect.bisect_right(self._zone_first_cylinder, cylinder) - 1

    def sectors_per_track(self, cylinder: int) -> int:
        return self.params.zones[self.zone_of_cylinder(cylinder)].sectors_per_track

    # -- LBN mapping --------------------------------------------------------- #

    def decompose(self, lbn: int) -> DiskAddress:
        """Map an LBN to (cylinder, surface, sector)."""
        zone_index = self.zone_of_lbn(lbn)
        zone = self.params.zones[zone_index]
        offset = lbn - self._zone_start_lbn[zone_index]
        spt = zone.sectors_per_track
        per_cylinder = spt * self.params.surfaces
        cyl_local, rem = divmod(offset, per_cylinder)
        surface, sector = divmod(rem, spt)
        return DiskAddress(zone.first_cylinder + cyl_local, surface, sector)

    def cylinder_of_lbn(self, lbn: int) -> int:
        """Cylinder holding ``lbn`` — the first-segment cylinder of any
        request starting there (``decompose(lbn).cylinder`` without
        building the full address).  The SPTF pruning layer buckets
        pending requests with this."""
        zone_index = self.zone_of_lbn(lbn)
        zone = self.params.zones[zone_index]
        offset = lbn - self._zone_start_lbn[zone_index]
        per_cylinder = zone.sectors_per_track * self.params.surfaces
        return zone.first_cylinder + offset // per_cylinder

    def lbn(self, address: DiskAddress) -> int:
        """Inverse of :meth:`decompose`."""
        zone_index = self.zone_of_cylinder(address.cylinder)
        zone = self.params.zones[zone_index]
        spt = zone.sectors_per_track
        if address.surface >= self.params.surfaces or address.sector >= spt:
            raise ValueError(f"address out of range: {address}")
        cyl_local = address.cylinder - zone.first_cylinder
        return (
            self._zone_start_lbn[zone_index]
            + cyl_local * spt * self.params.surfaces
            + address.surface * spt
            + address.sector
        )

    # -- rotational placement -------------------------------------------------- #

    def sector_angle(self, address: DiskAddress) -> float:
        """Angular position (fraction of a revolution, [0, 1)) at which the
        leading edge of ``address`` passes under the head."""
        zone_index = self.zone_of_cylinder(address.cylinder)
        zone = self.params.zones[zone_index]
        spt = zone.sectors_per_track
        track_skew = self._zone_track_skew[zone_index]
        cyl_skew = self._zone_cyl_skew[zone_index]
        cyl_local = address.cylinder - zone.first_cylinder
        per_cylinder_skew = (self.params.surfaces - 1) * track_skew + cyl_skew
        offset = (
            cyl_local * per_cylinder_skew + address.surface * track_skew
        ) % spt
        return ((offset + address.sector) % spt) / spt

    # -- request span ------------------------------------------------------------ #

    def segments(self, lbn: int, sectors: int) -> List[Tuple[DiskAddress, int]]:
        """Split a request into per-track runs of contiguous sectors.

        Returns ``(start_address, count)`` pairs in LBN order.
        """
        if sectors < 1:
            raise ValueError(f"non-positive request size: {sectors}")
        if lbn + sectors > self._capacity:
            raise ValueError("request exceeds disk capacity")
        result: List[Tuple[DiskAddress, int]] = []
        current = lbn
        remaining = sectors
        while remaining > 0:
            addr = self.decompose(current)
            spt = self.sectors_per_track(addr.cylinder)
            take = min(remaining, spt - addr.sector)
            result.append((addr, take))
            current += take
            remaining -= take
        return result
