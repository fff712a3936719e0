"""LBN ↔ physical-position mapping for the MEMS device (§2.2).

The disk-like metaphor of the paper:

* a **cylinder** is the set of bits at one sled X offset (one bit column per
  tip region); there are N = 2500 cylinders;
* a **track** is the subset of a cylinder readable by one group of
  concurrently-active tips; with 6400 tips and 1280 active there are 5
  tracks per cylinder;
* a **tip-sector row** is one 90-bit band (10 servo + 80 encoded bits) along
  Y; 27 rows fit in a 2500-bit tip track;
* a **logical sector** (512 B) is striped across 64 tips, so one row of one
  track holds 1280/64 = 20 logical sectors side by side.

The lowest-level LBN mapping is sequentially optimized (§2.4.3): LBNs first
fill the 20 side-by-side sectors of a row, then successive rows down the
track (readable in one continuous sled pass), then the next track of the
cylinder, then the next cylinder.

Coordinates: X and Y are sled displacements from center, in meters.  The 27
rows use 2430 of the 2500 bits of a tip track; the used band is centered,
leaving 35 bits of guard space at each end.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mems.parameters import MEMSParameters


@dataclass(frozen=True, slots=True)
class SectorAddress:
    """Physical coordinates of one logical sector."""

    cylinder: int
    track: int
    row: int
    slot: int

    def __post_init__(self) -> None:
        if min(self.cylinder, self.track, self.row, self.slot) < 0:
            raise ValueError(f"negative coordinate in {self}")


class MEMSGeometry:
    """Address arithmetic for the sequentially-optimized LBN mapping.

    Args:
        params: Device design point.
    """

    def __init__(self, params: MEMSParameters) -> None:
        self.params = params
        self._sectors_per_row = params.sectors_per_row
        self._rows_per_track = params.tip_sectors_per_track
        self._sectors_per_track = params.sectors_per_track
        self._sectors_per_cylinder = params.sectors_per_cylinder
        self._capacity = params.capacity_sectors
        # Guard band: bits of a tip track not covered by whole tip sectors,
        # split evenly between the two ends so the used area is centered.
        used_bits = self._rows_per_track * params.tip_sector_bits
        self._guard_bits = (params.bits_per_tip_region_y - used_bits) / 2.0

    # -- counts --------------------------------------------------------- #

    @property
    def capacity_sectors(self) -> int:
        return self._capacity

    @property
    def num_cylinders(self) -> int:
        return self.params.num_cylinders

    @property
    def tracks_per_cylinder(self) -> int:
        return self.params.tracks_per_cylinder

    @property
    def rows_per_track(self) -> int:
        return self._rows_per_track

    @property
    def sectors_per_row(self) -> int:
        return self._sectors_per_row

    @property
    def sectors_per_track(self) -> int:
        return self._sectors_per_track

    @property
    def sectors_per_cylinder(self) -> int:
        return self._sectors_per_cylinder

    # -- address decomposition ------------------------------------------ #

    def decompose(self, lbn: int) -> SectorAddress:
        """Map an LBN to its (cylinder, track, row, slot) coordinates."""
        if not 0 <= lbn < self._capacity:
            raise ValueError(f"LBN {lbn} outside device (0..{self._capacity - 1})")
        cylinder, rem = divmod(lbn, self._sectors_per_cylinder)
        track, rem = divmod(rem, self._sectors_per_track)
        row, slot = divmod(rem, self._sectors_per_row)
        return SectorAddress(cylinder, track, row, slot)

    def cylinder_of_lbn(self, lbn: int) -> int:
        """Cylinder holding ``lbn`` — the first-segment cylinder of any
        request starting there.  One integer division; the SPTF pruning
        layer buckets pending requests with this, so it deliberately skips
        the full :meth:`decompose`."""
        if not 0 <= lbn < self._capacity:
            raise ValueError(f"LBN {lbn} outside device (0..{self._capacity - 1})")
        return lbn // self._sectors_per_cylinder

    def lbn(self, address: SectorAddress) -> int:
        """Inverse of :meth:`decompose`."""
        if address.cylinder >= self.num_cylinders:
            raise ValueError(f"cylinder out of range: {address}")
        if address.track >= self.tracks_per_cylinder:
            raise ValueError(f"track out of range: {address}")
        if address.row >= self._rows_per_track:
            raise ValueError(f"row out of range: {address}")
        if address.slot >= self._sectors_per_row:
            raise ValueError(f"slot out of range: {address}")
        return (
            address.cylinder * self._sectors_per_cylinder
            + address.track * self._sectors_per_track
            + address.row * self._sectors_per_row
            + address.slot
        )

    # -- physical coordinates -------------------------------------------- #

    def x_of_cylinder(self, cylinder: int) -> float:
        """Sled X offset (meters, from center) that places the tips over
        ``cylinder``."""
        if not 0 <= cylinder < self.num_cylinders:
            raise ValueError(f"cylinder {cylinder} out of range")
        bit_offset = cylinder - (self.num_cylinders - 1) / 2.0
        return bit_offset * self.params.bit_width

    def cylinder_of_x(self, x: float) -> int:
        """Nearest cylinder for a sled X offset (inverse of
        :meth:`x_of_cylinder`, clamped to the media)."""
        bit_offset = x / self.params.bit_width + (self.num_cylinders - 1) / 2.0
        return max(0, min(self.num_cylinders - 1, round(bit_offset)))

    def row_span_y(self, row: int) -> tuple:
        """(y_low, y_high) sled offsets bounding tip-sector row ``row``.

        The sled must traverse this whole span, servo included, to transfer
        the row.
        """
        if not 0 <= row < self._rows_per_track:
            raise ValueError(f"row {row} out of range")
        bits = self.params.tip_sector_bits
        half = self.params.bits_per_tip_region_y / 2.0
        low_bit = self._guard_bits + row * bits
        y_low = (low_bit - half) * self.params.bit_width
        y_high = (low_bit + bits - half) * self.params.bit_width
        return (y_low, y_high)

    # -- request span ------------------------------------------------------ #

    def rows_touched(self, lbn: int, sectors: int) -> int:
        """Number of distinct tip-sector rows a request covers."""
        if sectors < 1:
            raise ValueError(f"non-positive request size: {sectors}")
        first = self.decompose(lbn)
        last = self.decompose(lbn + sectors - 1)
        first_row_index = (
            first.cylinder * self.tracks_per_cylinder + first.track
        ) * self._rows_per_track + first.row
        last_row_index = (
            last.cylinder * self.tracks_per_cylinder + last.track
        ) * self._rows_per_track + last.row
        return last_row_index - first_row_index + 1

    def segments(self, lbn: int, sectors: int) -> list:
        """Split a request into per-track segments.

        Returns a list of ``(cylinder, track, first_row, last_row)`` tuples
        in LBN order; each segment is transferable in a single sled pass.
        """
        return list(self.segments_tuple(lbn, sectors))

    def segments_tuple(self, lbn: int, sectors: int) -> tuple:
        """:meth:`segments` as an immutable tuple (the device model's
        multi-segment and unidirectional plans walk this).

        Works in plain integer arithmetic rather than through
        :meth:`decompose`, skipping the per-segment :class:`SectorAddress`
        construction and its validation; every derived coordinate here is
        exact integer division.
        """
        if sectors < 1:
            raise ValueError(f"non-positive request size: {sectors}")
        if lbn < 0:
            raise ValueError(f"LBN {lbn} outside device (0..{self._capacity - 1})")
        if lbn + sectors > self._capacity:
            raise ValueError("request exceeds device capacity")
        per_track = self._sectors_per_track
        per_row = self._sectors_per_row
        tracks_per_cyl = self.params.tracks_per_cylinder
        result = []
        remaining = sectors
        # Track-linear index: tracks are the segment unit (one sled pass).
        track_index, offset = divmod(lbn, per_track)
        while remaining > 0:
            take = per_track - offset
            if take > remaining:
                take = remaining
            cylinder, track = divmod(track_index, tracks_per_cyl)
            first_row = offset // per_row
            last_row = (offset + take - 1) // per_row
            result.append((cylinder, track, first_row, last_row))
            remaining -= take
            track_index += 1
            offset = 0
        return tuple(result)
