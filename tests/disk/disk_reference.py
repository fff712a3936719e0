"""A plain disk model: the oracle the memoized ``DiskDevice`` must match.

:class:`ReferenceDisk` re-derives each request's per-track split, every
segment's sector angle and every seek from the :class:`DiskParameters` on
each call, with the device model's arithmetic in the device model's
operation order, and caches nothing: no profile memo, no seek table, and
linear zone scans instead of bisection.  Anything the production device
computes differently from it is a bug in the optimized path.
"""

import math

from repro.sim.request import AccessResult, IOKind


class ReferenceDisk:
    def __init__(self, params):
        self.params = params
        self.cylinder = 0
        self.surface = 0
        self.last_lbn = 0
        self.zone_start = []
        lbn = 0
        for zone in params.zones:
            self.zone_start.append(lbn)
            lbn += zone.cylinders * zone.sectors_per_track * params.surfaces
        self.capacity_sectors = lbn

    def zone(self, cylinder):
        for index, zone in enumerate(self.params.zones):
            if zone.first_cylinder <= cylinder <= zone.last_cylinder:
                return index, zone
        raise ValueError(f"cylinder {cylinder} out of range")

    def lbn_of(self, cylinder, surface, sector):
        index, zone = self.zone(cylinder)
        per_cylinder = zone.sectors_per_track * self.params.surfaces
        local = cylinder - zone.first_cylinder
        return (self.zone_start[index] + local * per_cylinder
                + surface * zone.sectors_per_track + sector)

    def segments(self, lbn, sectors):
        """``(cylinder, surface, sector, count)`` per track, in LBN order."""
        if sectors < 1 or lbn < 0 or lbn + sectors > self.capacity_sectors:
            raise ValueError(f"request ({lbn}, {sectors}) is off the disk")
        result = []
        while sectors > 0:
            index = max(i for i, s in enumerate(self.zone_start) if s <= lbn)
            zone = self.params.zones[index]
            spt = zone.sectors_per_track
            local, rem = divmod(lbn - self.zone_start[index],
                                spt * self.params.surfaces)
            surface, sector = divmod(rem, spt)
            take = min(sectors, spt - sector)
            result.append((zone.first_cylinder + local, surface, sector, take))
            lbn += take
            sectors -= take
        return result

    def sector_angle(self, cylinder, surface, sector):
        params = self.params
        _, zone = self.zone(cylinder)
        spt = zone.sectors_per_track
        rev = params.revolution_time
        track_skew = math.ceil(params.head_switch_time / rev * spt)
        cyl_skew = math.ceil(params.seek_curve.time(1) / rev * spt)
        per_cylinder_skew = (params.surfaces - 1) * track_skew + cyl_skew
        offset = ((cylinder - zone.first_cylinder) * per_cylinder_skew
                  + surface * track_skew) % spt
        return ((offset + sector) % spt) / spt

    def latency(self, segment, at_time):
        rev = self.params.revolution_time
        head_angle = (at_time / rev) % 1.0
        return ((self.sector_angle(*segment[:3]) - head_angle) % 1.0) * rev

    def seek(self, segment, kind):
        distance = abs(segment[0] - self.cylinder)
        seek = self.params.seek_curve.time(distance)
        if distance == 0 and segment[1] != self.surface:
            seek += self.params.head_switch_time
        if kind is IOKind.WRITE:
            seek += self.params.write_settle_time
        return seek

    def estimate_positioning(self, request, now=0.0):
        first = self.segments(request.lbn, request.sectors)[0]
        seek = self.seek(first, request.kind)
        return seek + self.latency(first, now + seek)

    def service(self, request, now=0.0):
        params = self.params
        segments = self.segments(request.lbn, request.sectors)
        seek = self.seek(segments[0], request.kind)
        time = now + seek
        latency_total = transfer_total = switch_total = 0.0
        for index, segment in enumerate(segments):
            cylinder, surface, _, count = segment
            if index > 0 and cylinder != self.cylinder:
                step = params.seek_curve.time(abs(cylinder - self.cylinder))
                time += step
                switch_total += step
            elif index > 0 and surface != self.surface:
                time += params.head_switch_time
                switch_total += params.head_switch_time
            latency = self.latency(segment, time)
            time += latency
            latency_total += latency
            _, zone = self.zone(cylinder)
            transfer = count / zone.sectors_per_track * params.revolution_time
            time += transfer
            transfer_total += transfer
            self.cylinder, self.surface = cylinder, surface
        self.last_lbn = request.lbn + request.sectors - 1
        return AccessResult(
            total=time - now,
            seek_x=seek,
            rotational_latency=latency_total,
            transfer=transfer_total,
            turnarounds=switch_total,
            bits_accessed=request.sectors * params.sector_bytes * 8,
        )
