"""Float-coordinate reference for the MEMS device's access arithmetic.

:class:`ReferenceMEMS` prices requests the way the device model did before
its oracle moved onto cylinder and row indices: every request resolves to
a profile of sled coordinates (:func:`_build_profile`, from the geometry's
``segments_tuple``, ``x_of_cylinder`` and ``row_span_y``), and every seek
and settle is computed on those floats by an uncached
:class:`~repro.mems.SeekPlanner`, the settle by its half-bit threshold.
Each expression keeps the device's operation order, so the device must
match it bit for bit, signed zeros included.
"""

import math
from typing import NamedTuple, Tuple

from repro.mems import MEMSGeometry, SeekPlanner, SledState
from repro.sim import AccessResult


class Profile(NamedTuple):
    """Geometry of one ``(lbn, sectors)`` request, independent of the sled."""

    segments: Tuple[Tuple[int, int, int, int], ...]
    x_target: float
    """Sled X offset of the first segment's cylinder."""
    y_first_low: float
    """Low edge of the first row of the request's first segment."""
    y_first_high: float
    """High edge of the last row of the request's first segment."""
    transfer_time: float
    """Media transfer time over all segments (rows x tip-sector time)."""


def _build_profile(
    geometry: MEMSGeometry, tip_sector_time: float, lbn: int, sectors: int
) -> Profile:
    """Resolve the state-independent geometry of one request."""
    segments = geometry.segments_tuple(lbn, sectors)
    first_cyl, _, first_row, last_row = segments[0]
    transfer_time = 0.0
    for segment in segments:
        transfer_time += (segment[3] - segment[2] + 1) * tip_sector_time
    return Profile(
        segments=segments,
        x_target=geometry.x_of_cylinder(first_cyl),
        y_first_low=geometry.row_span_y(first_row)[0],
        y_first_high=geometry.row_span_y(last_row)[1],
        transfer_time=transfer_time,
    )


class ReferenceMEMS:
    """The MEMS device's service and estimate arithmetic on sled floats."""

    def __init__(self, params) -> None:
        self.params = params
        self.geometry = MEMSGeometry(params)
        self.planner = SeekPlanner(params, cache_size=0)
        self.sled_state = SledState(
            x=self.geometry.x_of_cylinder(0),
            y=self.geometry.row_span_y(0)[0],
            vy=0.0,
        )
        self.current_cylinder = 0
        self.last_lbn = 0

    def profile(self, lbn: int, sectors: int) -> Profile:
        return _build_profile(
            self.geometry, self.params.tip_sector_time, lbn, sectors
        )

    def estimate_positioning(
        self, lbn: int, sectors: int, limit: float = math.inf
    ) -> float:
        """max(X seek + settle, cheaper Y seek); the Y floor alone once it
        exceeds ``limit``."""
        planner = self.planner
        state = self.sled_state
        profile = self.profile(lbn, sectors)
        y_floor = planner.y_seek_time(state.y, state.vy, profile.y_first_low, +1)
        if self.params.bidirectional_access:
            reverse = planner.y_seek_time(
                state.y, state.vy, profile.y_first_high, -1
            )
            if reverse < y_floor:
                y_floor = reverse
        if y_floor > limit:
            return y_floor
        x_time, settle = planner.x_seek_and_settle(state.x, profile.x_target)
        x_component = x_time + settle
        return x_component if x_component > y_floor else y_floor

    def stop_sled(self) -> float:
        stop = self.planner.kinematics.stop(self.sled_state.y, self.sled_state.vy)
        self.sled_state = SledState(x=self.sled_state.x, y=stop.position, vy=0.0)
        return stop.time

    def service(self, lbn: int, sectors: int) -> AccessResult:
        profile = self.profile(lbn, sectors)
        if len(profile.segments) == 1 and self.params.bidirectional_access:
            return self._single_pass(lbn, sectors, profile)
        directions = (+1, -1) if self.params.bidirectional_access else (+1,)
        plan = min(  # the first of equal totals: ties go to +1
            (
                self._plan_for_direction(sectors, profile.segments, direction)
                for direction in directions
            ),
            key=_plan_total,
        )
        positioning, transfer, boundary, end_state, end_cylinder, bits = plan
        self.sled_state = end_state
        self.current_cylinder = end_cylinder
        self.last_lbn = lbn + sectors - 1
        return AccessResult(
            total=_plan_total(plan),
            seek_x=positioning.x_time,
            seek_y=positioning.y_time,
            settle=positioning.settle,
            transfer=transfer,
            turnarounds=boundary,
            bits_accessed=bits,
        )

    def _single_pass(self, lbn: int, sectors: int, profile: Profile) -> AccessResult:
        """One pass over one track: the cheaper Y approach against the
        shared X component, ties to +1."""
        planner = self.planner
        state = self.sled_state
        x_time, settle = planner.x_seek_and_settle(state.x, profile.x_target)
        x_component = x_time + settle
        forward = planner.y_seek_time(state.y, state.vy, profile.y_first_low, +1)
        reverse = planner.y_seek_time(state.y, state.vy, profile.y_first_high, -1)
        fwd_total = max(x_component, forward)
        rev_total = max(x_component, reverse)
        if fwd_total <= rev_total:
            direction, y_time, end_y, positioning = (
                +1, forward, profile.y_first_high, fwd_total
            )
        else:
            direction, y_time, end_y, positioning = (
                -1, reverse, profile.y_first_low, rev_total
            )
        total = positioning + profile.transfer_time + 0.0
        self.sled_state = SledState(
            x=profile.x_target,
            y=end_y,
            vy=direction * self.params.access_velocity,
        )
        self.current_cylinder = profile.segments[0][0]
        self.last_lbn = lbn + sectors - 1
        return AccessResult(
            total=total,
            seek_x=x_time,
            seek_y=y_time,
            settle=settle,
            transfer=profile.transfer_time,
            turnarounds=0.0,
            bits_accessed=sectors * self.params.tips_per_sector
            * self.params.tip_sector_bits,
        )

    def _plan_for_direction(self, sectors, segments, direction):
        """``(positioning, transfer, boundary, end state, end cylinder,
        bits)`` of the pass sequence that starts moving ``direction``."""
        geometry = self.geometry
        params = self.params
        planner = self.planner
        v = params.access_velocity
        first_cyl = segments[0][0]
        y_start, _ = self._pass_endpoints(segments[0], direction)
        positioning = planner.plan(
            self.sled_state, geometry.x_of_cylinder(first_cyl), y_start, direction
        )
        transfer_time = 0.0
        boundary_time = 0.0
        current_direction = direction
        current_y = y_start
        current_cyl = first_cyl
        for index, segment in enumerate(segments):
            if index > 0:
                previous_direction = current_direction
                if params.bidirectional_access:
                    current_direction = -current_direction
                start, _ = self._pass_endpoints(segment, current_direction)
                switch_cost = planner.y_seek_time(
                    current_y, previous_direction * v, start, current_direction
                )
                if segment[0] != current_cyl:
                    x_move = planner.x_seek_time(
                        geometry.x_of_cylinder(current_cyl),
                        geometry.x_of_cylinder(segment[0]),
                    )
                    switch_cost = max(switch_cost, x_move)
                    current_cyl = segment[0]
                boundary_time += switch_cost
                current_y = start
            transfer_time += (segment[3] - segment[2] + 1) * params.tip_sector_time
            _, current_y = self._pass_endpoints(segment, current_direction)
        end_state = SledState(
            x=geometry.x_of_cylinder(current_cyl),
            y=current_y,
            vy=current_direction * v,
        )
        bits = sectors * params.tips_per_sector * params.tip_sector_bits
        return (
            positioning, transfer_time, boundary_time, end_state, current_cyl,
            bits,
        )

    def _pass_endpoints(self, segment, direction):
        _, _, first_row, last_row = segment
        low = self.geometry.row_span_y(first_row)[0]
        high = self.geometry.row_span_y(last_row)[1]
        return (low, high) if direction == +1 else (high, low)


def _plan_total(plan) -> float:
    positioning, transfer, boundary = plan[:3]
    return positioning.total + transfer + boundary
