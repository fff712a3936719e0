"""The MEMS-based storage device model, behind the disk-like interface.

Combines the Table 1 parameters, the LBN geometry (§2.2), and the sled
kinematics (§2.3) into a :class:`repro.sim.StorageDevice`:

* requests are decomposed into per-track *segments*, each transferable in a
  single constant-velocity sled pass over consecutive tip-sector rows;
* positioning overlaps the X seek (plus settle) with the Y seek and takes
  the max (§2.4.1);
* the media is readable in both Y directions, and the device picks the
  direction that minimizes total service time;
* segment boundaries (track or cylinder switches) cost a turnaround plus any
  dead travel back to the next segment's starting edge; single-cylinder X
  moves during a transfer hide under the turnaround (§2.3: "the turnaround
  time is expected to dominate any additional activity");
* the sled exits an access at access velocity, which the next positioning
  plan exploits (sequential requests keep streaming without repositioning).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

from repro.mems.geometry import MEMSGeometry
from repro.mems.parameters import DEFAULT_PARAMETERS, MEMSParameters
from repro.mems.seek import (
    PositioningPlan,
    SeekPlanner,
    SledState,
    x_seek_lower_bounds,
)
from repro.sim.device import StorageDevice
from repro.sim.request import AccessResult, Request

_X_SEEK_MEMO_LIMIT = 1 << 18
"""Entry cap on a parameter set's X-seek memo (cleared when reached)."""


class _Components(NamedTuple):
    """The sled-state-free model pieces of one parameter set."""

    geometry: MEMSGeometry
    planner: SeekPlanner
    x_offsets: Tuple[float, ...]
    """Sled X offset of each cylinder's centre (``x_of_cylinder``)."""
    row_low: Tuple[float, ...]
    """Low Y edge of each tip-sector row (``row_span_y(row)[0]``)."""
    row_high: Tuple[float, ...]
    """High Y edge of each tip-sector row (``row_span_y(row)[1]``)."""
    x_seek: Callable[[int, int], float]
    """Rest-to-rest X seek time between two cylinder centres."""
    x_memo: Optional[dict]
    """``x_seek``'s memo, ``c0 * num_cylinders + c1`` -> seek time (the
    pair mirrored onto ``c0 <= c1``); ``None`` when it prices unmemoized."""


def _components(params: MEMSParameters, memoize: bool) -> _Components:
    """Build one parameter set's geometry, planner, coordinate tables and
    X-seek function.

    Every oracle input is a small integer (a cylinder, a tip-sector row),
    so the coordinates are tables indexed by them and the X seek, the only
    costly maneuver with integer endpoints, is memoized per cylinder pair.
    """
    geometry = MEMSGeometry(params)
    planner = SeekPlanner(params, cache_size=(1 << 18) if memoize else 0)
    count = geometry.num_cylinders
    x_offsets = tuple(map(geometry.x_of_cylinder, range(count)))
    spans = list(map(geometry.row_span_y, range(geometry.rows_per_track)))
    row_low = tuple(low for low, _ in spans)
    row_high = tuple(high for _, high in spans)
    seek_time = planner.kinematics.seek_time
    memo = None
    if memoize:
        memo = {}
        memo_get = memo.get
        last = count - 1

        def x_seek(c0: int, c1: int) -> float:
            # Mirror a leftward seek onto c0 <= c1: x_offsets[last - c] is
            # exactly -x_offsets[c], and the kinematics mirror a leftward
            # seek through that same negation, so both orders share an
            # entry without changing a bit of the result.
            if c1 < c0:
                c0 = last - c0
                c1 = last - c1
            key = c0 * count + c1
            seek = memo_get(key)
            if seek is None:
                if len(memo) >= _X_SEEK_MEMO_LIMIT:
                    memo.clear()
                seek = memo[key] = seek_time(x_offsets[c0], x_offsets[c1])
            return seek

    else:

        def x_seek(c0: int, c1: int) -> float:
            return seek_time(x_offsets[c0], x_offsets[c1])

    return _Components(
        geometry, planner, x_offsets, row_low, row_high, x_seek, memo
    )


@functools.lru_cache(maxsize=1)
def _shared_components(params: MEMSParameters) -> _Components:
    """The memoizing :func:`_components` of ``params``, shared by devices.

    None of them carries sled state, which lives on the device, so a
    parameter sweep that builds a fresh ``MEMSDevice`` per point starts
    every point with the warm X-seek memo and Y-seek cache.  Only
    memoizing devices share (``memoize=False`` builds private, uncached
    components so the benchmark baseline stays honest).

    Only the parameter set in use is kept, because pool workers outlive the
    sweep that filled their caches.  A caller that needs several sets should
    finish one before starting the next (figure 8 maps each settle setting
    separately, figure 9 measures every subregion with one set and then the
    other): switching sets drops the warm caches.
    """
    return _components(params, memoize=True)


@dataclass(frozen=True, slots=True)
class _AccessPlan:
    """Fully-resolved service plan for one request."""

    positioning: PositioningPlan
    transfer_time: float
    boundary_time: float
    end_state: SledState
    end_cylinder: int
    bits_accessed: int

    @property
    def total(self) -> float:
        return self.positioning.total + self.transfer_time + self.boundary_time


class MEMSDevice(StorageDevice):
    """Simulation model of one MEMS-based storage device (media sled).

    Args:
        params: Device design point; defaults to the paper's Table 1.
        memoize: Share the parameter set's X-seek memo and Y-seek cache
            with every other memoizing device, which accelerates ``service``
            and the SPTF ``estimate_positioning`` oracle.  Results are
            identical either way (the memoized seeks are pure functions of
            their endpoints); the benchmark harness passes ``False`` to
            measure the unmemoized baseline.  Nothing keyed on the sled
            state is memoized: every ``service`` and estimate is computed
            from the current state.

    Example:
        >>> device = MEMSDevice()
        >>> device.capacity_sectors
        6750000
        >>> from repro.sim import Request, IOKind
        >>> access = device.service(Request(0.0, lbn=0, sectors=8,
        ...                                 kind=IOKind.READ))
        >>> 0.0001 < access.total < 0.002
        True
    """

    def __init__(
        self, params: Optional[MEMSParameters] = None, memoize: bool = True
    ) -> None:
        self.params = params if params is not None else DEFAULT_PARAMETERS
        parts = (
            _shared_components(self.params)
            if memoize
            else _components(self.params, memoize=False)
        )
        self.geometry = parts.geometry
        self.planner = parts.planner
        self._x_offsets = parts.x_offsets
        self._row_low = parts.row_low
        self._row_high = parts.row_high
        self._x_seek = parts.x_seek
        self._y_rightward = parts.planner._y_rightward
        # The sled starts at rest over LBN 0's cylinder, at the top edge.
        # It parks on cylinder centres between accesses, so its X is always
        # ``_x_offsets[_cylinder]`` and the cylinder can key the X seek.
        self._state = SledState(x=self._x_offsets[0], y=self._row_low[0], vy=0.0)
        self._cylinder = 0
        self._last_lbn = 0
        self._directions = (+1, -1) if self.params.bidirectional_access else (+1,)
        self._bidirectional = self.params.bidirectional_access
        # Derived parameter values the service hot path would otherwise
        # recompute through a property chain on every call.
        geometry = self.geometry
        self._capacity = geometry.capacity_sectors
        self._sectors_per_track = geometry.sectors_per_track
        self._sectors_per_row = geometry.sectors_per_row
        self._tracks_per_cylinder = geometry.tracks_per_cylinder
        self._settle = self.params.settle_time
        self._access_velocity = self.params.access_velocity
        self._tip_sector_time = self.params.tip_sector_time
        self._bits_per_sector = (
            self.params.tips_per_sector * self.params.tip_sector_bits
        )
        self._lower_bounds: Optional[Tuple[float, ...]] = None

    @property
    def positioning_lower_bounds(self) -> Tuple[float, ...]:
        """Dense admissible per-cylinder-delta lower bounds on X seek +
        settle (see :func:`repro.mems.seek.x_seek_lower_bounds`).

        Built lazily on first access — schedulers that never make a deep
        SPTF selection (shallow queues, non-SPTF policies) pay nothing — and
        memoized at module level, so devices sharing a parameter set share
        one table.  :func:`repro.core.scheduling.sptf
        .device_supports_pruning` detects the oracle from the *class*
        attribute, so capability probing does not trigger the build.
        """
        bounds = self._lower_bounds
        if bounds is None:
            bounds = self._lower_bounds = x_seek_lower_bounds(self.params)
        return bounds

    # -- StorageDevice interface ------------------------------------------ #

    @property
    def capacity_sectors(self) -> int:
        return self._capacity

    @property
    def last_lbn(self) -> int:
        return self._last_lbn

    @property
    def sled_state(self) -> SledState:
        """Current mechanical state (read-only view)."""
        return self._state

    @property
    def current_cylinder(self) -> int:
        """Cylinder the tips rest over (the sled parks on cylinder centers
        between accesses)."""
        return self._cylinder

    def request_cylinder(self, request: Request) -> int:
        """Cylinder of ``request``'s first segment — exactly the cylinder
        :meth:`estimate_positioning` seeks to, which SPTF pairs with
        :attr:`positioning_lower_bounds`."""
        return self.geometry.cylinder_of_lbn(request.lbn)

    def service(self, request: Request, now: float = 0.0) -> AccessResult:
        lbn = request.lbn
        sectors = request.sectors
        if lbn < 0 or sectors < 1 or lbn + sectors > self._capacity:
            self.validate(request)
        per_track = self._sectors_per_track
        track, offset = divmod(lbn, per_track)
        end = offset + sectors
        if end > per_track or not self._bidirectional:
            return self._serve_plan(request, now)
        # Single-pass request (the overwhelmingly common case for the
        # paper's workloads): both directions transfer the same rows in the
        # same time with no boundary costs, so the plan reduces to pricing
        # the two Y approaches against the shared X component and
        # assembling the result inline — no ``_AccessPlan`` object, no
        # per-segment loop.  Each arithmetic step replays the general
        # path's expression order, so results are bit-identical.
        per_row = self._sectors_per_row
        first_row = offset // per_row
        last_row = (end - 1) // per_row
        cylinder = track // self._tracks_per_cylinder
        x_time = self._x_seek(self._cylinder, cylinder)
        settle = 0.0 if cylinder == self._cylinder else self._settle
        x_component = x_time + settle
        state = self._state
        y_low = self._row_low[first_row]
        y_high = self._row_high[last_row]
        y_rightward = self._y_rightward
        forward = y_rightward(state.y, state.vy, y_low)
        reverse = y_rightward(-state.y, -state.vy, -y_high)
        # Ties go to +1, matching ``min`` over the (+1, −1) plan list; the
        # branches replay ``max`` (second argument wins only when strictly
        # greater) without the builtin calls.
        fwd_total = forward if forward > x_component else x_component
        rev_total = reverse if reverse > x_component else x_component
        if fwd_total <= rev_total:
            direction = +1
            y_time = forward
            end_y = y_high
            positioning_total = fwd_total
        else:
            direction = -1
            y_time = reverse
            end_y = y_low
            positioning_total = rev_total
        transfer_time = (last_row - first_row + 1) * self._tip_sector_time
        total = positioning_total + transfer_time + 0.0
        bits = sectors * self._bits_per_sector
        self._state = SledState(
            x=self._x_offsets[cylinder],
            y=end_y,
            vy=direction * self._access_velocity,
        )
        self._cylinder = cylinder
        self._last_lbn = lbn + sectors - 1
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                {
                    "kind": "dev.access",
                    "t": now,
                    "device": "mems",
                    "rid": request.request_id,
                    "lbn": lbn,
                    "sectors": sectors,
                    "io": request.kind.value,
                    "seek_x": x_time,
                    "seek_y": y_time,
                    "settle": settle,
                    "rotational_latency": 0.0,
                    "transfer": transfer_time,
                    "turnarounds": 0.0,
                    "positioning": positioning_total,
                    "total": total,
                    "bits": bits,
                    "cylinder": cylinder,
                }
            )
        return AccessResult(
            total=total,
            seek_x=x_time,
            seek_y=y_time,
            settle=settle,
            transfer=transfer_time,
            turnarounds=0.0,
            bits_accessed=bits,
        )

    def estimate_positioning(
        self, request: Request, now: float = 0.0, limit: float = math.inf
    ) -> float:
        """Positioning-only oracle for SPTF: max(X seek + settle, Y seek),
        the Y seek taken in the cheaper access direction.

        Avoids the full multi-segment plan: only the first segment matters
        for the pre-transfer delay, and its cylinder and rows are a few
        integer divisions of the request address.  The request is
        bounds-checked first, with :meth:`validate`'s messages.

        The delay is exact whenever it is at most ``limit``; above it the
        result is any value in ``(limit, exact]``.  The two Y seeks are
        priced first, and when the cheaper one already exceeds ``limit``
        it is returned as is, skipping the X seek.
        """
        lbn = request.lbn
        sectors = request.sectors
        if lbn < 0 or sectors < 1 or lbn + sectors > self._capacity:
            self.validate(request)
        per_track = self._sectors_per_track
        track, offset = divmod(lbn, per_track)
        end = offset + sectors
        if end > per_track:
            end = per_track  # the first segment ends with its track
        state = self._state
        y_rightward = self._y_rightward
        per_row = self._sectors_per_row
        y_floor = y_rightward(state.y, state.vy, self._row_low[offset // per_row])
        if self._bidirectional:
            reverse = y_rightward(
                -state.y, -state.vy, -self._row_high[(end - 1) // per_row]
            )
            if reverse < y_floor:
                y_floor = reverse
        if y_floor > limit:
            return y_floor
        cylinder = track // self._tracks_per_cylinder
        x_component = self._x_seek(self._cylinder, cylinder) + (
            0.0 if cylinder == self._cylinder else self._settle
        )
        # min over directions of max(x, y) is max(x, min over directions).
        return x_component if x_component > y_floor else y_floor

    # -- other controls ----------------------------------------------------- #

    def stop_sled(self) -> float:
        """Bring the sled to rest (power management's idle entry, §7).

        Returns the time the stop takes; the sled state is updated to the
        rest position.
        """
        stop = self.planner.kinematics.stop(self._state.y, self._state.vy)
        self._state = SledState(x=self._state.x, y=stop.position, vy=0.0)
        return stop.time

    # -- planning ------------------------------------------------------------ #

    def _serve_plan(self, request: Request, now: float) -> AccessResult:
        """Service a multi-segment or unidirectional request through its
        full per-segment plan."""
        segments = self.geometry.segments_tuple(request.lbn, request.sectors)
        plans = [
            self._plan_for_direction(request, segments, direction)
            for direction in self._directions
        ]
        plan = min(plans, key=lambda p: p.total)
        self._state = plan.end_state
        self._cylinder = plan.end_cylinder
        self._last_lbn = request.last_lbn
        tracer = self.tracer
        if tracer.enabled:
            positioning = plan.positioning
            tracer.emit(
                {
                    "kind": "dev.access",
                    "t": now,
                    "device": "mems",
                    "rid": request.request_id,
                    "lbn": request.lbn,
                    "sectors": request.sectors,
                    "io": request.kind.value,
                    "seek_x": positioning.x_time,
                    "seek_y": positioning.y_time,
                    "settle": positioning.settle,
                    "rotational_latency": 0.0,
                    "transfer": plan.transfer_time,
                    "turnarounds": plan.boundary_time,
                    # X (plus settle) overlaps Y, so the serialized
                    # positioning component is their max, not their sum.
                    "positioning": positioning.total,
                    "total": plan.total,
                    "bits": plan.bits_accessed,
                    # Sled X position after the access, in cylinders — the
                    # position time-series in repro.obs.analyze.
                    "cylinder": self._cylinder,
                }
            )
        return AccessResult(
            total=plan.total,
            seek_x=plan.positioning.x_time,
            seek_y=plan.positioning.y_time,
            settle=plan.positioning.settle,
            transfer=plan.transfer_time,
            turnarounds=plan.boundary_time,
            bits_accessed=plan.bits_accessed,
        )

    def _plan_for_direction(
        self,
        request: Request,
        segments: Sequence[Tuple[int, int, int, int]],
        direction: int,
    ) -> _AccessPlan:
        params = self.params
        planner = self.planner
        v = params.access_velocity

        first_cyl = segments[0][0]
        y_start, _ = self._pass_endpoints(segments[0], direction)
        state = self._state
        positioning = PositioningPlan(
            x_time=self._x_seek(self._cylinder, first_cyl),
            y_time=planner.y_seek_time(state.y, state.vy, y_start, direction),
            settle=0.0 if first_cyl == self._cylinder else self._settle,
            direction=direction,
        )

        transfer_time = 0.0
        boundary_time = 0.0
        current_direction = direction
        current_y = y_start
        current_cyl = first_cyl

        for index, segment in enumerate(segments):
            if index > 0:
                previous_direction = current_direction
                if self._bidirectional:
                    current_direction = -current_direction
                start, _ = self._pass_endpoints(segment, current_direction)
                # The sled exits the previous pass at access velocity and
                # must cross the next pass's entry edge at access velocity
                # in the opposite direction: exactly a Y repositioning
                # maneuver (a turnaround when the edges coincide, a
                # bang-bang travel-and-reverse otherwise).
                switch_cost = planner.y_seek_time(
                    current_y, previous_direction * v, start, current_direction
                )
                if segment[0] != current_cyl:
                    x_move = self._x_seek(current_cyl, segment[0])
                    switch_cost = max(switch_cost, x_move)
                    current_cyl = segment[0]
                boundary_time += switch_cost
                current_y = start
            transfer_time += (segment[3] - segment[2] + 1) * params.tip_sector_time
            _, current_y = self._pass_endpoints(segment, current_direction)

        bits = request.sectors * self._bits_per_sector
        end_state = SledState(
            x=self._x_offsets[current_cyl],
            y=current_y,
            vy=current_direction * v,
        )
        return _AccessPlan(
            positioning=positioning,
            transfer_time=transfer_time,
            boundary_time=boundary_time,
            end_state=end_state,
            end_cylinder=current_cyl,
            bits_accessed=bits,
        )

    def _pass_endpoints(
        self, segment: Tuple[int, int, int, int], direction: int
    ) -> Tuple[float, float]:
        """(start_y, end_y) of the sled pass that transfers ``segment``.

        A +1 pass enters at the low edge of the first row and exits at the
        high edge of the last; a −1 pass is the reverse.
        """
        _, _, first_row, last_row = segment
        low = self._row_low[first_row]
        high = self._row_high[last_row]
        if direction == +1:
            return (low, high)
        return (high, low)
