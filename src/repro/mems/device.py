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
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.mems.geometry import MEMSGeometry
from repro.mems.parameters import DEFAULT_PARAMETERS, MEMSParameters
from repro.mems.seek import (
    PositioningPlan,
    SeekPlanner,
    SledState,
    x_seek_lower_bounds,
)
from repro.nputil import get_numpy
from repro.sim.device import StorageDevice
from repro.sim.request import AccessResult, Request


class _RequestProfile(NamedTuple):
    """Geometry of one (lbn, sectors) request, independent of sled state.

    Everything here is a pure function of the request address, so the device
    memoizes it: under SPTF a queued request is re-priced at every dispatch,
    and re-deriving these coordinates dominated the oracle's cost.  On
    cache-hostile streams (a fleet's unique-address shards) one is built per
    request, so construction is a NamedTuple, not a dataclass.
    """

    segments: Tuple[Tuple[int, int, int, int], ...]
    x_target: float
    """Sled X offset of the first segment's cylinder."""
    y_first_low: float
    """Low edge of the first row of the request's first segment."""
    y_first_high: float
    """High edge of the last row of the request's first segment."""
    first_cylinder: int
    """Cylinder of the first segment (where positioning seeks to)."""
    transfer_time: float
    """Media transfer time over all segments (rows x tip-sector time)."""
    rows: int
    """Total tip-sector rows the request covers."""


def _build_profile(
    geometry: MEMSGeometry, tip_sector_time: float, lbn: int, sectors: int
) -> _RequestProfile:
    """Resolve the state-independent geometry of one request."""
    segments = geometry.segments_tuple(lbn, sectors)
    first_cyl, _, first_row, last_row = segments[0]
    # Accumulated exactly as the per-direction planning loop used to, so
    # the precomputed totals are bit-identical to the old per-call sums.
    transfer_time = 0.0
    rows_total = 0
    for segment in segments:
        rows = segment[3] - segment[2] + 1
        rows_total += rows
        transfer_time += rows * tip_sector_time
    return _RequestProfile(
        segments=segments,
        x_target=geometry.x_of_cylinder(first_cyl),
        y_first_low=geometry.row_span_y(first_row)[0],
        y_first_high=geometry.row_span_y(last_row)[1],
        first_cylinder=first_cyl,
        transfer_time=transfer_time,
        rows=rows_total,
    )


_PROFILE_CACHE_LIMIT = 1 << 17
"""Entry cap on the shared request-profile memo (cleared when exceeded).

Large enough that one fleet member's whole shard (or any sweep point's
stream) stays resident; wholesale clearing keeps the worst case bounded
without lru_cache's per-hit bookkeeping."""


@functools.lru_cache(maxsize=1)
def _shared_components(params: MEMSParameters):
    """Pure per-parameter-set model components, shared across devices.

    The geometry, the seek planner (with its maneuver caches) and the
    request profile cache are all pure functions of the (frozen, hashable)
    parameter set — none of them carries sled state, which lives on the
    device.  Sharing them means a parameter sweep that builds a fresh
    ``MEMSDevice`` per point starts every point with warm caches.  Only
    memoizing devices share (``memoize=False`` builds private, uncached
    components so the benchmark baseline stays honest).

    Only the parameter set in use is kept, because pool workers outlive the
    sweep that filled their caches.  A caller that needs several sets should
    finish one before starting the next (figure 8 maps each settle setting
    separately, figure 9 measures every subregion with one set and then the
    other): switching sets drops the warm caches.
    """
    geometry = MEMSGeometry(params, cache_size=1 << 16)
    planner = SeekPlanner(params)
    tip_sector_time = params.tip_sector_time

    # A hand-rolled dict memo rather than functools.lru_cache: the columnar
    # ingest path bulk-primes it with vectorized profile construction
    # (:meth:`MEMSDevice.prime_request_profiles`), which an lru_cache cannot
    # accept.  Eviction is clear-on-cap.
    profile_cache: dict = {}
    profile_get = profile_cache.get

    def profile(lbn: int, sectors: int) -> _RequestProfile:
        key = (lbn, sectors)
        hit = profile_get(key)
        if hit is None:
            if len(profile_cache) >= _PROFILE_CACHE_LIMIT:
                profile_cache.clear()
            hit = profile_cache[key] = _build_profile(
                geometry, tip_sector_time, lbn, sectors
            )
        return hit

    return geometry, planner, profile, profile_cache


@dataclass(frozen=True, slots=True)
class _AccessPlan:
    """Fully-resolved service plan for one request."""

    positioning: PositioningPlan
    transfer_time: float
    boundary_time: float
    rows: int
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
        memoize: Enable the geometry and per-request-profile caches that
            accelerate ``service`` and the SPTF ``estimate_positioning``
            oracle.  Results are identical either way (the cached values are
            pure functions of the request address); the benchmark harness
            passes ``False`` to measure the uncached baseline.  Nothing
            keyed on the sled state is memoized: every ``service`` and
            estimate is computed from the current state.

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
        self._memoize = memoize
        if memoize:
            (
                self.geometry,
                self.planner,
                self._profile,
                self._profile_cache,
            ) = _shared_components(self.params)
        else:
            self.geometry = MEMSGeometry(self.params, cache_size=0)
            self.planner = SeekPlanner(self.params)
            self._profile_cache = None
        # The sled starts at rest over LBN 0's cylinder, at the top edge.
        self._state = SledState(
            x=self.geometry.x_of_cylinder(0),
            y=self.geometry.row_span_y(0)[0],
            vy=0.0,
        )
        self._cylinder = 0
        self._last_lbn = 0
        self._directions = (+1, -1) if self.params.bidirectional_access else (+1,)
        self._bidirectional = self.params.bidirectional_access
        # Derived parameter values the service hot path would otherwise
        # recompute through a property chain on every call.
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
        return self.geometry.capacity_sectors

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

    def prime_request_profiles(self, lbns, sectors) -> None:
        """Bulk-build request profiles from column arrays (columnar ingest).

        The engine hands over a :class:`~repro.sim.batch.RequestBatch`'s
        ``lbn``/``sectors`` columns before the event loop starts; every
        single-segment row — the overwhelmingly common case — gets its
        :class:`_RequestProfile` derived in whole-array numpy passes and
        inserted into the shared profile memo, so the per-request scalar
        ``segments_tuple`` walk never runs for them.  Each array expression
        replays the scalar builder's operation order (integer divmods are
        exact; the float coordinate math is IEEE-identical), so a primed
        profile is bit-for-bit the one :func:`_build_profile` would return.

        Rows whose key the memo already holds keep their entry and are not
        rebuilt.  Rows that span a track boundary or fall outside the device
        are left to the scalar path (which raises the exact per-request
        errors for the invalid ones).  A ``memoize=False`` device has no
        cache to prime and returns immediately.
        """
        cache = self._profile_cache
        if cache is None:
            return
        np = get_numpy()
        geometry = self.geometry
        per_track = geometry._sectors_per_track
        per_row = geometry._sectors_per_row
        lbns = np.asarray(lbns, dtype=np.int64)
        secs = np.asarray(sectors, dtype=np.int64)
        track_index, offset = np.divmod(lbns, per_track)
        single = (
            (lbns >= 0)
            & (secs >= 1)
            & (offset + secs <= per_track)
            & (lbns + secs <= geometry.capacity_sectors)
        )
        if cache:
            single &= np.fromiter(
                (key not in cache for key in zip(lbns.tolist(), secs.tolist())),
                dtype=bool,
                count=len(lbns),
            )
        if not bool(np.all(single)):
            if not bool(np.any(single)):
                return
            track_index = track_index[single]
            offset = offset[single]
            lbns = lbns[single]
            secs = secs[single]
        params = self.params
        cylinder, track = np.divmod(track_index, params.tracks_per_cylinder)
        first_row = offset // per_row
        last_row = (offset + secs - 1) // per_row
        rows = last_row - first_row + 1
        bit_width = params.bit_width
        # x_of_cylinder: (cylinder - (C-1)/2) * bit_width, same op order.
        x_target = (cylinder - (geometry.num_cylinders - 1) / 2.0) * bit_width
        # row_span_y edges: low_bit = guard + row*bits, then ± half-region.
        bits = params.tip_sector_bits
        half = params.bits_per_tip_region_y / 2.0
        guard = geometry._guard_bits
        y_low = (guard + first_row * bits - half) * bit_width
        y_high = (guard + last_row * bits + bits - half) * bit_width
        transfer = rows * self._tip_sector_time
        if len(cache) + len(lbns) > _PROFILE_CACHE_LIMIT:
            cache.clear()
        make = _RequestProfile._make
        for lbn, sec, cyl, trk, fr, lr, xt, ylo, yhi, tt, rw in zip(
            lbns.tolist(),
            secs.tolist(),
            cylinder.tolist(),
            track.tolist(),
            first_row.tolist(),
            last_row.tolist(),
            x_target.tolist(),
            y_low.tolist(),
            y_high.tolist(),
            transfer.tolist(),
            rows.tolist(),
        ):
            cache[(lbn, sec)] = make(
                (((cyl, trk, fr, lr),), xt, ylo, yhi, cyl, tt, rw)
            )

    def service(self, request: Request, now: float = 0.0) -> AccessResult:
        # With memoization on the explicit validate is elided, exactly as in
        # :meth:`estimate_positioning`: the engine validates at ingest and
        # the geometry layer re-checks the bounds whenever a profile is
        # derived, so out-of-range requests still raise ``ValueError``.
        if not self._memoize:
            self.validate(request)
        profile = self._profile(request.lbn, request.sectors)
        if len(profile.segments) == 1 and self._bidirectional:
            # Single-pass request (the overwhelmingly common case for the
            # paper's workloads): both directions transfer the same rows in
            # the same time with no boundary costs, so the plan reduces to
            # pricing the two Y approaches against the shared X component
            # and assembling the result inline — no ``_AccessPlan``
            # object, no per-segment loop.  Each arithmetic step replays
            # the general path's expression order, so results are
            # bit-identical.
            planner = self.planner
            state = self._state
            # Mirror to the planner's canonical forms here (negation is
            # exact) and call the cache-backed internals directly, skipping
            # one wrapper frame per maneuver.
            x0 = state.x
            x_target = profile.x_target
            if x_target < x0:
                x_time, settle = planner._x_pair_canonical(-x0, -x_target)
            else:
                x_time, settle = planner._x_pair_canonical(x0, x_target)
            x_component = x_time + settle
            y_rightward = planner._y_rightward
            forward = y_rightward(state.y, state.vy, profile.y_first_low)
            reverse = y_rightward(-state.y, -state.vy, -profile.y_first_high)
            # Ties go to +1, matching ``min`` over the (+1, −1) plan list;
            # the branches replay ``max`` (second argument wins only when
            # strictly greater) without the builtin calls.
            fwd_total = forward if forward > x_component else x_component
            rev_total = reverse if reverse > x_component else x_component
            if fwd_total <= rev_total:
                direction = +1
                y_time = forward
                end_y = profile.y_first_high
                positioning_total = fwd_total
            else:
                direction = -1
                y_time = reverse
                end_y = profile.y_first_low
                positioning_total = rev_total
            transfer_time = profile.transfer_time
            total = positioning_total + transfer_time + 0.0
            bits = request.sectors * self._bits_per_sector
            end_state = SledState(
                x=profile.x_target,
                y=end_y,
                vy=direction * self._access_velocity,
            )
            self._state = end_state
            self._cylinder = profile.first_cylinder
            self._last_lbn = request.lbn + request.sectors - 1
            tracer = self.tracer
            if tracer.enabled:
                tracer.emit(
                    {
                        "kind": "dev.access",
                        "t": now,
                        "device": "mems",
                        "rid": request.request_id,
                        "lbn": request.lbn,
                        "sectors": request.sectors,
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
                        "cylinder": self._cylinder,
                    }
                )
            result = AccessResult(
                total=total,
                seek_x=x_time,
                seek_y=y_time,
                settle=settle,
                transfer=transfer_time,
                turnarounds=0.0,
                bits_accessed=bits,
            )
            return result
        plan = self._best_plan(request)
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

    def estimate_positioning(
        self, request: Request, now: float = 0.0, limit: float = math.inf
    ) -> float:
        """Positioning-only oracle for SPTF: max(X seek + settle, Y seek),
        the Y seek taken in the cheaper access direction.

        Avoids the full multi-segment plan: only the first segment matters
        for the pre-transfer delay.  The request's physical coordinates
        come from the memoized :meth:`_profile`, so repeated pricing of a
        queued request only pays for the (state-dependent, planner-cached)
        seek computations.  With memoization on, the explicit ``validate``
        call is elided: the engine validates every request at ingest, and
        the geometry re-checks the bounds whenever a profile is actually
        derived, so an out-of-range request still raises ``ValueError``.

        The delay is exact whenever it is at most ``limit``; above it the
        result is any value in ``(limit, exact]``.  The two Y seeks are
        priced first, and when the cheaper one already exceeds ``limit``
        it is returned as is, skipping the X seek.
        """
        if not self._memoize:
            self.validate(request)
        planner = self.planner
        state = self._state
        profile = self._profile(request.lbn, request.sectors)
        y_rightward = planner._y_rightward
        y_floor = y_rightward(state.y, state.vy, profile.y_first_low)
        if self._bidirectional:
            reverse = y_rightward(-state.y, -state.vy, -profile.y_first_high)
            if reverse < y_floor:
                y_floor = reverse
        if y_floor > limit:
            return y_floor
        # Same canonical-entry shortcut as the single-pass service path.
        x0 = state.x
        x_target = profile.x_target
        if x_target < x0:
            x_time, settle = planner._x_pair_canonical(-x0, -x_target)
        else:
            x_time, settle = planner._x_pair_canonical(x0, x_target)
        x_component = x_time + settle
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

    def _profile(self, lbn: int, sectors: int) -> _RequestProfile:
        """Resolve the state-independent geometry of one request.

        Memoizing devices shadow this method with the shared per-parameter
        profile cache (see :func:`_shared_components`); this uncached
        fallback serves ``memoize=False`` devices.
        """
        return _build_profile(self.geometry, self._tip_sector_time, lbn, sectors)

    def _best_plan(self, request: Request) -> _AccessPlan:
        profile = self._profile(request.lbn, request.sectors)
        segments = profile.segments
        directions = self._directions
        if len(directions) == 1:
            return self._plan_for_direction(request, segments, directions[0])
        if len(segments) == 1:
            # Single-pass request: both directions transfer the same rows in
            # the same time and incur no boundary costs, so the cheaper
            # direction is decided by positioning alone — price both Y
            # approaches (the X component is shared) and build only the
            # winning plan.  Ties go to +1, matching ``min`` over the
            # (+1, −1) plan list.
            planner = self.planner
            state = self._state
            x_time, settle = planner.x_seek_and_settle(state.x, profile.x_target)
            x_component = x_time + settle
            forward = planner.y_seek_time(
                state.y, state.vy, profile.y_first_low, +1
            )
            reverse = planner.y_seek_time(
                state.y, state.vy, profile.y_first_high, -1
            )
            direction = +1 if max(x_component, forward) <= max(
                x_component, reverse
            ) else -1
            return self._plan_for_direction(request, segments, direction)
        plans = [
            self._plan_for_direction(request, segments, direction)
            for direction in directions
        ]
        return min(plans, key=lambda p: p.total)

    def _plan_for_direction(
        self,
        request: Request,
        segments: Sequence[Tuple[int, int, int, int]],
        direction: int,
    ) -> _AccessPlan:
        geometry = self.geometry
        params = self.params
        v = params.access_velocity

        first_cyl = segments[0][0]
        x_target = geometry.x_of_cylinder(first_cyl)
        y_start, _ = self._pass_endpoints(segments[0], direction)
        positioning = self.planner.plan(self._state, x_target, y_start, direction)

        transfer_time = 0.0
        boundary_time = 0.0
        rows_total = 0
        current_direction = direction
        current_y = y_start
        current_cyl = first_cyl

        for index, segment in enumerate(segments):
            if index > 0:
                previous_direction = current_direction
                if self.params.bidirectional_access:
                    current_direction = -current_direction
                start, _ = self._pass_endpoints(segment, current_direction)
                # The sled exits the previous pass at access velocity and
                # must cross the next pass's entry edge at access velocity
                # in the opposite direction: exactly a Y repositioning
                # maneuver (a turnaround when the edges coincide, a
                # bang-bang travel-and-reverse otherwise).
                switch_cost = self.planner.y_seek_time(
                    current_y, previous_direction * v, start, current_direction
                )
                if segment[0] != current_cyl:
                    x_move = self.planner.x_seek_time(
                        geometry.x_of_cylinder(current_cyl),
                        geometry.x_of_cylinder(segment[0]),
                    )
                    switch_cost = max(switch_cost, x_move)
                    current_cyl = segment[0]
                boundary_time += switch_cost
                current_y = start
            rows = segment[3] - segment[2] + 1
            rows_total += rows
            transfer_time += rows * params.tip_sector_time
            _, current_y = self._pass_endpoints(segment, current_direction)

        bits = request.sectors * params.tips_per_sector * params.tip_sector_bits
        end_state = SledState(
            x=geometry.x_of_cylinder(current_cyl),
            y=current_y,
            vy=current_direction * v,
        )
        return _AccessPlan(
            positioning=positioning,
            transfer_time=transfer_time,
            boundary_time=boundary_time,
            rows=rows_total,
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
        low = self.geometry.row_span_y(first_row)[0]
        high = self.geometry.row_span_y(last_row)[1]
        if direction == +1:
            return (low, high)
        return (high, low)
