"""Sled positioning planner: X seeks, Y seeks, settle, and turnarounds.

Positioning the sled for an access (§2.3) involves:

* an **X seek** from the current cylinder to the destination cylinder —
  always rest-to-rest, followed by ``settle_constants`` time constants of
  settling whenever the sled moved in X (§2.4.2);
* a **Y seek** that leaves the sled crossing the first tip-sector row
  boundary at access velocity in the chosen direction — possibly starting
  from a moving state (the sled exits the previous access at access
  velocity), and possibly requiring a stop/turnaround first;
* the two proceed **in parallel**: total positioning time is
  max(T_X + settle, T_Y) (§2.4.1).

The planner is stateless; the device model owns the sled state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Tuple

from repro.mems.kinematics import InfeasibleManeuver, SledKinematics
from repro.mems.parameters import MEMSParameters
from repro.nputil import get_numpy

_LOWER_BOUND_MARGIN = 1.0 - 1e-6
"""Relative safety margin on the analytic seek bound.

The bound is evaluated from the integer cylinder delta (``delta *
bit_width``) while the exact kinematics see the rounded difference of two
cylinder X offsets *and* carry a few 1e-9-relative residuals of their own
(the bang-bang switch-point algebra cancels energy terms; see
``SledKinematics._energy_tol``).  The margin must dominate both so the
bound stays admissible even in the degenerate ``spring_factor = 0`` case
where it is exactly tight; 1e-6 leaves three orders of magnitude of
headroom while costing nothing against the bound's real-world tightness
(0.75–0.96 of the exact seek with the spring on)."""


@functools.lru_cache(maxsize=16)
def x_seek_lower_bounds(params: MEMSParameters) -> Tuple[float, ...]:
    """Dense admissible lower bounds on X seek + settle, by cylinder delta.

    ``x_seek_lower_bounds(params)[d]`` never exceeds the exact
    ``x_seek_and_settle`` cost of any seek spanning ``d`` cylinders, which
    makes it an admissible bound for SPTF's best-first selection: the true
    positioning delay is ``max(x_seek + settle, y_seek) >= x_seek + settle
    >= bounds[d]``.

    The exact X seek time is *not* a pure function of the cylinder delta —
    the spring restoring force makes edge seeks slower than centered seeks
    of the same span (measured spread up to ~50 % at small deltas) — so a
    dense delta-indexed table cannot replace exact pricing.  It can bound
    it: along any trajectory inside the media the total acceleration
    magnitude satisfies ``|±A − ω²x| <= A + ω²·x_max``, and no rest-to-rest
    maneuver covering distance D under acceleration bound ``a_max`` beats
    the constant-``a_max`` bang-bang time ``2·sqrt(D / a_max)``.  Any seek
    of one cylinder or more also pays the full settle delay (the settle
    threshold is half a bit width).  The table is monotone in the delta
    (enforced by a suffix-min envelope).

    Built on first use per parameter set and memoized at module level, so
    every device built from the same (hashable, frozen) ``MEMSParameters``
    — in this process or in a forked sweep worker — shares one table.
    Devices defer the first call until a deep SPTF selection consults the
    bound oracle (:attr:`repro.mems.device.MEMSDevice
    .positioning_lower_bounds` is a lazy property), so runs whose queues
    stay shallow never build it.  The array evaluation (``numpy.sqrt`` is
    bitwise identical to ``math.sqrt``) keeps even that first call cheap.
    """
    np = get_numpy()
    a_max = params.sled_acceleration + params.spring_omega_sq * params.x_max
    settle = params.settle_time
    bit_width = params.bit_width
    deltas = np.arange(params.num_cylinders, dtype=np.float64)
    seek_floor = 2.0 * np.sqrt(deltas * bit_width / a_max)
    bounds = seek_floor * _LOWER_BOUND_MARGIN + settle
    bounds[0] = 0.0
    # Suffix-min envelope (sqrt is monotone; the envelope is belt).
    bounds = np.minimum.accumulate(bounds[::-1])[::-1]
    bounds[0] = 0.0
    return tuple(bounds.tolist())


class SledState(NamedTuple):
    """Mechanical state of the sled between accesses.

    ``vy`` is the signed Y velocity: ±access velocity right after an access,
    0 if the sled has been stopped (e.g. by power management).  X velocity is
    always zero between accesses (media transfer requires v_x = 0).

    A NamedTuple, not a dataclass: the device builds one per access, and
    tuple construction is the cheapest immutable record Python offers.
    """

    x: float
    y: float
    vy: float


@dataclass(frozen=True, slots=True)
class PositioningPlan:
    """Timing of one positioning maneuver (everything before the first bit)."""

    x_time: float
    y_time: float
    settle: float
    direction: int
    """Y direction (+1/−1) the media will pass under the tips."""

    @property
    def total(self) -> float:
        """Positioning delay: X (with settle) and Y proceed in parallel."""
        return max(self.x_time + self.settle, self.y_time)


class SeekPlanner:
    """Computes positioning plans from sled states and physical targets.

    Args:
        params: Device design point.
        cache_size: Entry cap of the Y-seek LRU cache; 0 disables it.
    """

    def __init__(self, params: MEMSParameters, cache_size: int = 1 << 18) -> None:
        self.params = params
        self.kinematics = SledKinematics(
            acceleration=params.sled_acceleration,
            omega_sq=params.spring_omega_sq,
            x_max=params.x_max,
        )
        self._settle_threshold = params.bit_width / 2.0
        self._settle_cost = params.settle_time
        # Y seeks run between row edges, starting at rest or at ±access
        # velocity: a small discrete set of endpoints, so memoizing them
        # pays off under SPTF, which prices every queued request at every
        # dispatch.  Every maneuver mirrors leftward motion onto rightward
        # motion through y → −y with *identical* floating-point operations
        # (see kinematics module docstring), so cache keys are canonicalized
        # to the rightward form before lookup — halving the key space
        # without changing any result.  X seeks run between cylinder
        # centres; the device memoizes those per cylinder pair.
        self._y_rightward = self._y_seek_rightward
        if cache_size:
            y_inner = functools.lru_cache(maxsize=cache_size)(
                self._y_seek_rightward
            )

            def y_seek_time(
                y0: float, vy0: float, y_target: float, direction: int
            ) -> float:
                if direction < 0:
                    y0, vy0, y_target = -y0, -vy0, -y_target
                return y_inner(y0, vy0, y_target)

            y_seek_time.cache_info = y_inner.cache_info
            self.y_seek_time = y_seek_time
            # Pre-canonicalized entry point for the device hot paths:
            # callers that mirror arguments themselves skip the wrapper
            # frame and hit the lru_cache C wrapper directly.  Negation is
            # exact, so results match the public wrapper bit for bit.
            self._y_rightward = y_inner

    # -- component maneuvers --------------------------------------------- #

    def x_seek_time(self, x0: float, x1: float) -> float:
        """Rest-to-rest X seek (no settle included)."""
        return self.kinematics.seek_time(x0, x1)

    def settle_time(self, x0: float, x1: float) -> float:
        """Settle delay: charged whenever the sled moved in X."""
        if abs(x1 - x0) < self._settle_threshold:
            return 0.0
        return self._settle_cost

    def x_seek_and_settle(self, x0: float, x1: float):
        """(X seek time, settle time) of one X move."""
        return self.x_seek_time(x0, x1), self.settle_time(x0, x1)

    def y_seek_time(
        self, y0: float, vy0: float, y_target: float, direction: int
    ) -> float:
        """Time until the sled crosses ``y_target`` at access velocity in
        ``direction``, starting from (y0, vy0)."""
        if direction < 0:
            y0, vy0, y_target = -y0, -vy0, -y_target
        return self._y_seek_rightward(y0, vy0, y_target)

    def _y_seek_rightward(self, y0: float, vy0: float, y_target: float) -> float:
        """Y seek with the access direction canonicalized to +1.

        Identical to the pre-canonicalization code path: the kinematics
        methods themselves mirror a −1-direction maneuver through exactly
        this negation before computing anything.
        """
        v = self.params.access_velocity
        kin = self.kinematics
        if abs(vy0) < 1e-12:
            return kin.seek_arrive_time(y0, y_target, v, +1)
        if vy0 > 0:
            try:
                return kin.seek_moving_time(y0, vy0, y_target, v)
            except InfeasibleManeuver:
                pass
        stop = kin.stop(y0, vy0)
        return stop.time + kin.seek_arrive_time(stop.position, y_target, v, +1)

    def turnaround_time(self, y: float, vy: float) -> float:
        """Reverse the sled's Y velocity in place."""
        return self.kinematics.turnaround_time(y, vy)

    # -- full positioning -------------------------------------------------- #

    def plan(
        self,
        state: SledState,
        x_target: float,
        y_target: float,
        direction: int,
    ) -> PositioningPlan:
        """Position from ``state`` to cross ``y_target`` moving ``direction``
        with the tips over ``x_target``."""
        x_time, settle = self.x_seek_and_settle(state.x, x_target)
        y_time = self.y_seek_time(state.y, state.vy, y_target, direction)
        return PositioningPlan(
            x_time=x_time, y_time=y_time, settle=settle, direction=direction
        )
