"""Closed-form sled kinematics under actuator force and spring restoring force.

The media sled is a spring-mass system driven by electrostatic comb actuators
(§2.1).  Along either axis the equation of motion under full actuator force is

    ẍ = σ·A − ω_s²·x,        σ ∈ {+1, −1}

where ``A`` is the peak actuator acceleration (803.6 m/s² in Table 1) and
``ω_s²`` the restoring-force field strength; Table 1's *spring factor* of 75 %
sets ω_s² = 0.75·A/x_max so the spring reaches 75 % of the actuator force at
full displacement (see DESIGN.md §2 for the parameter-interpretation note).

Because the equation is linear, the trajectory under constant σ is a harmonic
arc about the equilibrium point σ·A/ω_s², and every maneuver the device model
needs — seeks, arrivals at access velocity, stops, turnarounds — has a closed
form.  Since the spring factor is < 1, the equilibrium points lie *outside*
the reachable media (|A/ω_s²| = x_max/spring_factor > x_max), which keeps the
trigonometric branch selection unambiguous.

Seeks use time-optimal bang-bang control: full force toward the target, then
full force away, with the switch point chosen so the sled arrives at the
target position with exactly the requested velocity.  For the equation above
the switch point is linear in the endpoints:

    x_switch = (v_f² − v_0² + 2A(x_0 + x_1) + ω_s²(x_1² − x_0²)) / (4A)

All public methods express *rightward* motion internally and mirror leftward
maneuvers through the symmetry x → −x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass



class InfeasibleManeuver(Exception):
    """The requested maneuver cannot be done in a single bang-bang arc.

    Raised e.g. when an in-motion seek targets a point behind the sled or
    too close ahead to reach the requested arrival velocity; callers fall
    back to a stop-and-reposition plan.
    """


@dataclass(frozen=True, slots=True)
class StopResult:
    """Outcome of decelerating to rest from a moving state."""

    time: float
    position: float


_V_EPS = 1e-12


class SledKinematics:
    """Analytic maneuver timing for one axis of the spring-mounted sled.

    Args:
        acceleration: Peak actuator acceleration A in m/s².
        omega_sq: Restoring-force field strength ω_s² in s⁻²; zero models
            a springless (constant-acceleration) sled.
        x_max: Reachable displacement bound (positions are in [−x_max,
            x_max]); used only for sanity checks.
    """

    def __init__(self, acceleration: float, omega_sq: float, x_max: float) -> None:
        if acceleration <= 0:
            raise ValueError(f"acceleration must be positive: {acceleration}")
        if omega_sq < 0:
            raise ValueError(f"omega_sq must be non-negative: {omega_sq}")
        if x_max <= 0:
            raise ValueError(f"x_max must be positive: {x_max}")
        if omega_sq * x_max >= acceleration:
            raise ValueError(
                "spring force exceeds actuator force inside the media area; "
                "the sled could not hold position at the edges"
            )
        self.acceleration = acceleration
        self.omega_sq = omega_sq
        self.x_max = x_max
        self._omega = math.sqrt(omega_sq) if omega_sq > 0 else 0.0

    # ------------------------------------------------------------------ #
    # primitives (rightward motion: v >= 0 throughout a phase)
    # ------------------------------------------------------------------ #

    def _energy_tol(self, v0: float) -> float:
        """Relative tolerance for v² feasibility tests.

        The energy terms are of order A·x_max (~0.04 m²/s² with the default
        parameters); double-precision cancellation across the bang-bang
        switch-point algebra leaves residuals a few ulps of that scale.
        """
        scale = v0 * v0 + self.acceleration * self.x_max
        return 1e-9 * scale

    def _speed_sq_after(self, x0: float, v0: float, x1: float, sigma: float) -> float:
        """v² at x1 for rightward travel from (x0, v0) under force σ·A.

        From d(v²)/dx = 2(σA − ω²x):  v₁² = v₀² + 2σA(x₁−x₀) − ω²(x₁²−x₀²).
        May be negative, meaning x1 is unreachable in this phase.
        """
        a = self.acceleration
        w2 = self.omega_sq
        return v0 * v0 + 2.0 * sigma * a * (x1 - x0) - w2 * (x1 * x1 - x0 * x0)

    def _phase_time(self, x0: float, v0: float, x1: float, sigma: float) -> float:
        """Time to travel rightward from (x0, v0 ≥ 0) to x1 under force σ·A.

        Requires the phase to be feasible (the sled must reach x1 before any
        velocity reversal); raises :class:`InfeasibleManeuver` otherwise.
        """
        if x1 < x0 - _V_EPS:
            raise InfeasibleManeuver(f"rightward phase with x1={x1} < x0={x0}")
        if x1 <= x0 and v0 <= _V_EPS:
            # Exhausted (or numerically slightly negative) phase.  The guard
            # must not treat *positive* sub-epsilon distances as free: a
            # picometer-scale phase still costs ~sqrt(2dx/A) seconds, which
            # is orders of magnitude above the phase-time tolerances.
            return 0.0
        v1_sq = self._speed_sq_after(x0, v0, x1, sigma)
        if v1_sq < -self._energy_tol(v0):
            raise InfeasibleManeuver(
                f"cannot reach x={x1} from (x={x0}, v={v0}) under force "
                f"{sigma:+.0f}·A: velocity would reverse first"
            )
        v1 = math.sqrt(max(v1_sq, 0.0))

        if self._omega == 0.0:
            accel = sigma * self.acceleration
            if abs(accel) < _V_EPS:
                raise InfeasibleManeuver("zero net force with no spring")
            return (v1 - v0) / accel

        w = self._omega
        center = sigma * self.acceleration / self.omega_sq
        theta0 = math.atan2(-v0 / w, x0 - center)
        theta1 = math.atan2(-v1 / w, x1 - center)
        # Rightward motion keeps theta in [-pi, 0] and increasing; atan2 of a
        # non-positive first argument already lands there (with v == +0.0 the
        # sign of the zero picks the correct branch).
        dt = (theta1 - theta0) / w
        if dt < -1e-9:
            raise InfeasibleManeuver(
                f"negative phase duration {dt} for x0={x0}, v0={v0}, x1={x1}"
            )
        return max(dt, 0.0)

    def _switch_point(
        self, x0: float, v0: float, x1: float, v_final: float
    ) -> float:
        """Bang-bang accel→decel switch position for rightward travel."""
        a = self.acceleration
        w2 = self.omega_sq
        return (
            v_final * v_final
            - v0 * v0
            + 2.0 * a * (x0 + x1)
            + w2 * (x1 * x1 - x0 * x0)
        ) / (4.0 * a)

    def _runup_start(self, x1: float, v_final: float) -> float:
        """Position xr < x1 from which full rightward force accelerates the
        sled from rest to exactly ``v_final`` at x1.

        Solves 0 = v_f² − 2A(x₁−x_r) + ω²(x₁²−x_r²) for x_r.
        """
        a = self.acceleration
        w2 = self.omega_sq
        if v_final <= _V_EPS:
            return x1
        if w2 == 0.0:
            return x1 - v_final * v_final / (2.0 * a)
        # w2·xr² − 2A·xr + (2A·x1 − w2·x1² − vf²) = 0
        c = 2.0 * a * x1 - w2 * x1 * x1 - v_final * v_final
        disc = a * a - w2 * c
        if disc < 0:
            raise InfeasibleManeuver(
                f"no run-up start exists for arrival at ({x1}, {v_final})"
            )
        root = (a - math.sqrt(disc)) / w2
        if root > x1 + _V_EPS:
            raise InfeasibleManeuver(
                f"run-up start {root} lies beyond the target {x1}"
            )
        return min(root, x1)

    # ------------------------------------------------------------------ #
    # public maneuvers
    # ------------------------------------------------------------------ #

    def seek_time(self, x0: float, x1: float) -> float:
        """Time-optimal rest-to-rest seek from x0 to x1."""
        return self.seek_arrive_time(x0, x1, 0.0, +1 if x1 >= x0 else -1)

    def seek_arrive_time(
        self, x0: float, x1: float, v_final: float, direction: int
    ) -> float:
        """Rest start at x0; cross x1 at speed ``v_final`` moving ``direction``.

        ``direction`` is +1 or −1 and gives the required direction of travel
        at the moment the sled crosses x1 (the media-access direction).  When
        x0 is on the wrong side of the run-up point the plan automatically
        includes the backtrack: a rest-to-rest seek to the run-up start
        followed by the acceleration run.

        The common direct-arc branch is evaluated inline — the
        ``_speed_sq_after``/``_switch_point``/``_phase_time`` compositions
        flattened into straight-line arithmetic with the identical operation
        order, so results are bit-for-bit those of the layered helpers (the
        dead ``v0 = 0`` terms they would fold in are exact no-ops).  Run-up
        cases and tolerance anomalies take
        :meth:`_seek_arrive_rightward_slow`, the layered original, which
        also reproduces its exceptions exactly.
        """
        if direction == -1:
            x0 = -x0
            x1 = -x1
        elif direction != +1:
            raise ValueError(f"direction must be ±1, got {direction}")
        if v_final < 0:
            raise ValueError(f"negative arrival speed: {v_final}")

        # Rightward crossing of x1 at speed v_final.
        if x0 <= x1:
            a = self.acceleration
            w2 = self.omega_sq
            reach_sq = 2.0 * a * (x1 - x0) - w2 * (x1 * x1 - x0 * x0)
            vf_sq = v_final * v_final
            if reach_sq >= vf_sq:
                # Direct accel→decel arc.
                xs = (
                    vf_sq + 2.0 * a * (x0 + x1) + w2 * (x1 * x1 - x0 * x0)
                ) / (4.0 * a)
                if xs < x0:
                    xs = x0
                elif xs > x1:
                    xs = x1
                v1_sq = 2.0 * a * (xs - x0) - w2 * (xs * xs - x0 * x0)
                if v1_sq < -1e-9 * (a * self.x_max):
                    return self._seek_arrive_rightward_slow(x0, x1, v_final)
                v1 = math.sqrt(0.0 if 0.0 > v1_sq else v1_sq)
                w = self._omega
                if xs <= x0:
                    t_accel = 0.0
                elif w == 0.0:
                    if a < _V_EPS:
                        return self._seek_arrive_rightward_slow(
                            x0, x1, v_final
                        )
                    t_accel = v1 / a
                else:
                    # Rest start: theta0 = atan2(-0.0, x0 - a/w2) = -pi
                    # (the equilibrium lies beyond the media edge).
                    dt = (math.atan2(-v1 / w, xs - a / w2) + math.pi) / w
                    if dt < -1e-9:
                        return self._seek_arrive_rightward_slow(
                            x0, x1, v_final
                        )
                    t_accel = 0.0 if 0.0 > dt else dt
                if x1 <= xs and v1 <= _V_EPS:
                    return t_accel + 0.0
                v2_sq = (
                    v1 * v1
                    + -2.0 * a * (x1 - xs)
                    - w2 * (x1 * x1 - xs * xs)
                )
                if v2_sq < -1e-9 * (v1 * v1 + a * self.x_max):
                    return self._seek_arrive_rightward_slow(x0, x1, v_final)
                v2 = math.sqrt(0.0 if 0.0 > v2_sq else v2_sq)
                if w == 0.0:
                    t_decel = (v2 - v1) / -a
                else:
                    center = -a / w2
                    dt = (
                        math.atan2(-v2 / w, x1 - center)
                        - math.atan2(-v1 / w, xs - center)
                    ) / w
                    if dt < -1e-9:
                        return self._seek_arrive_rightward_slow(
                            x0, x1, v_final
                        )
                    t_decel = 0.0 if 0.0 > dt else dt
                return t_accel + t_decel

        return self._seek_arrive_rightward_slow(x0, x1, v_final)

    def _seek_arrive_rightward_slow(
        self, x0: float, x1: float, v_final: float
    ) -> float:
        """Layered evaluation of a rightward arrival (the pre-fusion code):
        handles the run-up/backtrack branch and raises the original
        exceptions for infeasible or tolerance-violating maneuvers."""
        if x0 <= x1:
            reach_sq = self._speed_sq_after(x0, 0.0, x1, +1.0)
            if reach_sq >= v_final * v_final:
                # Direct accel→decel arc.
                xs = self._switch_point(x0, 0.0, x1, v_final)
                xs = min(max(xs, x0), x1)
                t_accel = self._phase_time(x0, 0.0, xs, +1.0)
                v_switch_sq = self._speed_sq_after(x0, 0.0, xs, +1.0)
                v_switch = math.sqrt(max(v_switch_sq, 0.0))
                t_decel = self._phase_time(xs, v_switch, x1, -1.0)
                return t_accel + t_decel

        # Too close (or behind): back up to the run-up start, then launch.
        xr = self._runup_start(x1, v_final)
        t_back = self.seek_time(x0, xr)
        t_run = self._phase_time(xr, 0.0, x1, +1.0)
        return t_back + t_run

    def seek_moving_time(
        self, x0: float, v0: float, x1: float, v_final: float
    ) -> float:
        """In-motion seek: from (x0, v0 ≠ 0) cross x1 at speed ``v_final``
        moving in the *same* direction as v0, in a single bang-bang arc.

        Raises :class:`InfeasibleManeuver` when the target is behind the
        sled, or too close to shed/gain the required speed; callers fall back
        to :meth:`stop` + :meth:`seek_arrive_time`.
        """
        if abs(v0) <= _V_EPS:
            raise InfeasibleManeuver("seek_moving_time requires nonzero v0")
        if v_final < 0:
            raise ValueError(f"negative arrival speed: {v_final}")
        if v0 < 0:
            return self.seek_moving_time(-x0, -v0, -x1, v_final)

        if x1 < x0 - _V_EPS:
            raise InfeasibleManeuver("target is behind a forward-moving sled")

        reach_sq = self._speed_sq_after(x0, v0, x1, +1.0)
        if reach_sq < v_final * v_final - self._energy_tol(v0):
            raise InfeasibleManeuver("cannot reach arrival speed before target")

        xs = self._switch_point(x0, v0, x1, v_final)
        if xs < x0 - _V_EPS:
            # Already too fast: would need to brake below v_final and there
            # is no room; a pure decel arc from x0 must still be checked.
            decel_sq = self._speed_sq_after(x0, v0, x1, -1.0)
            if decel_sq < -self._energy_tol(v0):
                raise InfeasibleManeuver("sled would stop before the target")
            if decel_sq > v_final * v_final + 1e-9:
                raise InfeasibleManeuver(
                    "sled is too fast to hit the arrival speed at the target"
                )
            return self._phase_time(x0, v0, x1, -1.0)
        xs = min(xs, x1)
        t_accel = self._phase_time(x0, v0, xs, +1.0)
        v_switch = math.sqrt(max(self._speed_sq_after(x0, v0, xs, +1.0), 0.0))
        t_decel = self._phase_time(xs, v_switch, x1, -1.0)
        return t_accel + t_decel

    def stop(self, x: float, v: float) -> StopResult:
        """Decelerate to rest from (x, v) under full opposing force."""
        if abs(v) <= _V_EPS:
            return StopResult(0.0, x)
        if v < 0:
            mirrored = self.stop(-x, -v)
            return StopResult(mirrored.time, -mirrored.position)

        a = self.acceleration
        w2 = self.omega_sq
        if w2 == 0.0:
            x_stop = x + v * v / (2.0 * a)
            return StopResult(v / a, x_stop)
        # Solve v² − 2A(x_e−x) − ω²(x_e²−x²) = 0 for the stop point x_e > x.
        k = v * v + 2.0 * a * x + w2 * x * x
        x_stop = (-a + math.sqrt(a * a + w2 * k)) / w2
        t = self._phase_time(x, v, x_stop, -1.0)
        return StopResult(t, x_stop)

    def turnaround_time(self, x: float, v: float) -> float:
        """Time to reverse velocity in place: (x, v) → (x, −v).

        Under constant opposing force the trajectory is a harmonic arc that
        is time-symmetric about its apex, so the turnaround costs exactly
        twice the stopping time.  §2.3 defines the turnaround as ending at
        the starting ⟨x, y⟩ with the velocity negated.
        """
        if abs(v) <= _V_EPS:
            return 0.0
        return 2.0 * self.stop(x, v).time

    def full_stroke_time(self) -> float:
        """Rest-to-rest seek across the whole mobility range."""
        return self.seek_time(-self.x_max, self.x_max)
