"""Unit tests for the positioning planner."""

import pytest

from repro.mems import DEFAULT_PARAMETERS, SeekPlanner, SledState

PLANNER = SeekPlanner(DEFAULT_PARAMETERS)
V = DEFAULT_PARAMETERS.access_velocity
SETTLE = DEFAULT_PARAMETERS.settle_time


class TestSettleRule:
    def test_no_settle_when_staying_on_cylinder(self):
        assert PLANNER.settle_time(1e-5, 1e-5) == 0.0

    def test_settle_when_moving_a_cylinder(self):
        x = 1e-5
        assert PLANNER.settle_time(x, x + DEFAULT_PARAMETERS.bit_width) == SETTLE

    def test_sub_bit_jitter_is_not_a_move(self):
        x = 1e-5
        assert PLANNER.settle_time(x, x + 1e-10) == 0.0


class TestYSeek:
    def test_at_rest_direct(self):
        t = PLANNER.y_seek_time(0.0, 0.0, 20e-6, +1)
        assert t > 0

    def test_sequential_continuation_is_free(self):
        """A sled already crossing the target at access velocity needs no
        repositioning — the sequential-access fast path."""
        y = 10e-6
        t = PLANNER.y_seek_time(y, V, y, +1)
        assert t == pytest.approx(0.0, abs=1e-9)

    def test_wrong_direction_costs_a_turnaround(self):
        y = 10e-6
        t = PLANNER.y_seek_time(y, -V, y, +1)
        turnaround = PLANNER.turnaround_time(y, -V)
        assert t >= turnaround * 0.5
        assert t < 1e-3

    def test_moving_toward_target_cheaper_than_stopped(self):
        t_moving = PLANNER.y_seek_time(0.0, V, 20e-6, +1)
        t_rest = PLANNER.y_seek_time(0.0, 0.0, 20e-6, +1)
        assert t_moving < t_rest


class TestPlan:
    def test_positioning_is_max_of_x_and_y(self):
        state = SledState(x=0.0, y=0.0, vy=0.0)
        plan = PLANNER.plan(state, 40e-6, 10e-6, +1)
        assert plan.total == pytest.approx(
            max(plan.x_time + plan.settle, plan.y_time)
        )

    def test_y_can_hide_under_x(self):
        """A long X seek with settle hides a short Y seek entirely
        (section 2.4.1: the shorter of the two times is irrelevant)."""
        state = SledState(x=-45e-6, y=5e-6, vy=0.0)
        plan = PLANNER.plan(state, 45e-6, 6e-6, +1)
        assert plan.x_time + plan.settle > plan.y_time
        assert plan.total == pytest.approx(plan.x_time + plan.settle)

    def test_zero_move_plan(self):
        state = SledState(x=10e-6, y=5e-6, vy=V)
        plan = PLANNER.plan(state, 10e-6, 5e-6, +1)
        assert plan.x_time == 0.0
        assert plan.settle == 0.0
        assert plan.total == pytest.approx(0.0, abs=1e-9)

    def test_direction_recorded(self):
        state = SledState(x=0.0, y=0.0, vy=0.0)
        assert PLANNER.plan(state, 0.0, 1e-5, -1).direction == -1


class TestCaching:
    def test_cached_results_match_uncached(self):
        cached = SeekPlanner(DEFAULT_PARAMETERS)
        uncached = SeekPlanner(DEFAULT_PARAMETERS, cache_size=0)
        cases = [
            (0.0, 0.0, 20e-6, +1),
            (10e-6, V, 15e-6, +1),
            (10e-6, -V, 15e-6, +1),
            (-40e-6, 0.0, -45e-6, -1),
        ]
        for y0, vy, target, direction in cases:
            assert cached.y_seek_time(y0, vy, target, direction) == pytest.approx(
                uncached.y_seek_time(y0, vy, target, direction), rel=1e-12
            )

    def test_repeat_calls_hit_cache(self):
        planner = SeekPlanner(DEFAULT_PARAMETERS)
        planner.y_seek_time(0.0, V, 20e-6, +1)
        planner.y_seek_time(0.0, -V, -20e-6, -1)  # the mirrored maneuver
        info = planner.y_seek_time.cache_info()
        assert (info.hits, info.misses) == (1, 1)
