"""Tests for the reference generators and the set-point differentiator."""

import math

import numpy as np
import pytest

from quadpend.trajectories import (SetpointDifferentiator, TrajectorySpec,
                                   sample_trajectory)


def finite_difference_check(spec, t0, t1, rng, n=50, h=1e-6,
                            rtol=1e-5, atol=1e-5):
    """Analytic derivatives must match central differences of the position."""
    for t in rng.uniform(t0, t1, size=n):
        s = sample_trajectory(spec, t)
        sp = sample_trajectory(spec, t + h)
        sm = sample_trajectory(spec, t - h)
        np.testing.assert_allclose(
            s.pos_dot, np.subtract(sp.pos, sm.pos) / (2 * h),
            rtol=rtol, atol=atol)
        np.testing.assert_allclose(
            s.pend_dot, np.subtract(sp.pend, sm.pend) / (2 * h),
            rtol=rtol, atol=atol)
        # Larger step for the second difference: cancellation noise grows
        # as eps / h^2.
        h2 = 1e-4
        sp2 = sample_trajectory(spec, t + h2)
        sm2 = sample_trajectory(spec, t - h2)
        np.testing.assert_allclose(
            s.pos_ddot,
            (np.asarray(sp2.pos) - 2 * np.asarray(s.pos) + sm2.pos) / (h2 * h2),
            rtol=1e-4, atol=1e-4)


class TestSetpoint:
    def test_constant(self):
        spec = TrajectorySpec(kind="set-point", setpoint=(1.0, 1.0, -1.0))
        for t in (0.0, 1.0, 100.0):
            s = sample_trajectory(spec, t)
            np.testing.assert_allclose(s.pos, [1.0, 1.0, -1.0])
            np.testing.assert_allclose(s.pos_dot, 0.0)
            np.testing.assert_allclose(s.pos_ddot, 0.0)
            np.testing.assert_allclose(s.pend, 0.0)


class TestCircle:
    SPEC = TrajectorySpec(kind="circle", radius=1.0, rate=0.5, altitude=-2.0)

    def test_starts_at_radius(self):
        s = sample_trajectory(self.SPEC, 0.0)
        np.testing.assert_allclose(s.pos, [1.0, 0.0, -2.0])
        np.testing.assert_allclose(s.pos_dot, [0.0, 0.5, 0.0])
        np.testing.assert_allclose(s.pos_ddot, [-0.25, 0.0, 0.0])

    def test_period(self):
        T = 2.0 * math.pi / 0.5
        s0 = sample_trajectory(self.SPEC, 1.0)
        s1 = sample_trajectory(self.SPEC, 1.0 + T)
        np.testing.assert_allclose(s0.pos, s1.pos, atol=1e-12)

    def test_derivative_consistency(self):
        finite_difference_check(self.SPEC, 0.1, 20.0,
                                np.random.default_rng(30))

    def test_constant_speed(self):
        rng = np.random.default_rng(31)
        for t in rng.uniform(0.0, 20.0, size=50):
            s = sample_trajectory(self.SPEC, t)
            assert np.linalg.norm(s.pos_dot) == pytest.approx(0.5, rel=1e-12)


class TestTakeoffThenCircle:
    def test_starts_on_ground_above_circle_entry(self):
        spec = TrajectorySpec(kind="takeoff-then-circle")
        s = sample_trajectory(spec, 0.0)
        np.testing.assert_allclose(s.pos, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(s.pos_dot, 0.0, atol=1e-15)

    def test_reaches_altitude_at_transition(self):
        spec = TrajectorySpec(kind="takeoff-then-circle", transition_time=5.0)
        s = sample_trajectory(spec, 5.0)
        np.testing.assert_allclose(s.pos, [1.0, 0.0, -2.0], atol=1e-12)
        # The blend holds the reference at rest at the transition instant...
        np.testing.assert_allclose(s.pos_dot, 0.0, atol=1e-9)
        # ...and hands over the full circle velocity at the window's end.
        s = sample_trajectory(spec, 6.0)
        k, R = 0.5, 1.0
        np.testing.assert_allclose(
            s.pos_dot, [-R * k * math.sin(k), R * k * math.cos(k), 0.0],
            atol=1e-9)

    def test_blended_reference_is_c2(self):
        # Velocity and acceleration jumps across every phase boundary stay
        # below the finite-difference noise floor.
        spec = TrajectorySpec(kind="takeoff-then-circle", transition_time=5.0,
                              blend=True, blend_window=1.0)
        h = 1e-7
        for t_knot in (5.0, 6.0):
            lo = sample_trajectory(spec, t_knot - h)
            hi = sample_trajectory(spec, t_knot + h)
            assert np.linalg.norm(np.subtract(hi.pos, lo.pos)) < 1e-6
            assert np.linalg.norm(np.subtract(hi.pos_dot, lo.pos_dot)) < 1e-6
            assert np.linalg.norm(np.subtract(hi.pos_ddot, lo.pos_ddot)) < 1e-5

    @pytest.mark.parametrize("kw", [
        {"transition_time": 1e-320}, {"transition_time": 1e-160},
        {"transition_time": 1e300},
        {"transition_time": 0.0, "blend_window": 1e-320},
        {"blend_window": 5e-324}, {"blend_window": 1e200}])
    def test_square_that_breaks_a_division_rejected(self, kw):
        # The climb divides by transition_time ** 2 and the blend by
        # blend_window ** 2: an underflowing square makes those divide by
        # zero or overflow, an overflowing one raises.
        key = next(k for k, v in kw.items() if v)
        with pytest.raises(ValueError, match=key):
            TrajectorySpec(kind="takeoff-then-circle", **kw)

    def test_zero_or_negative_transition_and_window_accepted(self):
        for value in (0.0, -1.0):
            spec = TrajectorySpec(kind="takeoff-then-circle",
                                  transition_time=value, blend_window=value)
            assert np.all(np.isfinite(sample_trajectory(spec, 0.5).pos_ddot))

    def test_raw_switch_has_velocity_jump(self):
        spec = TrajectorySpec(kind="takeoff-then-circle", transition_time=5.0,
                              blend=False)
        lo = sample_trajectory(spec, 5.0 - 1e-9)
        hi = sample_trajectory(spec, 5.0 + 1e-9)
        assert np.linalg.norm(np.subtract(hi.pos_dot, lo.pos_dot)) > 0.4

    def test_derivative_consistency_in_each_phase(self):
        spec = TrajectorySpec(kind="takeoff-then-circle")
        rng = np.random.default_rng(32)
        finite_difference_check(spec, 0.1, 4.9, rng)
        finite_difference_check(spec, 5.1, 5.9, rng)
        finite_difference_check(spec, 6.1, 20.0, rng)


class TestPendulumCircle:
    SPEC = TrajectorySpec(kind="pendulum-circle", pend_radius=0.1,
                          rate=2.0 * math.pi * 0.1, altitude=-2.0)

    def test_vehicle_holds_station(self):
        for t in (0.0, 3.0, 17.0):
            s = sample_trajectory(self.SPEC, t)
            np.testing.assert_allclose(s.pos, [0.0, 0.0, -2.0])
            np.testing.assert_allclose(s.pos_dot, 0.0)

    def test_pendulum_reference_period(self):
        s0 = sample_trajectory(self.SPEC, 0.0)
        s1 = sample_trajectory(self.SPEC, 10.0)  # one period at 0.1 Hz
        np.testing.assert_allclose(s0.pend, s1.pend, atol=1e-12)
        np.testing.assert_allclose(s0.pend, [0.1, 0.0])

    def test_derivative_consistency(self):
        finite_difference_check(self.SPEC, 0.1, 20.0,
                                np.random.default_rng(33))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            TrajectorySpec(kind="zigzag")

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            TrajectorySpec(kind="circle", radius=-1.0)

    def test_nonfinite_rate(self):
        # The CLI rejects a non-finite value first: only a direct call
        # reaches this check.
        with pytest.raises(ValueError, match="rate must be finite"):
            TrajectorySpec(kind="circle", rate=math.inf)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            sample_trajectory(TrajectorySpec(), -0.1)


class TestSetpointDifferentiator:
    def test_startup_zeros(self):
        d = SetpointDifferentiator(dt=0.5)
        d1, d2 = d.update([1.0, 2.0])
        assert list(d1) == [0.0, 0.0] and list(d2) == [0.0, 0.0]
        d1, d2 = d.update([1.5, 1.0])
        assert list(d1) == [1.0, -2.0] and list(d2) == [0.0, 0.0]
        d1, d2 = d.update([2.5, 1.0])
        assert list(d1) == [2.5, 1.0] and list(d2) == [2.0, 4.0]

    def test_constant_signal(self):
        d = SetpointDifferentiator(dt=0.01)
        for _ in range(5):
            d1, d2 = d.update([3.0, -1.0])
        np.testing.assert_allclose(d1, 0.0, atol=1e-12)
        np.testing.assert_allclose(d2, 0.0, atol=1e-12)

    def test_quadratic_exact(self):
        # Second-order backward differences are exact on polynomials of
        # degree <= 2.
        dt = 0.05
        d = SetpointDifferentiator(dt=dt)
        out = None
        for k in range(6):
            t = k * dt
            out = d.update([2.0 + 3.0 * t + 4.0 * t * t])
        t = 5 * dt
        d1, d2 = out
        assert d1[0] == pytest.approx(3.0 + 8.0 * t, rel=1e-10)
        assert d2[0] == pytest.approx(8.0, rel=1e-10)

    def test_sine_error_scales_with_dt(self):
        # First derivative error of the 3-sample stencil is O(dt^2).
        errs = []
        for dt in (1e-2, 5e-3):
            d = SetpointDifferentiator(dt=dt)
            worst = 0.0
            for k in range(int(1.0 / dt) + 1):
                t = k * dt
                d1, _ = d.update([math.sin(5.0 * t)])
                if k >= 2:  # past the two start-up samples
                    worst = max(worst, abs(d1[0] - 5.0 * math.cos(5.0 * t)))
            errs.append(worst)
        assert errs[0] / errs[1] > 3.0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            SetpointDifferentiator(dt=0.0)
