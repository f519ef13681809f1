"""Tests for the simulation harness, metrics, and event bookkeeping."""

import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import quadpend.controllers as ctl
from quadpend.controllers import TrackingGains
from quadpend.harness import (CONTROLLERS, MAX_CONSECUTIVE_FAULTS, MAX_STEPS,
                              SERIES, NoiseSpec, Scenario, ScenarioError, SimLog,
                              compute_metrics, count_overshoots, rms,
                              run_scenario, settling_time)
from quadpend.models import (InitialState, PendulumParams,
                             VehicleParams, coupled_derivative,
                             mixer_inverse, pendulum_drift_and_coupling)
from quadpend.numerics import QpInfeasibleError, rk4_step
from quadpend.trajectories import TrajectorySpec

P = VehicleParams()


def hover_scenario(**kw):
    base = dict(
        name="hover",
        controller="fbl-regulator",
        trajectory=TrajectorySpec(kind="set-point", setpoint=(0.0, 0.0, -2.0)),
        initial=InitialState(p=(0.0, 0.0, -2.0)),
        duration=1.0,
        dt=1e-3,
    )
    base.update(kw)
    return Scenario(**base)


class TestScenarioValidation:
    def test_unknown_controller(self):
        with pytest.raises(ScenarioError):
            hover_scenario(controller="pid")

    def test_pendulum_controller_needs_pendulum(self):
        with pytest.raises(ScenarioError):
            hover_scenario(controller="pend-xi")

    def test_initial_pendulum_needs_pendulum(self):
        with pytest.raises(ScenarioError, match="initial.pendulum"):
            hover_scenario(initial=InitialState(pendulum=(0.3, 0.0, 0.0, 0.0)))

    def test_nonpositive_dt(self):
        with pytest.raises(ScenarioError):
            hover_scenario(dt=0.0)

    @pytest.mark.parametrize("kw", [
        {"duration": math.nan}, {"duration": math.inf}, {"dt": math.nan},
        {"dt": math.inf}, {"seed": -1}])
    def test_nonfinite_duration_or_dt_or_negative_seed(self, kw):
        with pytest.raises(ScenarioError):
            hover_scenario(**kw)

    @pytest.mark.parametrize("kw", [
        {"duration": 1e300, "dt": 1e-300}, {"duration": 1e15},
        {"duration": (MAX_STEPS + 1) * 1e-3}])
    def test_step_count_above_the_limit(self, kw):
        # duration / dt overflows, or would preallocate an unbounded log.
        with pytest.raises(ScenarioError, match="duration / dt"):
            hover_scenario(**kw)
        hover_scenario(duration=MAX_STEPS * 1e-3)  # built, never run

    @pytest.mark.parametrize("make", [
        lambda: NoiseSpec(accel_std=-0.1), lambda: NoiseSpec(dt_ref=0.0),
        lambda: TrackingGains(q_care=0.0),
        lambda: TrackingGains(r_lqr=(1.0, -1.0))])
    def test_invalid_noise_or_weights(self, make):
        with pytest.raises(ValueError):
            make()

    def test_dt_whose_square_underflows(self):
        # SetpointDifferentiator divides by dt * dt.
        with pytest.raises(ValueError, match="dt"):
            hover_scenario(dt=1e-170, duration=1e-168)

    def test_scenario_is_a_value(self):
        assert Scenario() == Scenario()
        assert hash(Scenario()) == hash(Scenario())
        assert Scenario(pendulum=PendulumParams(),
                        initial=InitialState(pendulum=(0.1, 0.0, 0.0, 0.0))
                        ) != Scenario(pendulum=PendulumParams())

    def test_pendulum_initial_defaults_upright(self):
        sc = hover_scenario(controller="pend-xi", pendulum=PendulumParams())
        assert sc.initial.pendulum == (0.0,) * 4


# The quadpend.controllers functions each bundled controller reaches:
# set-up, outer loop and inner loop.
REACHES = {
    "fbl-regulator": ("setup_output_clf", "position_allocation",
                      "attitude_from_force", "fbl_regulator"),
    "fbl-tracker": ("position_allocation", "attitude_from_force",
                    "fbl_tracker"),
    "clf-qp": ("setup_output_clf", "position_allocation",
               "attitude_from_force", "clf_qp_controller"),
    "pend-xi": ("pendulum_fbl_xi", "attitude_from_force", "fbl_tracker"),
    "pend-xi-prime": ("pendulum_fbl_xi_prime", "attitude_from_force",
                      "fbl_tracker"),
    "pend-lqr": ("setup_pendulum_lqr", "pendulum_position_lqr",
                 "fbl_tracker"),
}
INNER = ("fbl_regulator", "fbl_tracker", "clf_qp_controller")


@pytest.mark.parametrize("name", list(CONTROLLERS))
def test_controller_reaches_controllers_at_call_time(name, monkeypatch):
    # Wrappers installed on quadpend.controllers after import, as a
    # profiler installs them, must see every call of a table entry.
    calls = Counter()
    for fn in {f for names in REACHES.values() for f in names}:
        def counted(*args, _fn=fn, _real=getattr(ctl, fn), **kwargs):
            calls[_fn] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(ctl, fn, counted)
    pend = PendulumParams() if CONTROLLERS[name].pendulum else None
    log = run_scenario(hover_scenario(controller=name, pendulum=pend,
                                      duration=0.005))
    assert not log.aborted and log.t.size == 6
    assert any(calls[f] == 6 for f in INNER)
    assert set(calls) == set(REACHES.get(name, calls))


class TestHoverInvariance:
    def test_state_constant_at_equilibrium(self):
        log = run_scenario(hover_scenario())
        drift = np.max(np.abs(log.quad - log.quad[0]))
        assert drift < 1e-10
        assert not log.aborted
        assert log.metrics["clamp_events"] == 0

    def test_log_shapes(self):
        log = run_scenario(hover_scenario(duration=0.5))
        n = int(round(0.5 / 1e-3)) + 1
        assert log.t.shape == (n,)
        assert log.quad.shape == (n, 12)
        assert log.u.shape == (n, 4)
        assert log.pend is None
        assert log.t[0] == 0.0
        assert log.t[-1] == pytest.approx(0.5)


def test_simlog_declares_the_series():
    # cmd_accel is logged for the metrics only, not emitted.
    arrays = [f.name for f in fields(SimLog) if f.type is np.ndarray]
    assert [name for name in arrays if name != "cmd_accel"] == list(SERIES)


@pytest.mark.parametrize("controller", ["fbl-regulator", "pend-xi"])
def test_series_shapes_and_dtypes(controller):
    pend = PendulumParams() if CONTROLLERS[controller].pendulum else None
    log = run_scenario(hover_scenario(controller=controller, pendulum=pend,
                                      duration=0.005))
    for name, series in SERIES.items():
        a = getattr(log, name)
        if series.pendulum and pend is None:
            assert a is None, name
            continue
        width = len(series.columns)
        assert a.shape == ((6,) if width == 1 else (6, width)), name
        assert a.dtype == series.dtype, name
    assert log.cmd_accel.shape == (6, 3)


class TestDeterminism:
    @staticmethod
    def noisy(controller):
        pend = PendulumParams() if CONTROLLERS[controller].pendulum else None
        return hover_scenario(controller=controller, pendulum=pend,
                              noise=NoiseSpec(enabled=True), seed=7,
                              duration=0.5)

    @pytest.mark.parametrize("controller", list(CONTROLLERS))
    def test_same_seed_bitwise_identical(self, controller):
        # A run of another controller in between shows any state that one
        # run leaves behind for the next.
        other = next(c for c in reversed(CONTROLLERS) if c != controller)
        a = run_scenario(self.noisy(controller))
        run_scenario(self.noisy(other))
        b = run_scenario(self.noisy(controller))
        assert a.t.size == b.t.size == 501
        for name in (*SERIES, "cmd_accel"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None and y is None) or x.tobytes() == y.tobytes(), name
        assert a.metrics == b.metrics

    def test_different_seeds_differ(self):
        a = run_scenario(hover_scenario(noise=NoiseSpec(enabled=True), seed=1,
                                        duration=0.5))
        b = run_scenario(hover_scenario(noise=NoiseSpec(enabled=True), seed=2,
                                        duration=0.5))
        assert not np.array_equal(a.quad, b.quad)

    def test_seed_irrelevant_without_noise(self):
        a = run_scenario(hover_scenario(seed=1, duration=0.5))
        b = run_scenario(hover_scenario(seed=2, duration=0.5))
        assert np.array_equal(a.quad, b.quad)


class TestNoiseInjection:
    def test_first_noisy_step_reproducible_from_seed(self):
        # Replaying the generator draws and one RK4 step must reproduce the
        # logged state exactly, pinning both the draw order and the
        # sqrt(dt_ref/dt) scaling.
        dt = 2e-3
        spec = NoiseSpec(enabled=True, accel_std=0.2, ang_accel_std=0.1,
                         dt_ref=1e-3)
        sc = hover_scenario(noise=spec, seed=11, dt=dt, duration=2 * dt)
        log = run_scenario(sc)

        scale = math.sqrt(spec.dt_ref / dt)
        rng = np.random.default_rng(11)
        noise_acc = rng.normal(0.0, spec.accel_std * scale, 3)
        noise_ang = rng.normal(0.0, spec.ang_accel_std * scale, 3)
        wrench = np.array([P.m * P.g, 0.0, 0.0, 0.0])
        x = sc.initial.as_vector()[:12]
        want = rk4_step(lambda xx: coupled_derivative(
            xx, wrench, P, None, noise_acc, noise_ang), x, dt)
        np.testing.assert_allclose(log.quad[1], want, rtol=0, atol=1e-15)

    def test_pendulum_sees_realized_acceleration(self):
        # The pendulum must be driven by the noisy vehicle acceleration, not
        # the commanded one.
        pp = PendulumParams()
        x = np.concatenate([np.zeros(12), [0.05, -0.02, 0.1, 0.0]])
        wrench = np.array([P.m * P.g, 0.0, 0.0, 0.0])
        noise_acc = np.array([0.3, -0.2, 0.1])
        dx = coupled_derivative(x, wrench, P, pp, noise_acc, None)
        v_dot = dx[3:6]
        np.testing.assert_allclose(v_dot, noise_acc, atol=1e-14)
        f_p, B_p = pendulum_drift_and_coupling(0.05, -0.02, 0.1, 0.0, pp.L,
                                               P.g)
        np.testing.assert_allclose(dx[14:16], f_p + B_p @ v_dot, rtol=1e-12)


class TestIntegrationOrder:
    def test_coupled_rk4_fourth_order_under_held_wrench(self):
        # Self-convergence of the coupled 16-state system with a constant
        # wrench; each halving of dt should cut the error by about 16x
        # (anything above 8x certifies order >= 3).
        pp = PendulumParams()
        wrench = np.array([P.m * P.g * 1.02, 2e-4, -1e-4, 0.0])
        x0 = np.concatenate([np.zeros(12), [0.02, -0.01, 0.0, 0.0]])
        T = 0.5

        def integrate(dt):
            x = x0.copy()
            for _ in range(int(round(T / dt))):
                x = rk4_step(lambda xx: coupled_derivative(
                    xx, wrench, P, pp, None, None), x, dt)
            return x

        ref = integrate(1.25e-4)
        errs = [np.linalg.norm(np.subtract(integrate(dt), ref))
                for dt in (4e-3, 2e-3, 1e-3)]
        assert errs[0] / errs[1] > 8.0
        assert errs[1] / errs[2] > 8.0


class TestEnergyConservation:
    def test_free_rigid_body_energy_constant(self):
        # Zero wrench: total energy (translational + potential + rotational)
        # of the vehicle is conserved by the integrator to high accuracy.
        x = np.zeros(12)
        x[2] = -2.0
        x[9:12] = [1.0, 2.0, 0.5]
        wrench = np.zeros(4)

        def energy(x):
            v, w = np.asarray(x[3:6]), np.asarray(x[9:12])
            # Z-down: height above datum is -p_Z.
            return (0.5 * P.m * v @ v - P.m * P.g * x[2]
                    + 0.5 * w @ (np.asarray(P.I_diag) * w))

        e0 = energy(x)
        dt = 1e-3
        for _ in range(5000):
            x = rk4_step(lambda xx: coupled_derivative(
                xx, wrench, P, None, None, None), x, dt)
        assert abs(energy(x) - e0) / abs(e0) < 1e-6


class TestEventsAndAborts:
    def test_clamp_events_logged_once_per_step(self):
        # A 1 m altitude step through the stiff inner gains saturates the
        # rotors for the first few steps.
        sc = hover_scenario(
            controller="fbl-tracker",
            trajectory=TrajectorySpec(kind="set-point",
                                      setpoint=(0.0, 0.0, -3.0)),
            duration=2.0)
        log = run_scenario(sc)
        n_clamped = int(np.sum(log.clamped))
        assert n_clamped > 0
        clamp_events = [e for e in log.events if e[1] == "clamp"]
        assert len(clamp_events) == n_clamped
        flagged_times = set(log.t[log.clamped].tolist())
        assert {e[0] for e in clamp_events} == flagged_times
        assert log.metrics["clamp_events"] == n_clamped

    def test_pendulum_horizontal_abort(self):
        sc = hover_scenario(
            controller="pend-xi",
            pendulum=PendulumParams(),
            initial=InitialState(p=(0.0, 0.0, -2.0),
                                 pendulum=(0.45, 0.0, 3.0, 0.0)),
            duration=2.0)
        log = run_scenario(sc)
        assert log.aborted
        assert "pendulum" in log.abort_reason
        assert log.abort_time < 2.0
        assert log.t.size < int(round(2.0 / sc.dt)) + 1
        assert log.metrics["aborted"] is True


    def test_synthesis_failure_aborts_before_first_row(self):
        log = run_scenario(hover_scenario(gains=TrackingGains(q_care=1e-20)))
        assert log.aborted and log.abort_time == 0.0
        assert "synthesis" in log.abort_reason
        assert log.t.size == 0
        assert log.metrics == {"clamp_events": 0, "qp_relaxed_events": 0,
                               "qp_faults": 0, "aborted": True}


class TestQpFaultFallback:
    """A CLF-QP fault holds hover first, then the last command."""

    def _run(self, monkeypatch, good_calls):
        real = ctl.clf_qp_controller
        calls = Counter()

        def faulty(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > good_calls:
                raise QpInfeasibleError("forced fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(ctl, "clf_qp_controller", faulty)
        sc = hover_scenario(controller="clf-qp")
        return sc, run_scenario(sc)

    def test_faults_from_the_first_call_hold_hover(self, monkeypatch):
        sc, log = self._run(monkeypatch, 0)
        assert log.t.size == MAX_CONSECUTIVE_FAULTS == 50
        assert log.aborted and log.abort_time == 49 * sc.dt
        assert log.abort_reason == "persistent QP infeasibility"
        hover = np.array([P.m * P.g, 0.0, 0.0, 0.0])
        assert np.array_equal(log.wrench[0], hover)
        assert np.array_equal(log.u[0], mixer_inverse(hover, P))
        assert np.array_equal(log.q_d[0], np.zeros(3))
        assert log.qp_fault.all()
        assert [e[1] for e in log.events] == ["qp_fault"] * 50

    def test_faults_from_the_fourth_call_hold_the_last_command(
            self, monkeypatch):
        _, log = self._run(monkeypatch, 3)
        assert log.t.size == 53 and log.aborted
        assert not log.qp_fault[:3].any() and log.qp_fault[3:].all()
        assert np.array_equal(log.u[3:], np.tile(log.u[2], (50, 1)))
        assert np.array_equal(log.wrench[3:], np.tile(log.wrench[2], (50, 1)))


@pytest.mark.xfail(raises=AssertionError, reason=(
    "ROADMAP item 16: fbl-regulator drops the outer "
    "loop's feedforward, and the cascade is unstable"))
def test_regulator_returns_from_a_1_cm_offset():
    log = run_scenario(hover_scenario(
        initial=InitialState(p=(0.01, 0.0, -2.0)), duration=10.0))
    assert not log.aborted
    assert np.linalg.norm(log.quad[-1, :3] - (0.0, 0.0, -2.0)) < 1e-3


class TestMetrics:
    def test_rms(self):
        assert rms(np.full(10, 3.0)) == pytest.approx(3.0)
        assert rms([3.0, 4.0]) == pytest.approx(math.sqrt(12.5))
        with pytest.raises(ValueError):
            rms([])

    def test_settling_time_exponential(self):
        dt = 1e-3
        t = np.arange(0.0, 6.0, dt)
        err = np.exp(-t)
        settle = settling_time(err, dt, band=0.02)
        assert settle == pytest.approx(math.log(50.0), abs=2 * dt)

    def test_settling_time_never(self):
        assert settling_time(np.ones(100), 0.1) is None

    def test_settling_time_of_an_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty series"):
            settling_time([], 1e-3)

    def test_settling_time_band_scales_initial_error(self):
        err = np.array([-2.0, 1.0, 0.5, 0.1, 0.1])
        assert settling_time(err, 0.1, band=0.5) == pytest.approx(0.1)
        assert settling_time(err, 0.1, band=0.25) == pytest.approx(0.2)
        assert settling_time(err, 0.1, band=0.1) == pytest.approx(0.3)

    def test_count_overshoots(self):
        assert count_overshoots(np.array([3.0, 1.0, -1.0, 1.0, -0.5])) == 3
        assert count_overshoots(np.array([1.0, 0.5, 0.25])) == 0
        assert count_overshoots(np.array([])) == 0
        # Monotone decay to zero without crossing: no overshoot.
        t = np.linspace(0.0, 5.0, 200)
        assert count_overshoots(np.exp(-t)) == 0
        # Damped oscillation: one sign change per half period after the peak.
        # cos(5t) crosses zero 8 times on [0, 5].
        sig = np.exp(-t) * np.cos(5.0 * t)
        assert count_overshoots(sig) == 8

    def test_metrics_on_perfect_hover(self):
        log = run_scenario(hover_scenario())
        m = log.metrics
        assert m["rms_err_x"] == pytest.approx(0.0, abs=1e-12)
        assert m["settle_z"] == 0.0
        assert m["qp_faults"] == 0
        assert "rms_pend_a" not in m

    def test_pendulum_metrics_present(self):
        sc = hover_scenario(controller="pend-xi", pendulum=PendulumParams(),
                            initial=InitialState(
                                p=(0.0, 0.0, -2.0),
                                pendulum=(0.02, 0.0, 0.0, 0.0)),
                            duration=1.0)
        m = run_scenario(sc).metrics
        for key in ("rms_pend_a", "rms_pend_b", "peak_pend_offset",
                    "overshoot_a", "overshoot_b"):
            assert key in m
        assert m["peak_pend_offset"] >= 0.02
