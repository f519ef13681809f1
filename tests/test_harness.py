"""Tests for the simulation harness, metrics, and abort bookkeeping."""

import csv
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadpend.controllers as ctl
import quadpend.harness as harness
import quadpend.models as models
import quadpend.numerics as numerics
from quadpend.cli import (EXIT_ABORT, EXIT_OK, load_scenarios, main,
                          shipped_scenario_path, shipped_scenarios)
from quadpend.controllers import TrackingGains
from quadpend.harness import (CONTROLLERS, MAX_STEPS, NOISE_DT_REF, SERIES,
                              NoiseSpec, Scenario, ScenarioError,
                              closed_loop_step, compute_metrics,
                              count_overshoots, rms, run_scenario,
                              settling_time)
from quadpend.models import (InitialState, PendulumParams,
                             VehicleParams, coupled_derivative,
                             pendulum_drift_and_coupling)
from quadpend.numerics import (NonFiniteDerivativeError, QpInfeasibleError,
                               rk4_step)
from quadpend.trajectories import (TRAJECTORY_KINDS, SetpointDifferentiator,
                                   TrajectorySpec)

from helpers import csv_cells, replay_period

P = VehicleParams()
FIG5_NOISE = NoiseSpec(accel_std=0.2, ang_accel_std=0.1)  # fig5a and fig5b's


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
        lambda: NoiseSpec(accel_std=-0.1),
        lambda: NoiseSpec(ang_accel_std=-0.1),
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


@pytest.mark.parametrize("controller, pendulum", [
    (name, pendulum) for name in CONTROLLERS for pendulum in (False, True)
    if pendulum or not CONTROLLERS[name].pendulum])
def test_step_row_names_the_allocated_series(controller, pendulum):
    # run_scenario writes column[i] = row[name] for each series it allocates
    # and for cmd_accel, which is logged for the metrics only.
    sc = hover_scenario(controller=controller, duration=0.002,
                        pendulum=PendulumParams() if pendulum else None)
    x = sc.initial.as_vector().tolist()[:16 if pendulum else 12]
    row, _ = closed_loop_step(sc, CONTROLLERS[controller].setup(sc), x,
                              SetpointDifferentiator(sc.dt), 0.0,
                              np.random.default_rng(0), False)
    allocated = {name for name, series in SERIES.items()
                 if pendulum or not series.pendulum}
    assert set(row) == allocated | {"cmd_accel"}
    log = run_scenario(sc)
    assert {name for name in SERIES if getattr(log, name) is not None
            } == allocated


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


def assert_same_log(a, b):
    """Every series byte for byte, the metrics and the abort."""
    for name in (*SERIES, "cmd_accel"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None and y is None) or x.tobytes() == y.tobytes(), name
    assert a.metrics == b.metrics
    assert ((a.aborted, a.abort_time, a.abort_reason)
            == (b.aborted, b.abort_time, b.abort_reason))


def _box(bound, n=3):
    return st.tuples(*[st.floats(-bound, bound)] * n)


@st.composite
def short_noisy_scenarios(draw, controller):
    """A 0.05 s run of controller from a random state near hover, with a
    random reference kind, noise level and seed."""
    pendulum = None
    initial_pendulum = (0.0, 0.0, 0.0, 0.0)
    if CONTROLLERS[controller].pendulum:
        pendulum = PendulumParams()
        initial_pendulum = (*draw(_box(0.05, 2)), 0.0, 0.0)
    x, y, z = draw(_box(0.5))
    return Scenario(
        controller=controller, pendulum=pendulum,
        trajectory=TrajectorySpec(kind=draw(st.sampled_from(TRAJECTORY_KINDS))),
        initial=InitialState(p=(x, y, z - 2.0), v=draw(_box(0.5)),
                             q=draw(_box(0.2)), omega=draw(_box(0.5)),
                             pendulum=initial_pendulum),
        duration=0.05, seed=draw(st.integers(0, 2 ** 32 - 1)),
        noise=NoiseSpec(accel_std=draw(st.floats(0.0, 1.0)),
                        ang_accel_std=draw(st.floats(0.0, 0.5))))


class TestDeterminism:
    @staticmethod
    def noisy(controller):
        pend = PendulumParams() if CONTROLLERS[controller].pendulum else None
        return hover_scenario(controller=controller, pendulum=pend,
                              noise=FIG5_NOISE, seed=7,
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
        assert_same_log(a, b)

    @pytest.mark.parametrize("controller", list(CONTROLLERS))
    @settings(max_examples=5)
    @given(data=st.data())
    def test_random_noisy_scenario_reruns_bitwise_identical(self, controller,
                                                            data):
        sc = data.draw(short_noisy_scenarios(controller))
        assert_same_log(run_scenario(sc), run_scenario(sc))

    def test_different_seeds_differ(self):
        a = run_scenario(hover_scenario(noise=FIG5_NOISE, seed=1,
                                        duration=0.5))
        b = run_scenario(hover_scenario(noise=FIG5_NOISE, seed=2,
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
        # sqrt(NOISE_DT_REF/dt) scaling.
        dt = 2e-3
        spec = FIG5_NOISE
        sc = hover_scenario(noise=spec, seed=11, dt=dt, duration=2 * dt)
        log = run_scenario(sc)

        scale = math.sqrt(NOISE_DT_REF / dt)
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
        u_min, u_max = P.rotor_bounds
        assert ((log.u >= u_min) & (log.u <= u_max)).all()
        at_bound = ((log.u == u_min) | (log.u == u_max)).any(axis=1)
        assert at_bound[log.clamped].all()
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
                               "qp_faults": 0, "aborted": True,
                               "abort_time": 0.0,
                               "abort_reason": log.abort_reason}


class TestAbortContract:
    """closed_loop_step's aborts: a failing reference or law, an infeasible
    QP included, ends the run at t without the period's row, a failing noise
    draw or RK4 step at t after it, and a state out of range at t + dt after
    it."""

    @pytest.mark.parametrize("fail, rows, abort_step", [
        ("law", 3, 3), ("qp", 3, 3), ("rk4", 4, 3), ("pitch", 4, 4),
        ("reference", 3, 3), ("noise", 4, 3)])
    def test_abort_time_and_whether_the_row_stands(self, monkeypatch, fail,
                                                   rows, abort_step):
        # "law" fails the regulator's allocation, "qp" the CLF-QP's QP; each
        # fails at the 4th period.
        name, error = (("clf_qp_controller", QpInfeasibleError) if fail == "qp"
                       else ("fbl_regulator", ctl.AllocationError))
        calls = Counter()
        real_law, real_rk4 = getattr(ctl, name), harness.rk4_step
        real_sample = harness.sample_trajectory
        real_rng = np.random.default_rng

        def law(*args):
            calls["law"] += 1
            if fail in ("law", "qp") and calls["law"] == 4:
                raise error("forced")
            return real_law(*args)

        def sample(spec, t):
            calls["reference"] += 1
            if fail == "reference" and calls["reference"] == 4:
                raise ValueError("forced")
            return real_sample(spec, t)

        class Rng:
            """The run's generator; two draws a period."""

            def __init__(self, seed):
                self.rng = real_rng(seed)

            def normal(self, *args):
                calls["noise"] += 1
                if fail == "noise" and calls["noise"] == 7:
                    raise ValueError("forced")
                return self.rng.normal(*args)

        def rk4(deriv, x, dt, t=None):
            calls["rk4"] += 1
            x = real_rk4(deriv, x, dt, t=t)
            if calls["rk4"] == 4 and fail == "rk4":
                raise NonFiniteDerivativeError("forced")
            if calls["rk4"] == 4 and fail == "pitch":
                x[7] = math.pi / 2
            return x

        monkeypatch.setattr(ctl, name, law)
        monkeypatch.setattr(harness, "rk4_step", rk4)
        monkeypatch.setattr(harness, "sample_trajectory", sample)
        monkeypatch.setattr(np.random, "default_rng", Rng)
        sc = hover_scenario(controller="clf-qp" if fail == "qp"
                            else "fbl-regulator", noise=FIG5_NOISE)
        log = run_scenario(sc)
        assert log.t.size == rows
        assert log.aborted and log.abort_time == abort_step * sc.dt
        assert log.abort_reason == ("pitch reached +-pi/2" if fail == "pitch"
                                    else "forced")
        assert log.metrics["aborted"] is True
        assert log.metrics["qp_faults"] == 0

    def test_each_error_of_the_model_laws_and_solvers_ends_a_run(self):
        errors = [c for m in (models, numerics, ctl) for c in vars(m).values()
                  if isinstance(c, type) and issubclass(c, Exception)
                  and c.__module__ == m.__name__]
        assert errors
        for error in (*errors, np.linalg.LinAlgError):
            assert issubclass(error, harness.RUN_FAILURES), error

    def test_a_programming_error_propagates(self, monkeypatch):
        def law(*args):
            raise TypeError("forced")

        monkeypatch.setattr(ctl, "fbl_regulator", law)
        with pytest.raises(TypeError, match="forced"):
            run_scenario(hover_scenario())

    def test_a_qp_fault_at_the_first_call_aborts_at_zero_with_no_row(
            self, monkeypatch):
        def law(*args):
            raise QpInfeasibleError("forced")

        monkeypatch.setattr(ctl, "clf_qp_controller", law)
        log = run_scenario(hover_scenario(controller="clf-qp"))
        assert log.t.size == 0 and log.u.shape == (0, 4)
        assert log.aborted and log.abort_time == 0.0
        assert log.abort_reason == "forced"
        assert log.metrics["aborted"] is True
        assert log.metrics["qp_faults"] == 0


@pytest.mark.parametrize("name, duration, seed", [
    *((name, 1.0, None) for name in shipped_scenarios()),
    ("fig5b-noise-clfqp.scn", 3.5, 3)],  # aborts at 3.442 s, after its row
    ids=[*shipped_scenarios(), "fig5b-noise-clfqp-seed-3-aborts"])
def test_every_row_replays_from_the_log_bit_for_bit(tmp_path, name,
                                                     duration, seed):
    # The CSV log holds all a period needs: sampled rows and the last one
    # give the row, then the next row's state or the abort, bit for bit.
    sets = [("duration", duration)]
    sc, = load_scenarios(shipped_scenario_path(name), sets, seed)
    argv = ["run", name, "--out", str(tmp_path),
            "--set", f"duration={duration}"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    assert main(argv) in (EXIT_OK, EXIT_ABORT)
    with open(tmp_path / f"{sc.name}.csv") as fh:
        header, *rows = csv.reader(fh)
    log = dict(zip(header, zip(*rows)))
    metrics = json.loads((tmp_path / f"{sc.name}.metrics.json").read_text())
    design = CONTROLLERS[sc.controller].setup(sc)
    state = SERIES["quad"].columns + (SERIES["pend"].columns
                                      if sc.has_pendulum else ())
    last = len(rows) - 1
    for i in sorted({0, 1, 2, *range(3, last, 97), last}):
        try:
            row, x = replay_period(sc, design, log, i)
        except harness.StepAbort as stop:
            t, reason, row = stop.args
            assert (i, t, reason) == (last, metrics["abort_time"],
                                      metrics["abort_reason"])
            x = None
        assert csv_cells(row) == {c: cells[i] for c, cells in log.items()
                                  if cells[i]}, i
        if i < last:
            assert [repr(v) for v in x] == [log[c][i + 1] for c in state], i
    assert metrics["aborted"] == (seed is not None)


NOISY = ("fig5a-noise-fbl.scn", "fig5b-noise-clfqp.scn")


@pytest.mark.parametrize("name, seeds", [
    *((name, [None]) for name in shipped_scenarios()),
    *(pytest.param(name, [0, 1, 2], marks=pytest.mark.xfail(
        raises=AssertionError, reason=(
            "ROADMAP item 4: the set-point differentiator turns noise into "
            "feedforward, so the error grows as the step shrinks")))
      for name in NOISY)],
    ids=[*shipped_scenarios(), *(f"{name}-noise-seeds-0-2" for name in NOISY)])
def test_halving_the_step_keeps_the_tracking_error(name, seeds):
    # The laws are continuous and the harness holds them over dt, so the
    # error is e(dt) = e0 + c dt + o(dt): from 2 ms to 1 ms it moves by at
    # most half of e(2 ms), so less than a factor 2 covers the sampling.
    # Under noise each step size draws other realisations, whose medians
    # can differ by the spread of the errors over the seeds at 2 ms.  A
    # seed of None is a noise-free cut, for which the spread is 1.
    noise_free = [("noise.accel_std", 0.0), ("noise.ang_accel_std", 0.0)]
    errors = {}
    for dt in (2e-3, 1e-3):
        sets = [("duration", 0.6), ("dt", dt)]
        logs = [run_scenario(load_scenarios(
            shipped_scenario_path(name),
            sets + (noise_free if seed is None else []), seed)[0])
            for seed in seeds]
        assert not any(log.aborted for log in logs), name
        errors[dt] = [math.hypot(log.metrics["rms_err_x"],
                                 log.metrics["rms_err_y"],
                                 log.metrics["rms_err_z"]) for log in logs]
    spread = max(errors[2e-3]) / min(errors[2e-3])
    assert (np.median(errors[1e-3])
            <= 2.0 * spread * np.median(errors[2e-3])), errors


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
